//! **QSM** — the Queueing Synchronization Mechanism, real-hardware edition.
//!
//! The lock half of the paper's unified mechanism. Differences from the
//! MCS lock (`kernels::locks::mcs`):
//!
//! * the hand-off is an *increment* of the successor's **grant word**
//!   (an eventcount) rather than clearing a boolean — the operation shared
//!   with [`crate::EventCount::advance`] and [`crate::QsmBarrier`];
//! * a waiter is granted when its grant word moves past the value it
//!   recorded at enqueue, which is immune to missed-wakeup races by
//!   arithmetic: counts never return to a recorded value;
//! * acquire attempts a single-CAS fast path before enqueueing.
//!
//! The queue is `service::protocol`'s ([`protocol::qsm_lock`],
//! [`protocol::qsm_try_lock`], [`protocol::qsm_unlock`]), the code the
//! checker runs (`interleave::corpus`) and the `kernels` QSM kernel
//! instantiates; this file supplies its words — heap nodes, named by
//! address, every access `SeqCst` — and the lot they wait in. A queued
//! waiter waits by [`protocol::qsm_await_grant`], the checker's grant wait
//! too: it probes its grant word for what a park in the process-global lot
//! costs ([`parking::futex::ParkingLot::spin`]), yielding its core after
//! each failed look, and then parks on it.
//!
//! In this per-acquisition-node edition each node's grant starts at zero
//! and receives exactly one increment; the monotone-count behaviour across
//! acquisitions is carried by the persistent-node variant in `kernels` and
//! by [`crate::QsmBarrier`]'s reset-free round.

use crate::CachePadded;
use parking::futex::{addr_of, global_lot};
use service::protocol::{self, QsmQueue};
use std::mem::offset_of;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::thread::yield_now;
use syncctx::{Addr, SyncCtx, Waited, Word};

/// One queue node: explicit link + grant eventcount.
#[derive(Debug, Default)]
#[repr(align(128))]
struct QsmNode {
    next: AtomicU64,
    grant: AtomicU64,
}

/// The QSM lock.
///
/// Tail states: 0 = free; otherwise the address of the last enqueued node
/// (which is the holder when the queue has length one).
///
/// # Memory reclamation
///
/// Per-acquisition heap nodes, freed at the end of `unlock`, which is sound
/// because by then no other thread can hold a reference: a mid-enqueue
/// successor has finished writing `next` (we waited for it), the tail no
/// longer points at us (our CAS either succeeded or the tail had already
/// moved on), and our predecessor's hand-off advanced our grant before we
/// could run (its wake goes by address and never touches the node).
#[derive(Debug)]
pub struct Qsm {
    tail: CachePadded<AtomicU64>,
}

impl Qsm {
    /// Creates an unlocked mechanism.
    pub fn new() -> Self {
        Qsm {
            tail: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Acquires the lock, waiting as necessary; returns the token
    /// [`Qsm::unlock`] takes — this acquisition's node.
    pub fn lock(&self) -> usize {
        protocol::qsm_lock(&mut Lot, &mut &*self) as usize
    }

    /// Attempts the uncontended fast path once; on success the caller holds
    /// the lock and receives the token.
    pub fn try_lock(&self) -> Option<usize> {
        let node = new_node();
        if protocol::qsm_try_lock(&mut Lot, &self, node) {
            return Some(node as usize);
        }
        // SAFETY: the node was never published.
        unsafe { drop(Box::from_raw(node as *mut QsmNode)) };
        None
    }

    /// Releases the lock.
    ///
    /// # Safety
    ///
    /// The caller must currently hold the lock and `token` must be the value
    /// returned by the matching [`Qsm::lock`] or [`Qsm::try_lock`] call,
    /// passed exactly once.
    pub unsafe fn unlock(&self, token: usize) {
        protocol::qsm_unlock(&mut Lot, &mut &*self, token as u64);
        // SAFETY: the caller's token is a live node of `new_node`, and
        // `qsm_unlock` leaves nobody a way to reach it.
        unsafe { drop(Box::from_raw(token as *mut QsmNode)) };
    }
}

impl Default for Qsm {
    fn default() -> Self {
        Qsm::new()
    }
}

/// A fresh queue node: no successor, grant at zero.
fn new_node() -> u64 {
    Box::into_raw(Box::<QsmNode>::default()) as u64
}

/// The process-global lot, every access `SeqCst`, with words named by
/// address: a [`Qsm`]'s tail and its nodes' two words. Only this file names
/// words to it, and only live ones (see [`Qsm`]'s memory reclamation); the
/// wake after an advance, whose node may be gone, goes by address to
/// [`parking::futex::ParkingLot::wake_addr`], which never dereferences it.
struct Lot;

/// The word at `w`.
///
/// # Safety
///
/// `w` must be the address of a live [`Qsm`]'s tail or of a word of a
/// node that is not yet freed, and stay so for `'a`.
unsafe fn at<'a>(w: Addr) -> &'a AtomicU64 {
    // SAFETY: the caller's contract.
    unsafe { &*(w as *const AtomicU64) }
}

impl SyncCtx for Lot {
    fn load(&mut self, w: Addr) -> Word {
        // SAFETY: `protocol::qsm_*` names only live words here (see `Lot`).
        unsafe { at(w) }.load(SeqCst)
    }
    fn store(&mut self, w: Addr, v: Word) {
        // SAFETY: `protocol::qsm_*` names only live words here (see `Lot`).
        unsafe { at(w) }.store(v, SeqCst);
    }
    fn swap(&mut self, w: Addr, v: Word) -> Word {
        // SAFETY: `protocol::qsm_*` names only live words here (see `Lot`).
        unsafe { at(w) }.swap(v, SeqCst)
    }
    fn cas(&mut self, w: Addr, expected: Word, new: Word) -> Result<Word, Word> {
        // SAFETY: `protocol::qsm_*` names only live words here (see `Lot`).
        unsafe { at(w) }.compare_exchange(expected, new, SeqCst, SeqCst)
    }
    fn fetch_add(&mut self, w: Addr, delta: Word) -> Word {
        // SAFETY: `protocol::qsm_*` names only live words here (see `Lot`).
        unsafe { at(w) }.fetch_add(delta, SeqCst)
    }
    fn wait(&mut self, w: Addr, expected: Word, tag: Option<Word>) -> Waited {
        // SAFETY: `protocol::qsm_*` names only live words here (see `Lot`).
        SyncCtx::wait(&mut global_lot(), unsafe { at(w) }, expected, tag)
    }
    fn wake(&mut self, w: Addr, n: usize) -> usize {
        global_lot().wake_addr(w, n)
    }
    fn spin(&mut self, mut probe: impl FnMut(&mut Self) -> bool) -> bool {
        // Only the grant wait spins, and a grant names one waiter, so
        // spinning on it only keeps the holder and the waiters ahead of it
        // off the cores: each failed look yields. (Lock/unlock at 4 threads
        // per core of a 2-vCPU Xeon: 7.2 µs an acquisition without the
        // yield, 1.6 µs with it.)
        global_lot().spin(|| {
            probe(self) || {
                yield_now();
                false
            }
        })
    }
}

impl QsmQueue<Addr, Lot> for &Qsm {
    fn tail(&self) -> Addr {
        addr_of(&self.tail)
    }
    fn next(&self, node: u64) -> Addr {
        node as Addr + offset_of!(QsmNode, next)
    }
    fn grant(&self, node: u64) -> Addr {
        node as Addr + offset_of!(QsmNode, grant)
    }
    fn node(&mut self, _: &mut Lot) -> (u64, u64) {
        (new_node(), 0)
    }
    fn await_grant(&mut self, c: &mut Lot, grant: Addr, recorded: u64) {
        protocol::qsm_await_grant(c, grant, recorded);
    }
    fn await_link(&mut self, c: &mut Lot, next: Addr) -> u64 {
        // A successor has swapped the tail but not yet linked; its store
        // is next, unless it lost its core in between.
        loop {
            match c.load(next) {
                0 => yield_now(),
                succ => return succ,
            }
        }
    }
    fn wakes(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn solo_lock_unlock_cycles() {
        let l = Qsm::new();
        for _ in 0..100 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn try_lock_succeeds_only_when_free() {
        let l = Qsm::new();
        let t = l.try_lock().expect("free lock must be acquirable");
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        let t2 = l.try_lock().expect("released lock must be acquirable");
        unsafe { l.unlock(t2) };
    }

    #[test]
    fn tail_returns_to_free_when_idle() {
        let l = Qsm::new();
        let t = l.lock();
        unsafe { l.unlock(t) };
        assert_eq!(l.tail.load(SeqCst), 0);
    }

    #[test]
    fn excludes_across_threads() {
        let l = Arc::new(Qsm::new());
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let sum = Arc::clone(&sum);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let t = l.lock();
                        sum.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 2000);
    }

    #[test]
    fn heavy_mixed_try_and_lock() {
        use std::sync::atomic::Ordering::AcqRel;
        let l = Arc::new(Qsm::new());
        let sum = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let holders = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                let sum = Arc::clone(&sum);
                let holders = Arc::clone(&holders);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let token = if i % 2 == 0 {
                            l.lock()
                        } else {
                            match l.try_lock() {
                                Some(t) => t,
                                None => l.lock(),
                            }
                        };
                        // However the token was won, nobody else holds one.
                        assert_eq!(holders.fetch_add(1, AcqRel), 0, "two holders");
                        sum.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        holders.fetch_sub(1, AcqRel);
                        unsafe { l.unlock(token) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(sum.load(std::sync::atomic::Ordering::Relaxed), 800);
    }
}
