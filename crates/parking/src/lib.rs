//! Blocking synchronization for real hardware: a word-sized **futex** over a
//! bucketed parking lot.
//!
//! The 1991 study's kernels busy-wait, which is the right call when every
//! processor is dedicated. The moment threads outnumber cores, a spinning
//! waiter burns the very quantum the lock holder needs, and throughput
//! collapses (the `fig9` oversubscription sweep). This crate supplies the
//! alternative wait path:
//!
//! - [`futex`] — [`futex::ParkingLot::wait`]`(word, expected)` /
//!   [`futex::ParkingLot::wake_addr`]`(addr, n)` over a bucketed parking
//!   lot of per-thread parkers, the user-space analogue of the Linux futex:
//!   the compare and the block happen under one bucket lock, so a waker
//!   that changes the word *before* waking can never lose a wakeup. The lot
//!   is a first-class type ([`futex::ParkingLot`]): cache-line-padded
//!   power-of-two buckets indexed by the full-avalanche [`futex::mix64`]
//!   hash, waits that carry a tag and a batched wake addressed to
//!   `(word, tag)` pairs ([`futex::ParkingLot::wake_tagged`]) for words
//!   several logical waiters share, and machine-wide park/wake/resume
//!   accounting ([`futex::totals`], whose last reader is the repo
//!   benchmark's layer split; every lot keeps an exact ledger of its own).
//!   A lot built with a `trace::Tracer`
//!   ([`futex::ParkingLot::with_tracer`]) records its parks, wakes and
//!   resumes into it. The `service` crate embeds its own lot under its
//!   sharded per-key lock table, and a service's semaphores park there
//!   too; the process-global, untraced instance ([`futex::global_lot`])
//!   is the `qsm` crate's alone, where its lock, eventcount and barrier
//!   park.
//! - [`futex::ParkingLot::spin`] — the one pre-park wait: probe the awaited
//!   word until it changes or until the lot's measured
//!   [`futex::ParkingLot::park_cost`] has passed, then let the caller park.
//!   Every real thread that waits before it parks — the `service` mutex,
//!   eventcount and semaphore, and the `qsm` primitives — waits this way.
//! - [`CachePadded`] — the cache-line padding the lot's buckets and every
//!   per-waiter word above it are laid out with.
//!
//! A blocking eventcount or barrier on a plain word is the `service`
//! crate's checked protocol (`service::protocol`) run over any
//! [`futex::ParkingLot`].
//!
//! This crate is the *real-hardware* backend of the spin-vs-block axis. The
//! deterministic counterpart lives in `memsim`, whose engine executes
//! `FutexWait`/`FutexWake` as first-class simulated operations (a parked
//! processor yields its simulated core, a wake costs a modeled remote
//! write), and in the `interleave` checker, which explores park/wake
//! interleavings exhaustively and reports lost wakeups. The simulated
//! kernels reach those backends through `kernels::SyncCtx`; this crate is
//! what the same ideas look like on `std::thread`.

pub mod futex;

/// A value padded and aligned to its own cache line (two lines' worth of
/// alignment to defeat adjacent-line prefetchers), so per-waiter spin
/// variables never share a line — the discipline every scalable 1991
/// algorithm demands.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consumes the wrapper.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_line_aligned() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 128);
    }

    #[test]
    fn cache_padded_derefs() {
        let mut p = CachePadded::new(5u32);
        assert_eq!(*p, 5);
        *p = 7;
        assert_eq!(p.into_inner(), 7);
    }

    #[test]
    fn padded_array_elements_do_not_share_lines() {
        let a = [CachePadded::new(0u64), CachePadded::new(0u64)];
        let p0 = &*a[0] as *const u64 as usize;
        let p1 = &*a[1] as *const u64 as usize;
        assert!(p1 - p0 >= 128);
    }
}
