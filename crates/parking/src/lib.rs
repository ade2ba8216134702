//! Blocking synchronization for real hardware: a word-sized **futex** over a
//! bucketed parking lot.
//!
//! The 1991 study's kernels busy-wait, which is the right call when every
//! processor is dedicated. The moment threads outnumber cores, a spinning
//! waiter burns the very quantum the lock holder needs, and throughput
//! collapses (the `fig9` oversubscription sweep). This crate supplies the
//! alternative wait path:
//!
//! - [`lot`] — the lot's operations, written once as steps (enqueue-if-equal,
//!   park, wake `n`, wake by tag, cancel) over a bucket trait and a park
//!   token, so any substrate with buckets and tokens runs the same code.
//! - [`futex`] — their real-thread instance, [`futex::ParkingLot`]:
//!   [`futex::ParkingLot::wait`]`(word, expected)` /
//!   [`futex::ParkingLot::wake_addr`]`(addr, n)`, the user-space analogue
//!   of the Linux futex, whose compare and enqueue happen under one bucket
//!   lock, so a waker that changes the word *before* waking never loses a
//!   wakeup; tagged waits and a wake addressed to `(word, tag)` pairs for
//!   words several logical waiters share; an exact park/wake/resume ledger
//!   per lot and their machine-wide union ([`futex::totals`]). The
//!   `service` crate embeds a lot of its own; the process-global, untraced
//!   one ([`futex::global_lot`]) is the `qsm` crate's.
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
pub mod lot;

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
