//! # qsm — the Queueing Synchronization Mechanism for real hardware
//!
//! This crate is the paper's mechanism written against `std::sync::atomic`
//! with explicit memory orderings, packaged behind safe APIs. It is the one
//! hand-written copy: every other algorithm of the study exists once, as a
//! `kernels` kernel over `SyncCtx`, which runs on the simulator, the checker
//! and (through `workloads::realhw::RealCtx`) on real threads.
//!
//! ## The mechanism
//!
//! [`Qsm`] is a word-based queue lock whose hand-off is an increment of the
//! waiter's **grant word** — a tiny eventcount — rather than a boolean flag
//! store. The same grant-word idea supplies the crate's other services:
//!
//! * [`EventCount`] / [`Sequencer`] — Reed–Kanodia condition
//!   synchronization (`await` / `advance` / `ticket`);
//! * [`QsmBarrier`] — a reusable barrier whose arrival counter and release
//!   epoch are both monotone counters (no reset races by construction);
//! * [`Mutex`] — an RAII mutex generic over any [`RawLock`], defaulting
//!   to QSM (`parking::QsmMutexBlocking` is the other implementation).
//!
//! ## The baselines
//!
//! The locks the 1991 evaluation compares QSM against (TAS, TTAS, ticket,
//! Anderson, Graunke–Thakkar, CLH, MCS and their backoff variants) live in
//! `kernels::locks`. fig8 runs that registry on real threads.
//!
//! ## Verification
//!
//! These are busy-wait primitives with hand-picked orderings. The
//! algorithms themselves are checked exhaustively, under sequential
//! consistency, on their `kernels` twins by the `interleave` crate
//! (`tests/lock_correctness_sweep.rs`); this crate's code is stressed on
//! real threads by its unit tests and `tests/realhw_stress.rs` (the QSM
//! mutex over a plain cell, the barrier, an eventcount/sequencer queue),
//! which CI's nightly ThreadSanitizer job re-runs to check the orderings as
//! written. Nothing explores the C11 weak-memory behaviours of these
//! orderings.
//!
//! ## Quick start
//!
//! ```
//! use qsm::Mutex;
//! use std::sync::Arc;
//!
//! let counter: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
//! let threads: Vec<_> = (0..4)
//!     .map(|_| {
//!         let counter = Arc::clone(&counter);
//!         std::thread::spawn(move || {
//!             for _ in 0..1000 {
//!                 *counter.lock() += 1;
//!             }
//!         })
//!     })
//!     .collect();
//! for t in threads {
//!     t.join().unwrap();
//! }
//! assert_eq!(*counter.lock(), 4000);
//! ```

pub mod backoff;
pub mod barrier;
pub mod event;
pub mod mutex;
pub mod qsm;
pub mod raw;

pub use backoff::Backoff;
pub use barrier::QsmBarrier;
pub use event::{EventCount, Sequencer};
pub use mutex::{Mutex, MutexGuard};
pub use qsm::Qsm;
pub use raw::RawLock;

/// The atomics and spin hints every primitive in the crate goes through:
/// one place to read which `std` operations the algorithms are built on.
pub(crate) mod sync {
    pub(crate) use std::hint::spin_loop as spin_hint;
    pub(crate) use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
    pub(crate) use std::thread::yield_now;
}

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
