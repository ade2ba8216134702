//! # qsm — the Queueing Synchronization Mechanism for real hardware
//!
//! This crate is the paper's mechanism on `std` threads, packaged behind
//! safe APIs. It is the one real-thread copy of each QSM primitive: every
//! other algorithm of the study exists once, as a `kernels` kernel over
//! `SyncCtx`, which runs on the simulator, the checker and (through
//! `workloads::realhw::RealCtx`) on real threads.
//!
//! ## The mechanism
//!
//! [`Qsm`] is a word-based queue lock whose hand-off is an increment of the
//! waiter's **grant word** — a tiny eventcount — rather than a boolean flag
//! store. The same monotone-word idea supplies the crate's other services:
//!
//! * [`EventCount`] / [`Sequencer`] — Reed–Kanodia condition
//!   synchronization (`await` / `advance` / `ticket`);
//! * [`QsmBarrier`] — a reusable barrier whose round only ever advances
//!   (no reset races by construction);
//! * [`Mutex`] — an RAII mutex generic over any [`RawLock`], defaulting
//!   to QSM.
//!
//! Every waiter spins for what a park costs and then parks, in
//! `parking`'s process-global lot ([`parking::futex::global_lot`],
//! [`parking::futex::ParkingLot::spin`]): the one wait rule on real
//! threads.
//!
//! ## The baselines
//!
//! The locks the 1991 evaluation compares QSM against (TAS, TTAS, ticket,
//! Anderson, Graunke–Thakkar, CLH, MCS and their backoff variants) live in
//! `kernels::locks`. fig8 runs that registry on real threads.
//!
//! ## Verification
//!
//! [`EventCount`] and [`QsmBarrier`] are thin wrappers over
//! `service::protocol`'s steps, the code `interleave::corpus` checks
//! exhaustively. [`Qsm`]'s queue algorithm is checked, under sequential
//! consistency, on its `kernels` twin by the `interleave` crate
//! (`tests/lock_correctness_sweep.rs`); this crate's code is stressed on
//! real threads by its tests and `tests/realhw_stress.rs` (the QSM mutex
//! over a plain cell, the barrier, an eventcount/sequencer queue), which
//! CI's nightly ThreadSanitizer job re-runs to check the orderings as
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

pub mod barrier;
pub mod event;
pub mod mutex;
pub mod qsm;
pub mod raw;

pub use barrier::QsmBarrier;
pub use event::{EventCount, Sequencer};
pub use mutex::{Mutex, MutexGuard};
pub use parking::CachePadded;
pub use qsm::Qsm;
pub use raw::RawLock;

/// What every primitive in the crate is built on: `std`'s atomics and
/// yield, and the lot their waiters park in.
pub(crate) mod sync {
    pub(crate) use parking::futex::{addr_of, global_lot};
    pub(crate) use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
    pub(crate) use std::thread::yield_now;
}
