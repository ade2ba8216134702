//! # kernels — synchronization algorithms over an abstract memory API
//!
//! Every algorithm in the reproduction — the paper's **QSM** mechanism and all
//! the 1991-era baselines — is written once against [`ProcCtx`], the
//! processor half of the `syncctx` crate's word-operation trait
//! ([`SyncCtx`], re-exported here with [`Addr`], [`Word`] and
//! [`LockEvent`]), and then runs unmodified on three substrates:
//!
//! * [`memsim`]'s simulated multiprocessor (performance: fig1–fig7), whose
//!   [`memsim::Proc`] implements the trait in `memsim`;
//! * the `interleave` crate's exhaustive model checker (correctness), which
//!   supplies its own context with a schedule-controlled memory;
//! * real OS threads over `SeqCst` atomics and a `parking` lot
//!   (`workloads::realhw::RealCtx`: fig8 and the differential harness).
//!
//! ## Inventory
//!
//! Locks ([`locks`]): test-and-set, test-and-set with exponential backoff,
//! test-and-test-and-set, ticket, ticket with proportional backoff, Anderson's
//! array lock, Graunke–Thakkar, CLH, MCS, and **QSM** — the reconstructed
//! "new synchronization mechanism". [`locks::InstrumentedLock`] wraps any of
//! them to report its acquisitions as [`LockEvent`]s (bypass accounting in
//! the checker, wait-time tracing in `workloads`).
//!
//! Barriers ([`barriers`]): central sense-reversing counter, software
//! combining tree, dissemination, tournament, MCS-style static tree, and the
//! **QSM barrier** built from the mechanism's grant words.
//!
//! The lock service's table ([`slots`]): its slot lifecycle, attach and
//! detach, on a direct-mapped array of simulated words.
//!
//! ## Memory discipline
//!
//! Shared variables are laid out by [`layout::Region`] at cache-line
//! granularity, exactly as the original algorithms demand (Anderson's slots,
//! MCS nodes and dissemination flags are all explicitly padded in the
//! literature). Watchpoint spinning in the simulator is word-granular, which
//! is equivalent to assuming those pads are respected.

pub mod barriers;
pub mod layout;
pub mod locks;
pub mod rwlock;
pub mod slots;
#[cfg(test)]
mod testutil;

pub use layout::Region;
pub use syncctx::{Addr, LockEvent, ProcCtx, SyncCtx, Waited, Word};
