//! # syncmech — umbrella crate for the ICPP 1991 reproduction
//!
//! Re-exports every crate of the workspace so downstream users (and the
//! `examples/` and `tests/` at the repository root) can depend on one name.
//!
//! * [`qsm`] — the Queueing Synchronization Mechanism on std atomics
//!   (start here: `qsm::Mutex`, `qsm::QsmBarrier`, `qsm::EventCount`).
//! * [`memsim`] — the simulated 1991 bus/NUMA multiprocessor.
//! * [`kernels`] — the algorithms over the abstract memory API, QSM and
//!   every baseline, run on the simulator, the checker and real threads.
//! * [`interleave`] — the schedule-exploring model checker.
//! * [`workloads`] — the experiment drivers behind each figure.
//! * [`simcore`] — deterministic RNG, statistics, and table rendering.
//!
//! See README.md for the quickstart, DESIGN.md for the reconstruction's
//! scope and decisions, and EXPERIMENTS.md for paper-vs-measured results.

pub use interleave;
pub use kernels;
pub use memsim;
pub use qsm;
pub use simcore;
pub use workloads;
