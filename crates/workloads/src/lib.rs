//! # workloads — experiment drivers for the syncmech evaluation
//!
//! Each module drives one experiment family from DESIGN.md's per-experiment
//! index, shared between the `bench` figure binaries, the integration
//! tests, and the examples:
//!
//! * [`csbench`] — the critical-section microbenchmark behind table1,
//!   fig1–fig4 and fig7: P processors repeatedly acquire a lock, hold it
//!   for a configurable time, release, and "think".
//! * [`fairness`] — the acquisition-order workload behind table2: a full
//!   hand-off log from which service distributions are computed.
//! * [`barrierbench`] — barrier episode timing behind fig5/fig6.
//! * [`sweeps`] — parameter sweeps assembling [`simcore::Series`] for each
//!   figure.
//! * [`oversub`] — the oversubscribed (threads > cores) spin-vs-block
//!   comparison behind fig9 and table4, run on the scheduled simulator.
//! * [`realhw`] — the real-hardware (std thread) harness behind fig8:
//!   [`realhw::RealCtx`], the `SyncCtx` that runs the `kernels` algorithms
//!   on OS threads, and the lock registry timed on it.
//! * [`differential`] — the cross-backend differential harness: the same
//!   lock workload on the interleave fuzzer, both simulator machines, and
//!   real threads, with the outcomes compared.
//! * [`waitdist`] — the traced wait/hold-time distribution workload behind
//!   table5 and fig10, built on the `trace` crate's event recorder.
//! * [`service_load`] — the sharded lock-service load generator behind
//!   fig11 and table6: a deterministic discrete-event queueing model of
//!   per-key lock policies (the figure input), and the async driver
//!   behind fig12 running the same request schedule through
//!   `service::AsyncLockService` futures.
//! * [`executor`] — the deterministic single-threaded virtual-clock
//!   executor the async driver (and the `lock_many` ordering tests) run
//!   on: FIFO polling, priced futex wakes, and deadlocks reported as
//!   stalls instead of hangs.

pub mod barrierbench;
pub mod csbench;
pub mod differential;
pub mod executor;
pub mod fairness;
pub mod oversub;
pub mod realhw;
pub mod rwbench;
pub mod service_load;
pub mod sweeps;
pub mod waitdist;
