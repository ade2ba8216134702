//! # memsim — a simulated 1991-class shared-memory multiprocessor
//!
//! The evaluation of *"A New Synchronization Mechanism"* (ICPP 1991) was run on
//! hardware of its day: a bus-based cache-coherent multiprocessor (Sequent
//! Symmetry class) and a distributed-memory NUMA machine (BBN Butterfly class).
//! Neither is at hand, and a modern multicore neither serializes its
//! interconnect like a 1991 bus nor counts its coherence traffic, so this
//! crate provides the substitute substrate: a deterministic discrete-event
//! simulator that models exactly the quantities those papers measured:
//!
//! * **per-processor caches** with a write-invalidate MSI protocol
//!   ([`coherence`]) — unbounded: a line leaves a cache only when another
//!   processor's write invalidates it,
//! * a **shared bus** with FIFO arbitration, or a **NUMA interconnect** with
//!   per-node memory modules and hop latency ([`interconnect`]),
//! * **atomic read-modify-write** operations that obey the same ownership
//!   rules real coherence protocols impose ([`engine`]),
//! * full **traffic accounting** — hits, misses, upgrades, invalidations and
//!   interconnect transactions ([`metrics`]).
//!
//! ## Programming model
//!
//! A *processor program* is an ordinary Rust closure receiving a [`Proc`]
//! handle, which implements `syncctx`'s [`SyncCtx`](syncctx::SyncCtx) and
//! [`ProcCtx`](syncctx::ProcCtx): `load` / `store` / `swap` / `cas` /
//! `fetch_add` / `test_and_set` / `spin_while` / `wait` / `wake` / `delay`
//! operations on a word-addressed shared memory. Each simulated processor's closure runs as a stackful
//! coroutine ([`simcore::coro`]) on the host thread that called
//! [`Machine::run`], and the engine fully serializes execution — at most one
//! processor advances between memory events, ties broken by
//! `(issue time, pid)` — so every run is **bit-for-bit deterministic**. A run spawns no thread; the
//! [`Proc`] docs state the three things a closure may not do in exchange.
//!
//! ```
//! use memsim::{Machine, MachineParams};
//! use syncctx::SyncCtx;
//!
//! // Two processors atomically increment a shared counter 100 times each.
//! let machine = Machine::new(MachineParams::bus_1991(2));
//! let report = machine
//!     .run(2, 1, |p| {
//!         for _ in 0..100 {
//!             p.fetch_add(0, 1);
//!         }
//!     })
//!     .unwrap();
//! assert_eq!(report.memory[0], 200);
//! assert!(report.metrics.total_cycles > 0);
//! ```
//!
//! ## Why local spinning is a first-class operation
//!
//! `spin_while` registers a *watchpoint*: the spinner is charged one
//! initial probe, then sleeps until an invalidation actually touches the
//! watched word, at which point it pays the re-probe (a real coherence miss).
//! This is both how 1991 hardware behaved (spinning on a cached copy is free
//! until the line is invalidated) and what keeps simulation cost proportional
//! to coherence events rather than spin iterations.
//!
//! ## Blocking and oversubscription
//!
//! `wait` / `wake` are word-sized blocking
//! primitives with the Linux-futex contract: the wait parks only if the word
//! still holds the expected value (checked atomically inside the engine), and
//! a wake costs the waker a modeled remote write per wakee. Setting
//! [`MachineParams::sched`] to a [`SchedParams`] multiplexes P logical
//! processors onto fewer cores with round-robin quanta — the oversubscribed
//! regime where spinning burns whole scheduling quanta but a parked processor
//! yields its core immediately. A run in which every live processor is parked
//! with no waker left terminates with [`SimError::LostWakeup`].

pub mod coherence;
pub mod engine;
pub mod interconnect;
pub mod machine;
pub mod metrics;
pub mod params;
pub mod pool;
pub mod proc;
pub mod replay;

pub use machine::{Machine, RunReport};
pub use metrics::{Metrics, ProcMetrics};
pub use params::{MachineParams, SchedParams, Topology};
pub use pool::{pool_stats, PoolStats};
pub use proc::Proc;
pub use replay::{FragmentReplayer, Recording};

pub use syncctx::{Addr, Word};

/// Errors terminating a simulation early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Every live processor is blocked in `spin_while` and no writer remains:
    /// the synchronization algorithm under test has deadlocked.
    Deadlock {
        /// Processors stuck in a watchpoint, with the address and the value
        /// they are waiting to see change.
        waiting: Vec<(usize, Addr, Word)>,
    },
    /// Simulated time exceeded [`params::MachineParams::max_cycles`]; the
    /// algorithm under test is livelocked or the experiment is simply too long.
    TimeLimit {
        /// The configured limit that was exceeded.
        limit: u64,
    },
    /// A processor accessed a word outside the shared memory.
    Fault {
        /// The faulting processor.
        pid: usize,
        /// The out-of-bounds word address.
        addr: Addr,
    },
    /// Every live processor is parked in `wait` and nobody is left to
    /// wake them — the classic lost-wakeup bug (a waker that changed the word
    /// without issuing a wake, or woke before the sleeper parked without the
    /// atomic re-check the futex protocol exists to provide).
    LostWakeup {
        /// Parked processors with the futex word each sleeps on and the value
        /// it observed when it parked.
        parked: Vec<(usize, Addr, Word)>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { waiting } => {
                write!(f, "simulated deadlock; waiting processors: ")?;
                for (pid, addr, val) in waiting {
                    write!(f, "[p{pid} spins while mem[{addr}]=={val}] ")?;
                }
                Ok(())
            }
            SimError::TimeLimit { limit } => {
                write!(f, "simulated time exceeded the {limit}-cycle limit")
            }
            SimError::Fault { pid, addr } => {
                write!(f, "processor {pid} accessed out-of-bounds word {addr}")
            }
            SimError::LostWakeup { parked } => {
                write!(f, "lost wakeup; parked processors: ")?;
                for (pid, addr, val) in parked {
                    write!(f, "[p{pid} parked on mem[{addr}]=={val}] ")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}
