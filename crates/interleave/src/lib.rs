//! # interleave — exhaustive interleaving checking for synchronization kernels
//!
//! The 1991 paper argues its mechanism correct informally. This crate does
//! what the era could not: it **model-checks** the same kernel code that the
//! simulator measures. A [`Program`] (N threads over a small sequentially
//! consistent shared memory) is executed repeatedly under every schedule a
//! depth-first explorer can reach, replaying recorded prefixes and branching
//! at each step ([`Explorer`]).
//!
//! * Every shared-memory operation is a *schedule point*; between points a
//!   thread runs uninstrumented local code.
//! * A program's threads are not host threads. Each is a stackful coroutine
//!   ([`simcore::coro`]) on the one host thread running the search, and a
//!   schedule point is a switch to the scheduler loop and back. In
//!   exchange a body must not block the host thread on another body's
//!   progress, hold a `RefCell` borrow across an operation, or use more
//!   than 256 KiB of stack ([`Program::new`] has the details). `coro` is
//!   x86_64-Linux-only, and so is this crate.
//! * `spin_while` / `spin_until` **block**: a blocked thread is not
//!   schedulable until a write makes its predicate true, and when scheduled
//!   it re-checks (wake-up then re-check, as on real hardware).
//! * If no thread is schedulable and someone is blocked, the explorer
//!   reports a **deadlock with the exact schedule** that produced it. A
//!   lock-order inversion (AB/BA nesting) is found this way too: the search
//!   runs the interleaving in which each thread holds its first lock.
//! * Assertions inside the program (or a final-state invariant) failing
//!   likewise surface with their schedule. Every failure kind is one
//!   variant of [`Failure`], carried by [`Verdict::Failed`].
//!
//! Exhaustive exploration explodes combinatorially, so the explorer supports
//! **preemption bounding** (Musuvathi & Qadeer): only schedules with at most
//! `k` involuntary context switches are explored. Almost all synchronization
//! bugs manifest with two or fewer preemptions, which keeps checking every
//! lock in the suite tractable. **Dynamic partial-order reduction**
//! ([`DporMode`]) prunes schedules that merely reorder independent steps
//! of one already explored: sleep sets (Godefroid) cut the obvious
//! repeats, and the default source-set mode (Abdulla et al.) inverts the
//! search — branching only where a run's vector clocks prove a
//! reversible race — for order-of-magnitude run
//! reductions at identical coverage ([`Stats::sleep_pruned`] and
//! [`Stats::dpor_pruned`] count the cuts).
//! Where even bounded search stops scaling, the [`fuzz`] module *samples*
//! instead: seeded uniform-random and PCT schedules ([`Fuzzer`]) through
//! the same scheduler loop, with greedy schedule shrinking
//! ([`fuzz::shrink_schedule`]) so a fuzz failure debugs like an
//! exhaustive one.
//!
//! On top of exploration sits an **analysis layer**:
//!
//! * **Vector-clock race detection** ([`race`], FastTrack-style epochs):
//!   `SyncCtx` sync operations carry happens-before; the harness's
//!   critical-section counters and barrier stamps are *data* accesses
//!   ([`ChkCtx::data_load`](kernels::ProcCtx::data_load) /
//!   `data_store`) that must be ordered by them. Two concurrent data
//!   accesses surface as [`Failure::Race`] with both sites and the
//!   reproducing schedule — even when the final state happens to be right.
//! * **Bounded-bypass checking** ([`Explorer::with_bypass_bound`]): a
//!   waiter bypassed more than `k` times while demonstrably waiting is
//!   reported as [`Failure::Starvation`]. FIFO queue locks pass any bound;
//!   test-and-set retry locks fail every bound.
//! * **Deterministic replay** ([`Explorer::replay`], also the
//!   `interleave` binary): re-executes a recorded schedule with a
//!   per-operation narration for debugging a reported violation.
//!
//! This crate deliberately models sequential consistency, which is what
//! the simulated 1991 machines provide. The weak orderings of the
//! *real-hardware* primitives (`qsm`, `parking`, `service`) are outside it:
//! those crates are stressed on real threads and under ThreadSanitizer, and
//! `service`'s protocols are checked here as shipped: its slow paths are
//! generic over the word-operation trait [`kernels::SyncCtx`], which
//! [`ChkCtx`] implements on this crate's memory (and [`corpus::Chk`], the
//! seeded bugs, rewrites one operation of).
//!
//! ```
//! use interleave::{Explorer, Program};
//! use kernels::{ProcCtx, SyncCtx};
//!
//! // Two threads increment a counter with plain load/store: a lost update
//! // exists under some interleaving, and the explorer finds it.
//! let program = Program::new(2, 1, |ctx| {
//!     let v = ctx.load(0);
//!     ctx.store(0, v + 1);
//! });
//! let verdict = Explorer::exhaustive().check(&program, |mem| {
//!     if mem[0] == 2 { Ok(()) } else { Err(format!("lost update: {}", mem[0])) }
//! });
//! assert!(verdict.is_violation());
//! ```

pub mod corpus;
pub mod explorer;
pub mod fuzz;
pub mod harness;
pub mod program;
pub mod race;

pub use corpus::{CorpusEntry, VerdictClass};
pub use explorer::{DporMode, Explorer, Failure, Replay, ReplayEnd, Stats, Verdict};
pub use fuzz::{FuzzReport, Fuzzer, Shrunk, Strategy};
pub use program::{ChkCtx, OpKind, OpRecord, Program, StarvationReport};
pub use race::{AccessSite, Epoch, RaceReport, VectorClock};
