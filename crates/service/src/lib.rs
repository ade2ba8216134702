//! A sharded lock **service**: blocking primitives — a barging futex mutex,
//! an eventcount, a barrier and a semaphore — keyed by arbitrary `u64`
//! keys.
//!
//! Everything else in the repo synchronizes on a handful of static lock
//! words. A server does not: it guards *millions* of logical resources —
//! rows, sessions, cache entries — each wanting its own mutex, eventcount
//! or barrier, almost all of them idle at any instant. Allocating a word
//! per key up front is a non-starter at that scale, and funnelling every
//! key through one lock is the contention collapse the 1991 paper measures.
//! This crate takes the middle path:
//!
//! - [`table::ShardedTable`] — a power-of-two array of cache-line-padded
//!   shards, each a slab allocator of lock-word slots with a free list. A
//!   key's slot exists only while somebody holds a reference to it (a
//!   guard, a parked waiter, an eventcount handle); detaching the last
//!   reference recycles the slot. Keys hash to shards
//!   with the full-avalanche [`parking::futex::mix64`], and each table
//!   embeds its own [`parking::futex::ParkingLot`] sized to the waiter
//!   population, not the key population.
//! - [`lock::LockService`] — the front end: per-key mutex
//!   ([`lock::LockService::lock`]), per-key eventcount
//!   (`advance`/`await_at_least` with wraparound-safe sequencing), and a
//!   per-key sense-free barrier (round counter + arrival count packed in
//!   one word, immune to the classic two-round sense ABA). A thread waiting
//!   for the mutex or the eventcount stays on the CPU for what a park in
//!   the table's lot is measured to cost and sleeps only past that
//!   ([`parking::futex::ParkingLot::spin`]); the barrier's waiters still
//!   park at once.
//! - [`protocol`] — every slow path above and the semaphore's, written once
//!   over a small word-operations trait, each wait one step that a thread
//!   and a future drive alike. The service runs it on atomics and its
//!   parking lot; the `interleave` checker runs the same functions on its
//!   own memory, so the protocols are checked as shipped; so is the QSM
//!   queue lock that `qsm::Qsm` and the `kernels` QSM kernel run.
//! - [`semaphore::WaitingArraySemaphore`] — a counting semaphore per Dice &
//!   Kogan's *Semaphores Augmented with a Waiting Array*: a permits counter
//!   plus enqueue/dequeue tickets indexing a small slot array where each
//!   grant is *published* as a sequence number, so releasers never scan
//!   waiter lists, and a release wakes the granted ticket and none of the
//!   tickets that share its slot
//!   ([`parking::futex::ParkingLot::wake_tagged`], a batch in one sweep).
//!   [`lock::LockService::semaphore`] builds one that parks in the table's
//!   lot and records into the service's metrics, so a service has one lot,
//!   one ledger, one flight recorder and one park-cost estimate.
//! - [`async_lock::AsyncLockService`] — the async-native front end:
//!   futures (`lock`, `lock_many`, eventcount and barrier waits, the
//!   semaphore's `acquire_async`) over the *same* table and slot words,
//!   sharing the parking lot's FIFO queues with blocking threads. Dropping
//!   a future mid-wait is cancellation, and the drop runs the protocol's
//!   repair — baton pass, ticket restore, un-arrive — so
//!   `parks == wakes == resumes` spans both worlds.
//!
//! The load generator that drives this crate lives in
//! `workloads::service_load`; the figures it feeds (`fig11`, `table6`,
//! `fig12`, `table7`) are registered in `bench::figures`. Live telemetry —
//! per-shard counters, sampled latency histograms, the stall watchdog and
//! the one JSON snapshot export — lives in [`telemetry`]; the flight
//! recorder the watchdog prints is the table lot's own `trace::Tracer`
//! ([`table`]).
//!
//! ## Configuration
//!
//! Nothing in this crate reads the environment. [`LockService::new`] and
//! [`LockService::with_shards`] mean [`DEFAULT_SHARDS`] and
//! [`MetricsMode::Counters`]; a caller that wants another telemetry mode
//! (table7 runs all three) passes it to [`LockService::with_metrics_mode`].

pub mod async_lock;
pub mod lock;
pub mod protocol;
pub mod semaphore;
pub mod table;
pub mod telemetry;

pub use async_lock::{
    block_on, AsyncLockService, BarrierFuture, EventWaitFuture, LockFuture, LockManyFuture,
    MultiGuard,
};
pub use lock::{EventKey, KeyGuard, LockService};
pub use semaphore::{AcquireFuture, WaitingArraySemaphore};
pub use table::{ShardedTable, SlotKind, SlotRef, TableStats};
pub use telemetry::{MetricsMode, MetricsSnapshot, ServiceMetrics, StallWatchdog};

/// Default shard count for a [`LockService`]: enough that 64 threads
/// hashing random keys rarely contend a shard mutex, small enough to be
/// cheap.
pub const DEFAULT_SHARDS: usize = 256;
