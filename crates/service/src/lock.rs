//! The service front end: per-key mutex, eventcount and barrier over a
//! [`ShardedTable`], and semaphores that park in its lot.
//!
//! Each primitive is a protocol over its slot word, written once in
//! [`crate::protocol`] and run here on the word itself with the table's
//! lot — the same code `interleave::corpus` checks exhaustively:
//!
//! - **Mutex** — the three-state futex lock (0 free, 1 held, 2 held with
//!   waiters). A request is [`protocol::keyed_lock`] on the key's shard
//!   (attach, then [`protocol::lock`]) and, at the guard's drop,
//!   [`protocol::keyed_unlock`] (unlock, then detach); telemetry is
//!   counted here from what they return, and only an acquisition that
//!   misses the fast path is timed. The uncontended path is one CAS
//!   ([`protocol::try_lock`]). A contender follows the
//!   competitive rule *spin for as long as blocking would cost*: it spins
//!   for [`parking::futex::ParkingLot::park_cost`] — the wake-to-running
//!   latency the table's lot **measures** on every real park, not a
//!   constant and not a knob — before it parks, and once more after a
//!   wake. Release wakes the *oldest* parked waiter with no hand-off, so a
//!   fresh arrival can barge ahead of the wakee: the usual futex-mutex
//!   throughput/fairness trade, not the paper's strict QSM queue (the
//!   QSM-faithful hand-off lock is `qsm::Qsm`).
//! - **Eventcount** — the word is a monotone sequence number;
//!   [`EventKey::advance`] bumps it and wakes every waiter, and
//!   [`EventKey::await_at_least`] spins once for the same budget and then
//!   parks until the count passes its target (wraparound-safe). Counts are
//!   *ephemeral*: they live only while some [`EventKey`] handle keeps the
//!   slot attached, which is why the API hands out a handle instead of
//!   taking bare keys.
//! - **Barrier** — arrivals in the low 32 bits, a round counter in the
//!   high 32; waiters wait for the *round* to change, which dodges the
//!   classic sense-reversal ABA. A barrier waiter still parks at once: the
//!   same spin is measured and waiting for the benchmark harness to admit
//!   it (ROADMAP item 4).
//!
//! The async futures run the same steps, with the waker-registering driver
//! [`protocol::poll_step`], which never spins.

use crate::protocol::{self, seq_ge, FREE};
use crate::semaphore::WaitingArraySemaphore;
use crate::table::{ShardedTable, SlotKind, SlotRef, TableStats};
use crate::telemetry::{MetricsMode, MetricsSnapshot, Primitive, ServiceMetrics};
use crate::DEFAULT_SHARDS;
use parking::futex::FutexTotals;
use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// The sharded per-key lock service. See the crate docs for the design.
pub struct LockService {
    table: ShardedTable,
}

impl Default for LockService {
    fn default() -> Self {
        Self::new()
    }
}

impl LockService {
    /// A service with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A service with an explicit shard count (rounded up to a power of
    /// two) and the default `counters` telemetry mode.
    ///
    /// # Panics
    ///
    /// If `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        LockService {
            table: ShardedTable::new(shards),
        }
    }

    /// [`LockService::with_shards`] with an explicit telemetry mode.
    pub fn with_metrics_mode(shards: usize, mode: MetricsMode) -> Self {
        LockService {
            table: ShardedTable::with_metrics(shards, Arc::new(ServiceMetrics::new(mode))),
        }
    }

    /// [`LockService::with_metrics_mode`] whose table's lot records its
    /// parks, wakes and resumes into `tracer` — in place of the flight
    /// recorder, which the stall watchdog then reads from `tracer` — and
    /// into no other lot's. `tests/service_metrics.rs` holds such a
    /// tracer's totals to the lot's ledger after a contended run.
    pub fn with_tracer(shards: usize, mode: MetricsMode, tracer: Arc<Tracer>) -> Self {
        let metrics = Arc::new(ServiceMetrics::new(mode));
        LockService {
            table: ShardedTable::with_tracer(shards, metrics, Some(tracer)),
        }
    }

    /// The backing table, for occupancy checks.
    pub fn stats(&self) -> TableStats {
        self.table.stats()
    }

    /// The telemetry instance this service records into.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        self.table.metrics()
    }

    /// A [`MetricsSnapshot`] with the table occupancy, the lot-local
    /// futex ledger and the lot's calibrated spin budget filled in — the
    /// full export surface.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.table.metrics().snapshot();
        snap.table = Some(self.table.stats());
        snap.futex = Some(self.table.lot().totals());
        snap.park_cost_ns = Some(self.table.lot().park_cost().as_nanos() as u64);
        snap
    }

    /// This service's lot-local futex ledger (parks/wakes/resumes of the
    /// table's embedded lot only — unrelated lots in the process don't
    /// show up here).
    pub fn futex_totals(&self) -> FutexTotals {
        self.table.lot().totals()
    }

    /// A semaphore with `permits` initial permits and a waiting array of
    /// at least `slots` slots (rounded up to a power of two), parking in
    /// this service's lot and recording into its metrics. The array
    /// bounds *slot sharing*, not waiter count: more waiters than slots
    /// simply share slots, and since a grant wakes the waiter that parked
    /// with its ticket (see [`crate::semaphore`]), sharing costs the
    /// sharers nothing — no lost wake and no spurious one.
    ///
    /// # Panics
    ///
    /// If `slots` is zero, or `permits` exceeds `i64::MAX`.
    pub fn semaphore(&self, permits: usize, slots: usize) -> WaitingArraySemaphore {
        let (lot, metrics) = (Arc::clone(&self.table.lot), Arc::clone(self.metrics()));
        WaitingArraySemaphore::build(permits, slots, 0, lot, metrics)
    }

    /// The backing table itself — the async front end attaches its slots
    /// here so sync and async callers share one waiter population per key.
    pub(crate) fn table(&self) -> &ShardedTable {
        &self.table
    }

    /// Acquires the mutex for `key`, blocking (spin-then-park) while a
    /// holder is live. Parked waiters are woken oldest-first, though a
    /// concurrent fast-path acquirer can barge ahead of a woken waiter
    /// (see the module docs).
    pub fn lock(&self, key: u64) -> KeyGuard<'_> {
        let shard = self.table.key_shard(key, SlotKind::Mutex);
        let (word, contended) = protocol::keyed_lock(&mut shard.lot(), &shard, key, || {
            self.metrics().wait_timer(shard.index())
        });
        let slot = shard.slot(key, word);
        let Some((started, how)) = contended else {
            slot.metrics().count_acquire(slot.shard(), true, false);
            return KeyGuard::acquired(slot, Primitive::Mutex, None);
        };
        let metrics = slot.metrics();
        metrics.count_cas_retries(slot.shard(), how.cas_retries);
        metrics.count_acquire(slot.shard(), false, how.parked);
        if how.respun {
            metrics.count_respin_win(slot.shard());
        }
        KeyGuard::acquired(slot, Primitive::Mutex, started)
    }

    /// Acquires the mutex for `key` iff it is free right now.
    pub fn try_lock(&self, key: u64) -> Option<KeyGuard<'_>> {
        let slot = self.table.attach(key, SlotKind::Mutex);
        if !protocol::try_lock(&mut slot.lot(), slot.word()) {
            return None;
        }
        slot.metrics().count_acquire(slot.shard(), true, false);
        Some(KeyGuard::acquired(slot, Primitive::Mutex, None))
    }

    /// A handle to `key`'s eventcount. The count starts at 0 when the
    /// first handle attaches and persists only while at least one handle
    /// (or parked waiter) is live.
    pub fn eventcount(&self, key: u64) -> EventKey<'_> {
        EventKey {
            slot: self.table.attach(key, SlotKind::Event),
        }
    }

    /// Waits at the barrier for `key` until `parties` threads have
    /// arrived; returns `true` on exactly one of them (the last arrival,
    /// which released the round). The barrier is reusable: the next
    /// `parties` arrivals form the next round.
    ///
    /// # Panics
    ///
    /// If `parties` is zero, or more than `parties` threads arrive in one
    /// round (callers disagreeing on `parties`).
    pub fn barrier_wait(&self, key: u64, parties: u32) -> bool {
        let slot = self.table.attach(key, SlotKind::Barrier);
        let Some(round) = protocol::barrier_arrive(&mut slot.lot(), slot.word(), parties) else {
            return true;
        };
        let started = slot.metrics().wait_timer(slot.shard());
        protocol::barrier_wait(&mut slot.lot(), slot.word(), round);
        slot.metrics().record_wait(Primitive::Barrier, started);
        false
    }
}

/// Holds the per-key mutex; released (and the slot reference dropped) on
/// drop, by [`protocol::keyed_unlock`].
pub struct KeyGuard<'a> {
    slot: ManuallyDrop<SlotRef<'a>>,
    /// Sampled hold-timing start, recorded on release.
    hold: Option<Instant>,
}

impl<'a> KeyGuard<'a> {
    /// Finishes an acquisition by `how` (the blocking or the async mutex):
    /// records the sampled wait (if `started`), and maybe starts a sampled
    /// hold measurement.
    pub(crate) fn acquired(slot: SlotRef<'a>, how: Primitive, started: Option<Instant>) -> Self {
        debug_assert!(slot.word().load(Ordering::SeqCst) != FREE);
        let metrics = slot.metrics();
        metrics.record_wait(how, started);
        let hold = metrics.wait_timer(slot.shard());
        KeyGuard {
            slot: ManuallyDrop::new(slot),
            hold,
        }
    }

    /// The key this guard locks.
    pub fn key(&self) -> u64 {
        self.slot.key()
    }
}

impl Drop for KeyGuard<'_> {
    fn drop(&mut self) {
        self.slot.metrics().record_hold(self.hold.take());
        SlotRef::keyed_unlock(&self.slot);
    }
}

/// A handle to one key's eventcount; see [`LockService::eventcount`].
#[derive(Clone)]
pub struct EventKey<'a> {
    slot: SlotRef<'a>,
}

impl<'a> EventKey<'a> {
    /// The slot behind this handle, for the async wait future.
    pub(crate) fn slot(&self) -> &SlotRef<'a> {
        &self.slot
    }

    /// The current count.
    pub fn read(&self) -> u64 {
        self.slot.word().load(Ordering::SeqCst)
    }

    /// Bumps the count and wakes every waiter; returns the new count.
    pub fn advance(&self) -> u64 {
        protocol::advance(&mut self.slot.lot(), self.slot.word())
    }

    /// Waits until the count reaches at least `target` (wraparound-safe),
    /// returning the count observed: on the CPU for as long as a park in
    /// the table's lot costs ([`parking::futex::ParkingLot::park_cost`]),
    /// parked from then on ([`protocol::await_at_least`]).
    /// An `advance` a cache miss away is thus taken without leaving the
    /// processor, and one that is not costs at most twice what parking at
    /// once would have.
    pub fn await_at_least(&self, target: u64) -> u64 {
        let cur = self.read();
        if seq_ge(cur, target) {
            return cur;
        }
        let started = self.slot.metrics().wait_timer(self.slot.shard());
        let cur = protocol::await_at_least(&mut self.slot.lot(), self.slot.word(), target);
        self.slot
            .metrics()
            .record_wait(Primitive::EventCount, started);
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn uncontended_lock_round_trip() {
        let svc = LockService::with_shards(4);
        {
            let _g = svc.lock(7);
            assert!(svc.try_lock(7).is_none());
            // A different key is independent.
            assert!(svc.try_lock(8).is_some());
        }
        assert!(svc.try_lock(7).is_some());
        // All guards dropped: the table is empty again.
        assert_eq!(svc.stats().live, 0);
    }

    /// The mutex request's telemetry, exactly: an acquisition won by the
    /// first CAS is counted fast and never timed as a wait, every hold is
    /// timed, and the last detach of a key recycles its slot. One
    /// acquisition that misses the fast path is timed once. The holder
    /// waits for the victim's park with no time bound, so a slow host only
    /// makes it slower.
    #[test]
    fn the_mutex_request_counts_fast_paths_waits_holds_and_recycles() {
        const N: u64 = 64;
        let svc = LockService::with_metrics_mode(8, MetricsMode::Sampled(1));
        for key in 0..N {
            drop(svc.lock(key));
        }
        let snap = svc.metrics_snapshot();
        let mutex_waits = |s: &MetricsSnapshot| s.wait_of(Primitive::Mutex).count();
        assert_eq!(snap.fast_path, N);
        assert_eq!(mutex_waits(&snap), 0, "a fast-path acquisition was timed");
        assert_eq!(snap.hold_mutex.count(), N);
        assert_eq!(snap.slot_recycles, N);

        let parks_before = svc.futex_totals().parks;
        let guard = svc.lock(N);
        thread::scope(|s| {
            s.spawn(|| drop(svc.lock(N)));
            while svc.futex_totals().parks == parks_before {
                thread::yield_now();
            }
            drop(guard);
        });
        let snap = svc.metrics_snapshot();
        assert_eq!(mutex_waits(&snap), 1, "the contended acquisition's wait");
        assert_eq!(snap.acquires, N + 2);
        assert_eq!(snap.fast_path, N + 1);
        assert_eq!(snap.slot_recycles, N + 1, "the holder's detach recycled");
    }

    #[test]
    fn contended_lock_is_mutually_exclusive() {
        let svc = Arc::new(LockService::with_shards(8));
        // One non-atomic-style counter per key: a racy read-yield-write
        // that only a correct per-key mutex keeps exact.
        let counters: Arc<Vec<AtomicUsize>> =
            Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
        let threads: usize = 8;
        let iters: usize = 500;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let counters = Arc::clone(&counters);
                thread::spawn(move || {
                    for i in 0..iters {
                        let key = i % 3;
                        let _g = svc.lock(key as u64);
                        let v = counters[key].load(Ordering::SeqCst);
                        thread::yield_now();
                        counters[key].store(v + 1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = counters.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        assert_eq!(total, threads * iters);
        assert_eq!(svc.stats().live, 0);
    }

    #[test]
    fn eventcount_advance_releases_waiters() {
        let svc = Arc::new(LockService::with_shards(4));
        let ec = svc.eventcount(99);
        assert_eq!(ec.read(), 0);
        let waiter = {
            let svc = Arc::clone(&svc);
            thread::spawn(move || svc.eventcount(99).await_at_least(3))
        };
        for _ in 0..3 {
            ec.advance();
        }
        assert_eq!(waiter.join().unwrap(), 3);
        assert_eq!(ec.read(), 3);
    }

    #[test]
    fn eventcount_resets_when_all_handles_drop() {
        let svc = LockService::with_shards(4);
        {
            let ec = svc.eventcount(5);
            ec.advance();
            ec.advance();
            assert_eq!(ec.read(), 2);
            let ec2 = ec.clone();
            drop(ec);
            assert_eq!(ec2.read(), 2);
        }
        // Slot recycled: a fresh handle starts from zero.
        assert_eq!(svc.eventcount(5).read(), 0);
    }

    /// Each round spawns fresh parties, so the key's slot is recycled
    /// between rounds; within a round they pass the barrier phase after
    /// phase, bumping the phase's cell before they wait, so a party let
    /// through before its phase completed reads that cell short. Every
    /// phase has exactly one leader: a single party never waits and leads
    /// them all.
    #[test]
    fn barrier_releases_all_parties_with_one_leader() {
        const PHASES: usize = 8;
        let svc = LockService::with_shards(4);
        for parties in [1, 6] {
            for _round in 0..4 {
                let arrived: Vec<AtomicUsize> = (0..PHASES).map(|_| AtomicUsize::new(0)).collect();
                let leaders: Vec<AtomicUsize> = (0..PHASES).map(|_| AtomicUsize::new(0)).collect();
                thread::scope(|s| {
                    for _ in 0..parties {
                        s.spawn(|| {
                            for (cell, leader) in arrived.iter().zip(&leaders) {
                                cell.fetch_add(1, Ordering::SeqCst);
                                if svc.barrier_wait(1234, parties as u32) {
                                    leader.fetch_add(1, Ordering::SeqCst);
                                }
                                assert_eq!(
                                    cell.load(Ordering::SeqCst),
                                    parties,
                                    "crossed the barrier before the phase completed"
                                );
                            }
                        });
                    }
                });
                assert!(leaders.iter().all(|l| l.load(Ordering::SeqCst) == 1));
            }
        }
        assert_eq!(svc.stats().live, 0);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn barrier_of_no_parties_panics() {
        LockService::with_shards(1).barrier_wait(7, 0);
    }

    #[test]
    #[should_panic(expected = "cannot attach it as a")]
    fn mixing_primitives_on_one_key_panics() {
        let svc = LockService::with_shards(1);
        let _g = svc.lock(7);
        let _e = svc.eventcount(7);
    }
}
