//! The sharded lock-word table: millions of logical keys, a slot only for
//! the live ones.
//!
//! A slot is one `AtomicU64` the primitives treat as their futex word. Keys
//! map to shards by masking the low bits of [`mix64`]`(key)`; each shard is
//! a mutex-protected slab allocator — `key → slot` map, slot slabs at
//! stable addresses, and a free list — so the table's footprint tracks the
//! number of *currently attached* keys, not the key space. Attach/detach
//! are the only operations that take the shard mutex; the hot path (CAS on
//! the slot word, park, wake) never does.
//!
//! The lifecycle rule that makes recycling sound: **every parked waiter
//! holds a [`SlotRef`]**. A slot is freed only when its reference count
//! drops to zero, so no thread can be parked on (or about to park on) a
//! word that is being recycled. Wakes travel by pre-captured address
//! ([`ParkingLot::wake_addr`] never dereferences), so even a waker racing
//! the death of the last reference is sound — the worst a recycled address
//! can cause is a spurious wake of the slot's next tenant, which futex
//! discipline already tolerates. Each shard counts its reuses into
//! [`TableStats::reuses`], where the stress suite checks that a
//! million-key churn recycles a bounded slab population instead of growing
//! one slot per key.
//!
//! The table's lot is its **flight recorder**: unless telemetry is `off`,
//! the lot records every park, wake dequeue and resume into a small
//! [`trace::Tracer`] of its own — one ring of 64 events for each of up to
//! 64 live threads — whose newest events the stall watchdog prints.

use crate::telemetry::{MetricsMode, ServiceMetrics};
use parking::futex::{mix64, ParkingLot};
use parking::CachePadded;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use trace::Tracer;

/// Shard locking that shrugs off poisoning: every critical section here
/// leaves the shard consistent at every await-free step (the one panic —
/// kind mismatch — happens before any mutation), and a poisoned-mutex
/// panic inside `SlotRef::drop` during unwind would otherwise escalate to
/// an abort.
fn lock_shard(shard: &Mutex<ShardInner>) -> MutexGuard<'_, ShardInner> {
    shard.lock().unwrap_or_else(|e| e.into_inner())
}

/// Slots per slab allocation: one shard allocates this many words at a
/// time, at stable addresses (`Box<[AtomicU64; SLAB_SLOTS]>` never moves).
pub const SLAB_SLOTS: usize = 64;

/// Events the flight recorder keeps per thread.
const FLIGHT_EVENTS: usize = 64;

/// What a key's slot is being used as. A key is bound to one kind for the
/// lifetime of its slot; mixing primitives on one key is a caller bug the
/// table reports by panicking rather than by corrupting a wait protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// Per-key mutex word (0 free / 1 held / 2 held+waiters).
    Mutex,
    /// Per-key eventcount (monotone sequence number).
    Event,
    /// Per-key barrier (round counter high 32 bits, arrivals low 32).
    Barrier,
}

/// Map entry for an attached key. Reference counting happens entirely
/// under the shard mutex, so plain integers suffice.
struct Entry {
    slot: u32,
    refs: u32,
    kind: SlotKind,
}

#[derive(Default)]
struct ShardInner {
    map: HashMap<u64, Entry>,
    // The Box is load-bearing: waiters park on raw slot addresses, so
    // slabs must not move when the Vec reallocates. Slots are packed, not
    // padded: padding every mostly-idle word to a line would defeat the
    // point of slab-packing millions of them.
    #[allow(clippy::vec_box)]
    slabs: Vec<Box<[AtomicU64; SLAB_SLOTS]>>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
    reuses: u64,
}

impl ShardInner {
    /// Pops a free slot or grows a slab; returns the slot index.
    fn allocate(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.reuses += 1;
            return idx;
        }
        let base = (self.slabs.len() * SLAB_SLOTS) as u32;
        self.slabs
            .push(Box::new(std::array::from_fn(|_| AtomicU64::new(0))));
        // Newest slot first; the rest join the free list.
        for i in (1..SLAB_SLOTS as u32).rev() {
            self.free.push(base + i);
        }
        base
    }

    fn slot(&self, idx: u32) -> &AtomicU64 {
        &self.slabs[idx as usize / SLAB_SLOTS][idx as usize % SLAB_SLOTS]
    }
}

/// Aggregate occupancy counters for a [`ShardedTable`]; see
/// [`ShardedTable::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Shard count (power of two).
    pub shards: usize,
    /// Keys currently attached (live slots).
    pub live: usize,
    /// Sum of per-shard high-water marks — an upper bound on
    /// simultaneously live slots (shards peak at different times).
    pub peak_live: usize,
    /// Slots allocated across all slabs (live + free-listed).
    pub capacity: usize,
    /// Free-list recycles: how many attaches were served by a previously
    /// freed slot rather than fresh slab capacity.
    pub reuses: u64,
}

/// The sharded lock-word table. See the module docs for the design.
pub struct ShardedTable {
    shards: Box<[CachePadded<Mutex<ShardInner>>]>,
    mask: u64,
    /// Shared with the semaphores [`crate::LockService::semaphore`] builds.
    pub(crate) lot: Arc<ParkingLot>,
    metrics: Arc<ServiceMetrics>,
}

impl ShardedTable {
    /// A table with at least `shards` shards (rounded up to a power of
    /// two), an embedded parking lot sized to the shard count, and a fresh
    /// telemetry instance in the default `counters` mode.
    ///
    /// # Panics
    ///
    /// If `shards` is zero.
    pub fn new(shards: usize) -> Self {
        Self::with_metrics(
            shards,
            Arc::new(ServiceMetrics::new(MetricsMode::default())),
        )
    }

    /// [`ShardedTable::new`] with an explicit telemetry instance — the
    /// figure harness uses this to compare modes within one process, and
    /// callers can share one instance across tables. Unless the mode is
    /// `off`, the lot gets a flight recorder (see the module docs).
    pub fn with_metrics(shards: usize, metrics: Arc<ServiceMetrics>) -> Self {
        let recorder = (metrics.mode() != MetricsMode::Off)
            .then(|| Arc::new(Tracer::new(trace::THREAD_SLOTS, FLIGHT_EVENTS)));
        Self::with_tracer(shards, metrics, recorder)
    }

    /// [`ShardedTable::with_metrics`] with the lot recording into `tracer`
    /// instead of a flight recorder of its own.
    pub(crate) fn with_tracer(
        shards: usize,
        metrics: Arc<ServiceMetrics>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        assert!(shards > 0, "a sharded table needs at least one shard");
        let n = shards.next_power_of_two();
        ShardedTable {
            shards: (0..n)
                .map(|_| CachePadded::new(Mutex::new(ShardInner::default())))
                .collect(),
            mask: n as u64 - 1,
            lot: Arc::new(ParkingLot::with_tracer(n.clamp(64, 4096), tracer)),
            metrics,
        }
    }

    /// The telemetry instance slots of this table record into.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Shard count (always a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The parking lot this table's slots wait in.
    pub fn lot(&self) -> &ParkingLot {
        &self.lot
    }

    fn shard_index(&self, key: u64) -> usize {
        (mix64(key) & self.mask) as usize
    }

    /// The shard index `key` maps to. Exposed so multi-key acquirers can
    /// impose the table's canonical lock order (shard index, then key) and
    /// stay deadlock-free; see `AsyncLockService::lock_many`.
    pub fn shard_of(&self, key: u64) -> usize {
        self.shard_index(key)
    }

    /// Attaches to `key`'s slot, creating it if the key has no live slot,
    /// and returns a counted reference. The slot's word starts at 0 for a
    /// fresh or recycled slot and keeps its value across concurrent
    /// attaches.
    ///
    /// # Panics
    ///
    /// If the key is live with a different [`SlotKind`] — one key, one
    /// primitive.
    pub fn attach(&self, key: u64, kind: SlotKind) -> SlotRef<'_> {
        let shard_idx = self.shard_index(key);
        let mut inner = lock_shard(&self.shards[shard_idx]);
        let slot_idx = match inner.map.get_mut(&key) {
            Some(entry) => {
                assert!(
                    entry.kind == kind,
                    "key {key:#x} is live as a {:?} slot; cannot attach it as a {kind:?}",
                    entry.kind
                );
                entry.refs += 1;
                entry.slot
            }
            None => {
                let idx = inner.allocate();
                inner.map.insert(
                    key,
                    Entry {
                        slot: idx,
                        refs: 1,
                        kind,
                    },
                );
                inner.live += 1;
                inner.peak_live = inner.peak_live.max(inner.live);
                idx
            }
        };
        // The slab box never moves and the slot stays allocated while this
        // reference is live, so the address is stable for the ref's
        // lifetime.
        let word: *const AtomicU64 = inner.slot(slot_idx);
        drop(inner);
        SlotRef {
            table: self,
            shard: shard_idx,
            key,
            word,
        }
    }

    /// Drops one reference to `key`'s slot; the last drop resets the word
    /// and returns the slot to the shard's free list.
    fn detach(&self, shard: usize, key: u64) {
        let mut inner = lock_shard(&self.shards[shard]);
        let entry = inner
            .map
            .get_mut(&key)
            .expect("detach of a key with no live slot");
        entry.refs -= 1;
        if entry.refs == 0 {
            let idx = entry.slot;
            inner.map.remove(&key);
            inner.live -= 1;
            // Reset for the next tenant. No waiter can be parked here (a
            // parked waiter holds a reference), so a plain store suffices.
            inner.slot(idx).store(0, Ordering::SeqCst);
            inner.free.push(idx);
            self.metrics.count_slot_recycle(shard);
        }
    }

    /// Aggregates occupancy counters across shards. Exact only at
    /// quiescent points, like the futex totals.
    pub fn stats(&self) -> TableStats {
        let mut stats = TableStats {
            shards: self.shards.len(),
            live: 0,
            peak_live: 0,
            capacity: 0,
            reuses: 0,
        };
        for shard in self.shards.iter() {
            let inner = lock_shard(shard);
            stats.live += inner.live;
            stats.peak_live += inner.peak_live;
            stats.capacity += inner.slabs.len() * SLAB_SLOTS;
            stats.reuses += inner.reuses;
        }
        stats
    }
}

/// A counted reference to a key's slot: the word to synchronize on and the
/// table's embedded lot to wait in. Dropping the last reference recycles
/// the slot.
pub struct SlotRef<'a> {
    table: &'a ShardedTable,
    shard: usize,
    key: u64,
    word: *const AtomicU64,
}

// The raw pointer targets a slab slot the table keeps allocated while this
// reference is live; it is shared (&AtomicU64 semantics), never mutated
// through &self except via atomics.
unsafe impl Send for SlotRef<'_> {}
unsafe impl Sync for SlotRef<'_> {}

impl SlotRef<'_> {
    /// The slot's lock word.
    pub fn word(&self) -> &AtomicU64 {
        // SAFETY: the slot outlives this reference (see type docs) and the
        // slab box holding it never moves.
        unsafe { &*self.word }
    }

    /// The key this slot serves.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The shard index this slot lives in — also its telemetry stripe.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The telemetry instance of the owning table.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.table.metrics
    }

    /// The parking lot this slot's waiters park in — the word operations
    /// (`syncctx::SyncCtx`) the slow paths run on. A waker entry
    /// registered here ([`ParkingLot::register`]) does not pin the slot:
    /// the owning future keeps its `SlotRef` alive for as long as the entry
    /// exists, the same "every parked waiter holds a reference" rule
    /// threads follow.
    pub fn lot(&self) -> &ParkingLot {
        &self.table.lot
    }
}

impl Clone for SlotRef<'_> {
    fn clone(&self) -> Self {
        // Re-attach under the shard lock; the kind is already validated.
        let mut inner = lock_shard(&self.table.shards[self.shard]);
        inner
            .map
            .get_mut(&self.key)
            .expect("cloning a ref to a freed slot")
            .refs += 1;
        drop(inner);
        SlotRef {
            table: self.table,
            shard: self.shard,
            key: self.key,
            word: self.word,
        }
    }
}

impl Drop for SlotRef<'_> {
    fn drop(&mut self) {
        self.table.detach(self.shard, self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_get_distinct_words() {
        let table = ShardedTable::new(4);
        let a = table.attach(1, SlotKind::Mutex);
        let b = table.attach(2, SlotKind::Mutex);
        assert_ne!(a.word() as *const AtomicU64, b.word() as *const AtomicU64);
        a.word().store(7, Ordering::SeqCst);
        assert_eq!(b.word().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn same_key_shares_a_word_until_last_detach() {
        let table = ShardedTable::new(4);
        let a = table.attach(42, SlotKind::Event);
        a.word().store(9, Ordering::SeqCst);
        let b = table.attach(42, SlotKind::Event);
        assert_eq!(b.word().load(Ordering::SeqCst), 9);
        drop(a);
        // Still live through b.
        assert_eq!(b.word().load(Ordering::SeqCst), 9);
        drop(b);
        // Freed and reset: a fresh attach starts from zero.
        let c = table.attach(42, SlotKind::Mutex);
        assert_eq!(c.word().load(Ordering::SeqCst), 0);
    }

    #[test]
    fn clone_holds_the_slot_live() {
        let table = ShardedTable::new(1);
        let a = table.attach(5, SlotKind::Mutex);
        let b = a.clone();
        a.word().store(3, Ordering::SeqCst);
        drop(a);
        assert_eq!(b.word().load(Ordering::SeqCst), 3);
        assert_eq!(table.stats().live, 1);
        drop(b);
        assert_eq!(table.stats().live, 0);
    }

    #[test]
    #[should_panic(expected = "cannot attach it as a")]
    fn kind_mismatch_panics() {
        let table = ShardedTable::new(1);
        let _a = table.attach(7, SlotKind::Mutex);
        let _b = table.attach(7, SlotKind::Barrier);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedTable::new(0);
    }

    /// Every mode but `off` gives the lot a flight recorder of 64 rings of
    /// 64 events, the 4 096 the telemetry's own ring stripes held.
    #[test]
    fn the_lot_records_unless_metrics_are_off() {
        let table = |mode| ShardedTable::with_metrics(4, Arc::new(ServiceMetrics::new(mode)));
        assert!(table(MetricsMode::Off).lot().tracer().is_none());
        for mode in [MetricsMode::Counters, MetricsMode::Sampled(8)] {
            let table = table(mode);
            let tracer = table.lot().tracer().expect("a flight recorder");
            assert_eq!(tracer.nprocs() * tracer.capacity(), 4096);
        }
    }

    #[test]
    fn shard_count_rounds_up() {
        assert_eq!(ShardedTable::new(3).shards(), 4);
        assert_eq!(ShardedTable::new(256).shards(), 256);
    }

    /// A churn of many more keys than slots recycles the free list instead
    /// of growing capacity one slot per key.
    #[test]
    fn churned_keys_reuse_slots() {
        let table = ShardedTable::new(2);
        for key in 0..10_000u64 {
            let slot = table.attach(key, SlotKind::Mutex);
            slot.word().store(1, Ordering::SeqCst);
        }
        let stats = table.stats();
        assert_eq!(stats.live, 0);
        // Never more than one live slot at a time, so each shard holds at
        // most one slab.
        assert!(
            stats.capacity <= 2 * SLAB_SLOTS,
            "capacity grew to {} for sequential churn",
            stats.capacity
        );
        assert!(stats.reuses >= 10_000 - 2 * SLAB_SLOTS as u64);
    }

    /// Overlapping attachments force the table to grow past one slab and
    /// the stats to track the high-water mark.
    #[test]
    fn overlapping_keys_grow_capacity() {
        let table = ShardedTable::new(1);
        let held: Vec<SlotRef> = (0..200).map(|k| table.attach(k, SlotKind::Mutex)).collect();
        let stats = table.stats();
        assert_eq!(stats.live, 200);
        assert!(stats.peak_live >= 200);
        assert!(stats.capacity >= 200);
        drop(held);
        assert_eq!(table.stats().live, 0);
    }
}
