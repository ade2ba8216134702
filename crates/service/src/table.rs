//! The sharded lock-word table: millions of logical keys, a slot only for
//! the live ones.
//!
//! A slot is one `AtomicU64` the primitives treat as their futex word. Keys
//! map to shards by masking the low bits of [`mix64`]`(key)`; each shard is
//! a mutex-protected slab allocator — `key → slot` map, slot slabs at
//! stable addresses, a reference count per slot and a free list — so the
//! table's footprint tracks the number of *currently attached* keys, not
//! the key space. Attach/detach are the only operations that take the shard
//! mutex; the hot path (CAS on the slot word, park, wake) never does.
//!
//! The lifecycle is written once, in `service::protocol`:
//! [`protocol::slot_attach`] and [`protocol::slot_detach`] run on a shard
//! as a [`protocol::SlotMap`], the steps the checker and memsim run on the
//! `kernels` slot array. `attach`, a [`SlotRef`]'s clone (the steps'
//! existing-entry arm) and its drop are those two steps. A mutex guard's
//! reference is counted inside [`protocol::keyed_lock`] and dropped inside
//! [`protocol::keyed_unlock`] instead, and its own drop never runs. The
//! steps keep the rule that makes recycling sound: **every parked waiter
//! holds a reference**, and only the last reference resets the word and
//! frees the slot, so no thread can be parked on (or about to park on) a
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

use crate::protocol::{self, SlotMap};
use crate::telemetry::{MetricsMode, ServiceMetrics};
use parking::futex::{mix64, ParkingLot};
use parking::CachePadded;
use std::collections::HashMap;
use std::mem::ManuallyDrop;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use trace::Tracer;

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

/// One shard's state, all of it under the shard mutex, so plain integers
/// suffice.
#[derive(Default)]
pub(crate) struct ShardInner {
    /// Each live key's slot, and the kind it is live as.
    map: HashMap<u64, (u32, SlotKind)>,
    // The Box is load-bearing: waiters park on raw slot addresses, so
    // slabs must not move when the Vec reallocates. Slots are packed, not
    // padded: padding every mostly-idle word to a line would defeat the
    // point of slab-packing millions of them.
    #[allow(clippy::vec_box)]
    slabs: Vec<Box<[AtomicU64; SLAB_SLOTS]>>,
    /// Each slot's reference count.
    refs: Vec<u32>,
    free: Vec<u32>,
    peak_live: usize,
    reuses: u64,
}

impl ShardInner {
    /// Adds a slab; returns its first slot, and free-lists the rest.
    #[cold]
    fn grow(&mut self) -> u32 {
        let base = (self.slabs.len() * SLAB_SLOTS) as u32;
        self.slabs
            .push(Box::new(std::array::from_fn(|_| AtomicU64::new(0))));
        self.refs.resize(self.refs.len() + SLAB_SLOTS, 0);
        // Newest slot first; the rest join the free list.
        self.free.extend((base + 1..base + SLAB_SLOTS as u32).rev());
        base
    }
}

/// The shard a key maps to, as the lifecycle steps run on it, with the
/// kind the key must be live as, or is bound to.
#[derive(Clone, Copy)]
pub(crate) struct KeyShard<'t> {
    table: &'t ShardedTable,
    index: u32,
    kind: SlotKind,
}

impl<'t> KeyShard<'t> {
    /// The table's lot: the word operations the steps run on.
    pub(crate) fn lot(&self) -> &'t ParkingLot {
        &self.table.lot
    }

    /// The shard index, also its telemetry stripe.
    pub(crate) fn index(&self) -> usize {
        self.index as usize
    }

    /// The reference a [`protocol::slot_attach`] of `key` on this shard
    /// counted, naming the word it returned.
    pub(crate) fn slot(self, key: u64, word: &'t AtomicU64) -> SlotRef<'t> {
        SlotRef {
            shard: self,
            key,
            word,
        }
    }
}

impl<'t> SlotMap<&'t AtomicU64, &'t ParkingLot> for KeyShard<'t> {
    type Shard = ShardInner;
    /// Shrugs off poisoning: a panic in the critical section — the kind
    /// mismatch, before any mutation — leaves the shard consistent, and a
    /// poisoned-mutex panic inside `SlotRef::drop` during unwind would
    /// otherwise escalate to an abort.
    #[inline]
    fn with_shard<R>(
        &self,
        c: &mut &'t ParkingLot,
        f: impl FnOnce(&mut &'t ParkingLot, &mut ShardInner) -> R,
    ) -> R {
        let shard = &self.table.shards[self.index as usize];
        f(c, &mut shard.lock().unwrap_or_else(|e| e.into_inner()))
    }
    #[inline]
    fn lookup(&self, _: &mut &'t ParkingLot, s: &mut ShardInner, key: u64) -> Option<u32> {
        let &(slot, kind) = s.map.get(&key)?;
        assert!(
            kind == self.kind,
            "key {key:#x} is live as a {kind:?} slot; cannot attach it as a {:?}",
            self.kind
        );
        Some(slot)
    }
    fn insert(&self, _: &mut &'t ParkingLot, s: &mut ShardInner, key: u64, slot: u32) {
        s.map.insert(key, (slot, self.kind));
        s.peak_live = s.peak_live.max(s.map.len());
    }
    fn remove(&self, _: &mut &'t ParkingLot, s: &mut ShardInner, key: u64) {
        s.map.remove(&key);
    }
    #[inline]
    fn allocate(
        &self,
        _: &mut &'t ParkingLot,
        s: &mut ShardInner,
        _: u64,
    ) -> Result<u32, (&'t AtomicU64, u64)> {
        let reused = s.free.pop().inspect(|_| s.reuses += 1);
        Ok(reused.unwrap_or_else(|| s.grow()))
    }
    fn free(&self, _: &mut &'t ParkingLot, s: &mut ShardInner, slot: u32) {
        s.free.push(slot);
    }
    fn refs(&self, _: &mut &'t ParkingLot, s: &mut ShardInner, slot: u32) -> u64 {
        s.refs[slot as usize].into()
    }
    fn set_refs(&self, _: &mut &'t ParkingLot, s: &mut ShardInner, slot: u32, refs: u64) {
        s.refs[slot as usize] = refs as u32;
    }
    fn word(&self, s: &ShardInner, slot: u32) -> &'t AtomicU64 {
        let word: *const AtomicU64 =
            &s.slabs[slot as usize / SLAB_SLOTS][slot as usize % SLAB_SLOTS];
        // SAFETY: a slab is boxed, so it never moves, and it is freed only
        // with the table, which `'t` borrows.
        unsafe { &*word }
    }
}

/// Aggregate occupancy counters for a [`ShardedTable`]; see
/// [`ShardedTable::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

    /// The shard index `key` maps to. Exposed so multi-key acquirers can
    /// impose the table's canonical lock order (shard index, then key) and
    /// stay deadlock-free; see `AsyncLockService::lock_many`.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(key) & self.mask) as usize
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
        let shard = self.key_shard(key, kind);
        shard.slot(key, protocol::slot_attach(&mut shard.lot(), &shard, key))
    }

    /// The shard `key` maps to, for a slot of `kind`.
    pub(crate) fn key_shard(&self, key: u64, kind: SlotKind) -> KeyShard<'_> {
        KeyShard {
            table: self,
            index: self.shard_of(key) as u32,
            kind,
        }
    }

    /// Aggregates occupancy counters across shards. Exact only at
    /// quiescent points, like the futex totals.
    pub fn stats(&self) -> TableStats {
        let mut stats = TableStats {
            shards: self.shards.len(),
            ..TableStats::default()
        };
        for shard in self.shards.iter() {
            let inner = shard.lock().unwrap_or_else(|e| e.into_inner());
            stats.live += inner.map.len();
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
    shard: KeyShard<'a>,
    key: u64,
    word: &'a AtomicU64,
}

impl SlotRef<'_> {
    /// The slot's lock word.
    pub fn word(&self) -> &AtomicU64 {
        self.word
    }

    /// The key this slot serves.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The shard index this slot lives in — also its telemetry stripe.
    pub fn shard(&self) -> usize {
        self.shard.index()
    }

    /// The telemetry instance of the owning table.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shard.table.metrics
    }

    /// The parking lot this slot's waiters park in — the word operations
    /// (`syncctx::SyncCtx`) the slow paths run on. A waker entry
    /// registered here ([`ParkingLot::register`]) does not pin the slot:
    /// the owning future keeps its `SlotRef` alive for as long as the entry
    /// exists, the same "every parked waiter holds a reference" rule
    /// threads follow.
    pub fn lot(&self) -> &ParkingLot {
        self.shard.lot()
    }

    /// Releases the mutex word a guard's reference holds and drops the
    /// reference, in one [`protocol::keyed_unlock`]. The guard keeps it in
    /// a `ManuallyDrop`, so the reference's own drop, a second detach,
    /// never runs. Inlined into the guard's drop, its one caller: the
    /// uncontended round trip measured slower with the two apart.
    #[inline]
    pub(crate) fn keyed_unlock(slot: &ManuallyDrop<Self>) {
        let SlotRef { shard, key, word } = **slot;
        if protocol::keyed_unlock(&mut shard.lot(), &shard, key, word) {
            slot.metrics().count_slot_recycle(shard.index());
        }
    }
}

impl Clone for SlotRef<'_> {
    fn clone(&self) -> Self {
        let word = protocol::slot_attach(&mut self.shard.lot(), &self.shard, self.key);
        SlotRef { word, ..*self }
    }
}

impl Drop for SlotRef<'_> {
    fn drop(&mut self) {
        if protocol::slot_detach(&mut self.shard.lot(), &self.shard, self.key) {
            self.metrics().count_slot_recycle(self.shard());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

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
