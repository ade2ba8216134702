//! Vector-clock happens-before race detection (FastTrack-style epochs).
//!
//! The checker models a sequentially consistent 1991 multiprocessor, where
//! every `SyncCtx` operation is effectively an SC atomic. What can still go
//! wrong is the **protocol**: a kernel is supposed to *order* the data
//! accesses of its clients (critical sections, barrier-separated phases),
//! and a kernel bug leaves two client accesses unordered — a data race in
//! the happens-before sense, even on schedules whose final state happens to
//! look right.
//!
//! The detector therefore splits accesses in two classes, mirroring the
//! [`kernels::SyncCtx`] API:
//!
//! * **synchronization accesses** — everything a kernel does (`load`,
//!   `store`, `swap`, `cas`, `fetch_add`, spin reads). These *create*
//!   happens-before: a read joins the address's release clock into the
//!   thread, a write joins the thread's clock into the address (and ticks
//!   the thread). This is exactly the reads-from order of SC execution.
//! * **data accesses** — `data_load` / `data_store`. These are *checked*:
//!   a data access racing with a prior conflicting data access that is not
//!   happens-before it is reported with both sites. Data accesses do not
//!   create ordering — that is the whole point: schedule order is not
//!   synchronization.
//!
//! Following FastTrack (Flanagan & Freund, PLDI 2009), the last write per
//! address is a single **epoch** `(thread, clock)` — same-epoch comparison
//! is O(1) — and the read set is an adaptive epoch-per-thread list that
//! only grows while reads are concurrent. Thread counts here are ≤ 64 and
//! programs are tiny, so the representation favours clarity over the last
//! nanosecond.

use crate::program::OpMeta;
use kernels::Addr;
use std::collections::HashMap;

/// Logical time of one thread component.
pub type Clock = u64;

/// A FastTrack epoch: one component of a vector clock, identifying a
/// specific operation-point `clk` of thread `tid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Epoch {
    /// Thread id.
    pub tid: usize,
    /// That thread's clock at the access.
    pub clk: Clock,
}

/// A vector clock over all threads of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock {
    c: Vec<Clock>,
}

impl VectorClock {
    /// The zero clock for `n` threads.
    pub fn new(n: usize) -> Self {
        VectorClock { c: vec![0; n] }
    }

    /// This clock's component for `tid`.
    pub fn get(&self, tid: usize) -> Clock {
        self.c[tid]
    }

    /// Component-wise maximum with `other`.
    pub fn join(&mut self, other: &VectorClock) {
        for (a, b) in self.c.iter_mut().zip(&other.c) {
            *a = (*a).max(*b);
        }
    }

    /// Advances this thread's own component.
    pub fn tick(&mut self, tid: usize) {
        self.c[tid] += 1;
    }

    /// Does this clock know about (happen after) `e`?
    pub fn covers(&self, e: Epoch) -> bool {
        e.clk <= self.c[e.tid]
    }
}

/// Where a data access happened, in schedule-independent coordinates: the
/// `op_index`-th shared-memory operation issued by thread `pid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSite {
    /// Thread id.
    pub pid: usize,
    /// Index of the access among the thread's shared-memory operations.
    pub op_index: usize,
    /// True for a data store, false for a data load.
    pub write: bool,
}

impl std::fmt::Display for AccessSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread {} op #{} ({})",
            self.pid,
            self.op_index,
            if self.write { "write" } else { "read" }
        )
    }
}

/// A detected data race: two conflicting, happens-before-unordered data
/// accesses to `addr`. `prior` was executed earlier in the schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The shared word both sites touched.
    pub addr: Addr,
    /// The earlier access.
    pub prior: AccessSite,
    /// The later access, concurrent with `prior`.
    pub current: AccessSite,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data race on word {}: {} is concurrent with {}",
            self.addr, self.prior, self.current
        )
    }
}

/// Per-address detector state.
#[derive(Debug, Clone, Default)]
struct VarState {
    /// Last data write, as an epoch plus its report site.
    write: Option<(Epoch, AccessSite)>,
    /// Data reads since the last ordered write: at most one (epoch, site)
    /// per thread. One entry is FastTrack's read-epoch fast path; the list
    /// grows only while reads are genuinely concurrent.
    reads: Vec<(Epoch, AccessSite)>,
}

/// The happens-before engine for one execution.
#[derive(Debug, Clone)]
pub(crate) struct RaceDetector {
    /// Per-thread vector clocks.
    threads: Vec<VectorClock>,
    /// Per-address release clock: everything a sync read of the address
    /// happens after.
    release: Vec<VectorClock>,
    /// Per-address data-access state.
    vars: Vec<VarState>,
}

impl RaceDetector {
    pub(crate) fn new(nthreads: usize, words: usize) -> Self {
        let mut threads: Vec<VectorClock> =
            (0..nthreads).map(|_| VectorClock::new(nthreads)).collect();
        // Distinct initial components so epochs from different threads are
        // never spuriously equal.
        for (t, vc) in threads.iter_mut().enumerate() {
            vc.tick(t);
        }
        RaceDetector {
            threads,
            release: (0..words).map(|_| VectorClock::new(nthreads)).collect(),
            vars: vec![VarState::default(); words],
        }
    }

    /// A synchronization read of `addr` by `tid` (kernel load, spin probe,
    /// the read half of an RMW): acquire the address's release clock.
    pub(crate) fn sync_read(&mut self, tid: usize, addr: Addr) {
        self.threads[tid].join(&self.release[addr]);
    }

    /// A synchronization write of `addr` by `tid` (kernel store, the write
    /// half of an RMW): release the thread's clock into the address and
    /// advance the thread.
    pub(crate) fn sync_write(&mut self, tid: usize, addr: Addr) {
        let vc = self.threads[tid].clone();
        self.release[addr].join(&vc);
        self.threads[tid].tick(tid);
    }

    fn epoch(&self, tid: usize) -> Epoch {
        Epoch {
            tid,
            clk: self.threads[tid].get(tid),
        }
    }

    /// A data read of `addr` by `tid`. Returns the race with the last data
    /// write if that write is not ordered before this read.
    pub(crate) fn data_read(
        &mut self,
        tid: usize,
        addr: Addr,
        site: AccessSite,
    ) -> Option<RaceReport> {
        let var = &mut self.vars[addr];
        let race = match var.write {
            Some((w, wsite)) if w.tid != tid && !self.threads[tid].covers(w) => Some(RaceReport {
                addr,
                prior: wsite,
                current: site,
            }),
            _ => None,
        };
        let e = Epoch {
            tid,
            clk: self.threads[tid].get(tid),
        };
        match var.reads.iter_mut().find(|(r, _)| r.tid == tid) {
            Some(entry) => *entry = (e, site),
            None => var.reads.push((e, site)),
        }
        race
    }

    /// A data write of `addr` by `tid`. Returns the race with the last
    /// data write or any unordered data read.
    pub(crate) fn data_write(
        &mut self,
        tid: usize,
        addr: Addr,
        site: AccessSite,
    ) -> Option<RaceReport> {
        let me = self.epoch(tid);
        let var = &mut self.vars[addr];
        let mut race = match var.write {
            Some((w, wsite)) if w.tid != tid && !self.threads[tid].covers(w) => Some(RaceReport {
                addr,
                prior: wsite,
                current: site,
            }),
            _ => None,
        };
        if race.is_none() {
            race = var
                .reads
                .iter()
                .find(|&&(r, _)| r.tid != tid && !self.threads[tid].covers(r))
                .map(|&(_, rsite)| RaceReport {
                    addr,
                    prior: rsite,
                    current: site,
                });
        }
        var.write = Some((me, site));
        var.reads.clear();
        race
    }
}

/// Happens-before clocks over the **Mazurkiewicz dependence** relation,
/// one clock per executed scheduling step — the engine behind the
/// explorer's source-set DPOR (see [`crate::explorer`]).
///
/// This is deliberately a *different* happens-before than
/// [`RaceDetector`]'s: the race detector's sync clocks only order a read
/// after the writes it may observe (the reads-from order), which is what
/// data-race checking wants. DPOR instead needs the full dependence
/// order — write↔write, read↔write, and futex pairs on the same word all
/// create edges, because swapping any such pair changes the run. Each
/// pushed step joins the clocks of its direct dependence predecessors and
/// ticks its thread; two dependent steps whose clocks do *not* order them
/// are a **reversible race**, the signal that tells the explorer where a
/// backtrack point is needed.
#[derive(Debug, Clone)]
pub(crate) struct DporAnalysis {
    nthreads: usize,
    /// Clock of each thread's latest step.
    thread_clocks: Vec<VectorClock>,
    /// Steps taken per thread (the epoch source).
    taken: Vec<Clock>,
    /// Per executed step: its clock (after joins + tick), epoch, thread,
    /// and operation.
    step_clock: Vec<VectorClock>,
    step_epoch: Vec<Epoch>,
    step_tid: Vec<usize>,
    step_op: Vec<Option<OpMeta>>,
    /// Step indices touching each word, ascending — the only candidates
    /// for dependence with a later op on that word.
    by_addr: HashMap<Addr, Vec<usize>>,
    /// Steps with unknown ops: conservatively dependent with everything.
    opaque: Vec<usize>,
}

impl DporAnalysis {
    pub(crate) fn new(nthreads: usize) -> Self {
        DporAnalysis {
            nthreads,
            thread_clocks: (0..nthreads).map(|_| VectorClock::new(nthreads)).collect(),
            taken: vec![0; nthreads],
            step_clock: Vec::new(),
            step_epoch: Vec::new(),
            step_tid: Vec::new(),
            step_op: Vec::new(),
            by_addr: HashMap::new(),
            opaque: Vec::new(),
        }
    }

    /// The thread that took step `i`.
    pub(crate) fn tid(&self, i: usize) -> usize {
        self.step_tid[i]
    }

    /// Step `i` happens-before step `k` (dependence order, `i < k`).
    pub(crate) fn hb(&self, i: usize, k: usize) -> bool {
        self.step_clock[k].covers(self.step_epoch[i])
    }

    /// Direct dependence between two recorded steps (unknown ops are
    /// conservatively dependent with everything).
    pub(crate) fn steps_dependent(&self, i: usize, k: usize) -> bool {
        if self.step_tid[i] == self.step_tid[k] {
            return true; // program order
        }
        match (self.step_op[i], self.step_op[k]) {
            (Some(a), Some(b)) => a.dependent(b),
            _ => true,
        }
    }

    /// Records the next step of the execution and returns the indices of
    /// earlier steps in a **reversible race** with it: directly dependent,
    /// by another thread, and not already ordered before it through other
    /// events. Returned ascending.
    pub(crate) fn push_step(&mut self, tid: usize, op: Option<OpMeta>) -> Vec<usize> {
        let mut clock = self.thread_clocks[tid].clone();
        // Candidate predecessors: same-word steps (dependence needs a
        // shared word), plus opaque steps; everything for an opaque op.
        let mut cands: Vec<usize> = match op {
            Some(m) => {
                let mut v = self.by_addr.get(&m.addr).cloned().unwrap_or_default();
                v.extend_from_slice(&self.opaque);
                v
            }
            None => (0..self.step_tid.len()).collect(),
        };
        cands.sort_unstable();
        cands.dedup();
        let mut races = Vec::new();
        // Scan newest-first: joining each unordered predecessor's clock
        // lets it shadow the older steps it already orders, so only the
        // *immediate* unordered predecessors report as races.
        for &i in cands.iter().rev() {
            if self.step_tid[i] == tid {
                continue; // program order, already in `clock`
            }
            let dependent = match (self.step_op[i], op) {
                (Some(a), Some(b)) => a.dependent(b),
                _ => true,
            };
            if !dependent || clock.covers(self.step_epoch[i]) {
                continue;
            }
            races.push(i);
            clock.join(&self.step_clock[i]);
        }
        self.taken[tid] += 1;
        clock.tick(tid);
        debug_assert_eq!(clock.get(tid), self.taken[tid]);
        let j = self.step_tid.len();
        let epoch = Epoch {
            tid,
            clk: self.taken[tid],
        };
        match op {
            Some(m) => self.by_addr.entry(m.addr).or_default().push(j),
            None => self.opaque.push(j),
        }
        self.thread_clocks[tid] = clock.clone();
        self.step_clock.push(clock);
        self.step_epoch.push(epoch);
        self.step_tid.push(tid);
        self.step_op.push(op);
        races.reverse();
        races
    }

    pub(crate) fn nthreads(&self) -> usize {
        self.nthreads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(pid: usize, op: usize, write: bool) -> AccessSite {
        AccessSite {
            pid,
            op_index: op,
            write,
        }
    }

    #[test]
    fn vector_clock_join_and_covers() {
        let mut a = VectorClock::new(2);
        a.tick(0);
        let mut b = VectorClock::new(2);
        b.tick(1);
        b.tick(1);
        a.join(&b);
        assert_eq!(a.get(0), 1);
        assert_eq!(a.get(1), 2);
        assert!(a.covers(Epoch { tid: 1, clk: 2 }));
        assert!(!a.covers(Epoch { tid: 1, clk: 3 }));
    }

    #[test]
    fn unsynchronized_write_write_races() {
        let mut d = RaceDetector::new(2, 1);
        assert!(d.data_write(0, 0, site(0, 0, true)).is_none());
        let race = d.data_write(1, 0, site(1, 0, true)).expect("race");
        assert_eq!(race.prior.pid, 0);
        assert_eq!(race.current.pid, 1);
    }

    #[test]
    fn write_read_race_without_sync() {
        let mut d = RaceDetector::new(2, 1);
        assert!(d.data_write(0, 0, site(0, 0, true)).is_none());
        assert!(d.data_read(1, 0, site(1, 0, false)).is_some());
    }

    #[test]
    fn read_write_race_without_sync() {
        let mut d = RaceDetector::new(2, 1);
        assert!(d.data_read(0, 0, site(0, 0, false)).is_none());
        let race = d.data_write(1, 0, site(1, 0, true)).expect("race");
        assert!(!race.prior.write);
    }

    #[test]
    fn reads_do_not_race_with_reads() {
        let mut d = RaceDetector::new(3, 1);
        assert!(d.data_read(0, 0, site(0, 0, false)).is_none());
        assert!(d.data_read(1, 0, site(1, 0, false)).is_none());
        assert!(d.data_read(2, 0, site(2, 0, false)).is_none());
    }

    #[test]
    fn release_acquire_chain_orders_accesses() {
        // Thread 0 writes data, then releases through sync word 1;
        // thread 1 acquires through word 1, then touches the data: no race.
        let mut d = RaceDetector::new(2, 2);
        assert!(d.data_write(0, 0, site(0, 0, true)).is_none());
        d.sync_write(0, 1);
        d.sync_read(1, 1);
        assert!(d.data_read(1, 0, site(1, 1, false)).is_none());
        assert!(d.data_write(1, 0, site(1, 2, true)).is_none());
    }

    #[test]
    fn sync_on_unrelated_word_does_not_order() {
        let mut d = RaceDetector::new(2, 3);
        assert!(d.data_write(0, 0, site(0, 0, true)).is_none());
        d.sync_write(0, 1); // released through word 1...
        d.sync_read(1, 2); // ...but thread 1 acquired word 2
        assert!(d.data_write(1, 0, site(1, 1, true)).is_some());
    }

    #[test]
    fn transitive_happens_before_through_third_thread() {
        // 0 → (word 1) → 2 → (word 2) → 1 orders 0's write before 1's.
        let mut d = RaceDetector::new(3, 3);
        assert!(d.data_write(0, 0, site(0, 0, true)).is_none());
        d.sync_write(0, 1);
        d.sync_read(2, 1);
        d.sync_write(2, 2);
        d.sync_read(1, 2);
        assert!(d.data_read(1, 0, site(1, 0, false)).is_none());
    }

    #[test]
    fn same_thread_never_races_with_itself() {
        let mut d = RaceDetector::new(2, 1);
        assert!(d.data_write(0, 0, site(0, 0, true)).is_none());
        assert!(d.data_read(0, 0, site(0, 1, false)).is_none());
        assert!(d.data_write(0, 0, site(0, 2, true)).is_none());
    }

    #[test]
    fn concurrent_read_then_ordered_write_still_races_with_other_reader() {
        // Readers 0 and 1 both read; writer 2 synchronizes only with 0.
        let mut d = RaceDetector::new(3, 2);
        assert!(d.data_read(0, 0, site(0, 0, false)).is_none());
        assert!(d.data_read(1, 0, site(1, 0, false)).is_none());
        d.sync_write(0, 1);
        d.sync_read(2, 1);
        let race = d
            .data_write(2, 0, site(2, 1, true))
            .expect("race with reader 1");
        assert_eq!(race.prior.pid, 1);
    }

    mod dpor {
        use super::super::DporAnalysis;
        use crate::program::{OpKind, OpMeta};

        fn st(addr: usize) -> Option<OpMeta> {
            Some(OpMeta {
                addr,
                kind: OpKind::SyncStore,
            })
        }

        fn ld(addr: usize) -> Option<OpMeta> {
            Some(OpMeta {
                addr,
                kind: OpKind::SyncLoad,
            })
        }

        #[test]
        fn dependent_unordered_steps_race() {
            let mut an = DporAnalysis::new(2);
            assert!(an.push_step(0, st(0)).is_empty());
            // Thread 1's store to the same word is unordered with step 0.
            assert_eq!(an.push_step(1, st(0)), vec![0]);
            assert!(an.hb(0, 1), "the race edge itself orders the steps");
        }

        #[test]
        fn independent_steps_do_not_race() {
            let mut an = DporAnalysis::new(2);
            assert!(an.push_step(0, st(0)).is_empty());
            assert!(an.push_step(1, st(1)).is_empty(), "different words");
            assert_eq!(an.push_step(1, ld(0)), vec![0], "read vs write races");
            let mut an = DporAnalysis::new(2);
            an.push_step(0, ld(0));
            assert!(an.push_step(1, ld(0)).is_empty(), "two reads commute");
        }

        #[test]
        fn ordered_dependent_steps_do_not_re_race() {
            // t0 stores a, t1's rmw on a races with it; t1's *second* op on
            // a is then ordered after t0's store through t1's first — only
            // the immediate unordered predecessor reports.
            let mut an = DporAnalysis::new(2);
            an.push_step(0, st(0));
            assert_eq!(an.push_step(1, st(0)), vec![0]);
            assert!(an.push_step(1, st(0)).is_empty());
        }

        #[test]
        fn transitive_order_through_third_thread_suppresses_race() {
            // t0 w(a); t1 w(a) (races, then ordered); t2 w(a) races only
            // with t1 — t0 is shadowed behind t1's join.
            let mut an = DporAnalysis::new(3);
            an.push_step(0, st(0));
            assert_eq!(an.push_step(1, st(0)), vec![0]);
            assert_eq!(an.push_step(2, st(0)), vec![1]);
        }

        #[test]
        fn program_order_never_races() {
            let mut an = DporAnalysis::new(2);
            an.push_step(0, st(0));
            assert!(an.push_step(0, st(0)).is_empty());
            assert!(an.hb(0, 1));
        }

        #[test]
        fn opaque_steps_are_conservatively_dependent() {
            let mut an = DporAnalysis::new(2);
            an.push_step(0, st(0));
            assert_eq!(an.push_step(1, None), vec![0]);
        }
    }
}
