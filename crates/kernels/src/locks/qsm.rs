//! **QSM — the Queueing Synchronization Mechanism**, the paper's
//! reconstructed contribution.
//!
//! One word-based synchronization variable (the tail `Q`) plus a per-processor
//! node whose second word is a **grant sequence number** — a monotonically
//! increasing eventcount rather than a boolean flag. Three properties
//! distinguish it from the MCS lock it otherwise resembles:
//!
//! 1. **Uncontended fast path**: acquire is a single `cas(Q, 0, me)` and
//!    release a single `cas(Q, me, 0)`; no node fields are written remotely.
//! 2. **Grant words are eventcounts**: a hand-off is `fetch_add(grant, 1)`.
//!    Because the value only ever advances, the same word supports the
//!    `await`/`advance` condition-synchronization service (the
//!    eventcount of `service::protocol`) and the combining barrier
//!    ([`crate::barriers::qsm_tree`]) with no extra state — the "unified
//!    mechanism" claim of the title.
//! 3. **Lost-wakeup freedom by arithmetic**: a waiter records its grant
//!    value *before* publishing itself; any later increment — even one that
//!    lands before the waiter starts spinning — leaves the word permanently
//!    different from the recorded value, so the boolean-flag reset races of
//!    flag-based queue locks cannot occur.
//!
//! Traffic per contended hand-off is O(1) and all spinning is local,
//! matching MCS asymptotically; fig1–fig3 show the two curves riding
//! together at the bottom of every plot.

use super::LockKernel;
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// The QSM lock. Lines: tail `Q` + one node per processor
/// (word 0 = `next`, word 1 = `grant` eventcount).
///
/// Node ids are `pid + 1`; 0 is nil/free.
#[derive(Debug, Clone, Copy, Default)]
pub struct QsmLock;

impl QsmLock {
    /// Address of the tail word `Q` (0 = free, else last queued node id).
    pub fn tail(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of node `id`'s `next` field.
    pub fn next(region: &Region, id: u64) -> Addr {
        region.slot_word(id as usize, 0)
    }

    /// Address of node `id`'s grant eventcount.
    pub fn grant(region: &Region, id: u64) -> Addr {
        region.slot_word(id as usize, 1)
    }
}

impl LockKernel for QsmLock {
    fn name(&self) -> &'static str {
        "qsm"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        1 + nprocs
    }

    /// Persistent state: this processor's view of its own grant eventcount.
    /// It is exact — the word is incremented exactly once per wait.
    fn proc_init(&self, _pid: usize, _region: &Region) -> u64 {
        0
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        let me = ctx.pid() as u64 + 1;
        // Clear our link first — it may hold a stale successor from an
        // earlier round, and release reads it on every path. This is a hit
        // in our own cache line.
        ctx.store(Self::next(region, me), 0);
        // Fast path: free lock, one interconnect transaction total.
        if ctx.cas(Self::tail(region), 0, me).is_ok() {
            return 0;
        }
        // Slow path: publish ourselves as the new tail and link in.
        let prev = ctx.swap(Self::tail(region), me);
        if prev == 0 {
            // The holder released between our cas and swap; the lock is ours.
            return 0;
        }
        ctx.store(Self::next(region, prev), me);
        // Wait for our grant eventcount to move past the recorded value.
        ctx.spin_while(Self::grant(region, me), *ps);
        *ps += 1;
        0
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, _token: u64) {
        let me = ctx.pid() as u64 + 1;
        let mut succ = ctx.load(Self::next(region, me));
        if succ == 0 {
            // Fast path: nobody queued; close the lock with one cas.
            if ctx.cas(Self::tail(region), me, 0).is_ok() {
                return;
            }
            // A successor is mid-enqueue; wait for its link.
            succ = ctx.spin_while(Self::next(region, me), 0);
        }
        // Hand off by advancing the successor's eventcount.
        ctx.fetch_add(Self::grant(region, succ), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::locks::mcs::McsLock;
    use crate::locks::tas::TasLock;
    use crate::testutil::SeqCtx;
    use crate::SyncCtx;
    use memsim::{Machine, MachineParams};

    #[test]
    fn fast_path_is_two_cas_total() {
        let lock = QsmLock;
        let region = Region::new(0, 8, lock.lines_needed(1));
        let mut ctx = SeqCtx::new(1, region.words());
        let mut ps = 0;
        let tok = lock.acquire(&mut ctx, &region, &mut ps);
        assert_eq!(ctx.mem[QsmLock::tail(&region)], 1);
        lock.release(&mut ctx, &region, &mut ps, tok);
        assert_eq!(ctx.mem[QsmLock::tail(&region)], 0);
        // Grant never moved on the fast path.
        assert_eq!(ctx.mem[QsmLock::grant(&region, 1)], 0);
        assert_eq!(ps, 0);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &QsmLock, 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn mutual_exclusion_on_numa() {
        let machine = Machine::new(MachineParams::numa_1991(8));
        let (count, _) = counter_trial(&machine, &QsmLock, 8, 8, 20).unwrap();
        assert_eq!(count, 64);
    }

    #[test]
    fn grant_counts_match_contended_waits() {
        // Every contended acquisition advances exactly one grant word by one;
        // totals must balance (sum of grants == number of queued waits).
        let machine = Machine::new(MachineParams::bus_1991(4));
        let lock = QsmLock;
        let (fix, memory) = crate::locks::fixture(&lock, 4, 8, 1);
        let report = machine
            .run_with_init(4, memory, |p| {
                let mut ps = lock.proc_init(p.pid(), &fix.region);
                for _ in 0..10 {
                    let tok = lock.acquire(p, &fix.region, &mut ps);
                    SyncCtx::delay(p, 30);
                    lock.release(p, &fix.region, &mut ps, tok);
                }
            })
            .unwrap();
        let total_grants: u64 = (1..=4)
            .map(|id| report.memory[QsmLock::grant(&fix.region, id)])
            .sum();
        let wakeups = report.metrics.wakeups();
        assert!(total_grants > 0, "contended run must take the queue path");
        assert!(
            total_grants >= wakeups,
            "grants {total_grants} must cover wakeups {wakeups}"
        );
    }

    #[test]
    fn traffic_is_flat_in_p_and_beats_tas() {
        let per_cs = |p: usize| {
            let machine = Machine::new(MachineParams::bus_1991(p));
            let (_, rep) = counter_trial(&machine, &QsmLock, p, 8, 60).unwrap();
            rep.metrics.interconnect_transactions as f64 / (p as f64 * 8.0)
        };
        let at4 = per_cs(4);
        let at16 = per_cs(16);
        assert!(at16 < at4 * 2.0, "qsm traffic/CS should be ~flat");

        let machine = Machine::new(MachineParams::bus_1991(12));
        let (_, qsm) = counter_trial(&machine, &QsmLock, 12, 6, 60).unwrap();
        let (_, tas) = counter_trial(&machine, &TasLock, 12, 6, 60).unwrap();
        assert!(qsm.metrics.interconnect_transactions * 2 < tas.metrics.interconnect_transactions);
    }

    #[test]
    fn tracks_mcs_within_constant_factor() {
        let machine = Machine::new(MachineParams::bus_1991(16));
        let (_, qsm) = counter_trial(&machine, &QsmLock, 16, 6, 60).unwrap();
        let (_, mcs) = counter_trial(&machine, &McsLock, 16, 6, 60).unwrap();
        let q = qsm.metrics.total_cycles as f64;
        let m = mcs.metrics.total_cycles as f64;
        assert!(
            q < m * 1.5 && m < q * 1.5,
            "qsm ({q}) and mcs ({m}) should ride together"
        );
    }
}
