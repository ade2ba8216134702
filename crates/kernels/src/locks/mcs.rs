//! The MCS (Mellor-Crummey & Scott) explicit-queue lock.
//!
//! The 1991 state of the art this paper's mechanism would have been measured
//! against: per-processor nodes with an explicit `next` pointer, local-only
//! spinning, O(1) interconnect traffic per hand-off on both bus and NUMA
//! machines, and O(1) space per processor shared across all locks.

use super::LockKernel;
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// MCS queue lock. Lines: tail + one node per processor.
///
/// Node ids are `pid + 1` so that 0 can mean "nil" in both the tail and the
/// `next` fields. Node word 0 = `next`, word 1 = `locked`.
#[derive(Debug, Clone, Copy, Default)]
pub struct McsLock;

impl McsLock {
    /// Address of the tail word (0 = free, else holder/waiter node id).
    pub fn tail(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of node `id`'s `next` field (`id` in `1..=P`).
    pub fn next(region: &Region, id: u64) -> Addr {
        region.slot_word(id as usize, 0)
    }

    /// Address of node `id`'s `locked` flag.
    pub fn locked(region: &Region, id: u64) -> Addr {
        region.slot_word(id as usize, 1)
    }
}

impl LockKernel for McsLock {
    fn name(&self) -> &'static str {
        "mcs"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        1 + nprocs
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
        let me = ctx.pid() as u64 + 1;
        ctx.store(Self::next(region, me), 0);
        let pred = ctx.swap(Self::tail(region), me);
        if pred != 0 {
            // Arm the flag *before* linking, or the predecessor could grant
            // us before we start waiting and the grant would be lost.
            ctx.store(Self::locked(region, me), 1);
            ctx.store(Self::next(region, pred), me);
            ctx.spin_until(Self::locked(region, me), 0);
        }
        0
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, _token: u64) {
        let me = ctx.pid() as u64 + 1;
        let mut succ = ctx.load(Self::next(region, me));
        if succ == 0 {
            // Nobody visible behind us: try to close the queue.
            if ctx.cas(Self::tail(region), me, 0).is_ok() {
                return;
            }
            // A successor is mid-enqueue; wait for the link to appear.
            succ = ctx.spin_while(Self::next(region, me), 0);
        }
        ctx.store(Self::locked(region, succ), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::locks::tas::TasLock;
    use crate::testutil::SeqCtx;
    use memsim::{Machine, MachineParams};

    #[test]
    fn uncontended_is_swap_then_cas() {
        let lock = McsLock;
        let region = Region::new(0, 8, lock.lines_needed(1));
        let mut ctx = SeqCtx::new(1, region.words());
        let mut ps = 0;
        let tok = lock.acquire(&mut ctx, &region, &mut ps);
        assert_eq!(ctx.mem[McsLock::tail(&region)], 1);
        lock.release(&mut ctx, &region, &mut ps, tok);
        assert_eq!(ctx.mem[McsLock::tail(&region)], 0);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &McsLock, 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn handoff_traffic_is_constant_in_p() {
        // The MCS headline: interconnect transactions per critical section
        // do not grow with the number of contenders.
        let per_cs = |p: usize| {
            let machine = Machine::new(MachineParams::bus_1991(p));
            let (_, rep) = counter_trial(&machine, &McsLock, p, 8, 60).unwrap();
            rep.metrics.interconnect_transactions as f64 / (p as f64 * 8.0)
        };
        let at4 = per_cs(4);
        let at16 = per_cs(16);
        assert!(
            at16 < at4 * 2.0,
            "mcs traffic/CS should be ~flat: {at4:.1} @4 vs {at16:.1} @16"
        );
    }

    #[test]
    fn beats_tas_on_traffic_under_heavy_contention() {
        let machine = Machine::new(MachineParams::bus_1991(12));
        let (_, mcs) = counter_trial(&machine, &McsLock, 12, 6, 60).unwrap();
        let (_, tas) = counter_trial(&machine, &TasLock, 12, 6, 60).unwrap();
        assert!(
            mcs.metrics.interconnect_transactions * 2 < tas.metrics.interconnect_transactions,
            "mcs {} vs tas {}",
            mcs.metrics.interconnect_transactions,
            tas.metrics.interconnect_transactions
        );
    }
}
