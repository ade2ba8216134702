//! MCS static-tree barrier.
//!
//! Mellor-Crummey & Scott's barrier: a 4-ary **arrival** tree (each parent
//! gathers up to four children) and a binary **wakeup** tree, both with
//! statically assigned, line-padded flags so every wait is a local spin on
//! one word written by exactly one other processor. Flags carry the episode
//! number, so reuse is race-free without sense reversal.

use super::{BarrierKernel, BarrierState};
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// MCS tree barrier. Lines: `P` arrival flags + `P` wakeup flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct McsTreeBarrier;

impl McsTreeBarrier {
    /// Arrival flag owned by `pid` (read by its arrival-tree parent).
    pub fn arrival(region: &Region, pid: usize) -> Addr {
        region.slot(pid)
    }

    /// Wakeup flag for `pid` (written by its wakeup-tree parent).
    pub fn wakeup(region: &Region, nprocs: usize, pid: usize) -> Addr {
        region.slot(nprocs + pid)
    }

    /// Children of `pid` in the 4-ary arrival tree.
    pub fn arrival_children(pid: usize, nprocs: usize) -> impl Iterator<Item = usize> {
        (1..=4)
            .map(move |k| 4 * pid + k)
            .filter(move |&c| c < nprocs)
    }

    /// Children of `pid` in the binary wakeup tree.
    pub fn wakeup_children(pid: usize, nprocs: usize) -> impl Iterator<Item = usize> {
        [2 * pid + 1, 2 * pid + 2]
            .into_iter()
            .filter(move |&c| c < nprocs)
    }
}

impl BarrierKernel for McsTreeBarrier {
    fn name(&self) -> &'static str {
        "mcs-tree"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        2 * nprocs
    }

    fn arrive(&self, ctx: &mut dyn ProcCtx, region: &Region, st: &mut BarrierState) {
        let nprocs = ctx.nprocs();
        let pid = ctx.pid();
        let ep = st.round + 1;

        // Gather the subtree: wait for each arrival child, youngest first.
        for c in Self::arrival_children(pid, nprocs) {
            ctx.spin_until(Self::arrival(region, c), ep);
        }
        if pid != 0 {
            // Report the whole subtree to the parent, then sleep.
            ctx.store(Self::arrival(region, pid), ep);
            ctx.spin_until(Self::wakeup(region, nprocs, pid), ep);
        }
        // Fan the release down the binary tree.
        for c in Self::wakeup_children(pid, nprocs) {
            ctx.store(Self::wakeup(region, nprocs, c), ep);
        }
        st.round = ep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barriers::central::CentralBarrier;
    use crate::barriers::{episode_trial, timing_trial};
    use memsim::{Machine, MachineParams};

    #[test]
    fn tree_structure() {
        let kids: Vec<usize> = McsTreeBarrier::arrival_children(0, 10).collect();
        assert_eq!(kids, vec![1, 2, 3, 4]);
        let kids: Vec<usize> = McsTreeBarrier::arrival_children(2, 10).collect();
        assert_eq!(kids, vec![9]);
        let kids: Vec<usize> = McsTreeBarrier::arrival_children(3, 10).collect();
        assert!(kids.is_empty());
        let w: Vec<usize> = McsTreeBarrier::wakeup_children(0, 5).collect();
        assert_eq!(w, vec![1, 2]);
        let w: Vec<usize> = McsTreeBarrier::wakeup_children(2, 5).collect();
        assert!(w.is_empty());
    }

    #[test]
    fn safety_across_sizes() {
        for p in [2usize, 3, 5, 9, 16] {
            let machine = Machine::new(MachineParams::bus_1991(p));
            episode_trial(&machine, &McsTreeBarrier, p, 4).unwrap_or_else(|e| panic!("P={p}: {e}"));
        }
    }

    #[test]
    fn no_rmws() {
        let machine = Machine::new(MachineParams::bus_1991(12));
        let rep = timing_trial(&machine, &McsTreeBarrier, 12, 5, 0).unwrap();
        assert_eq!(rep.metrics.rmws(), 0);
    }

    #[test]
    fn beats_central_on_numa() {
        // O(P) vs O(log P) needs headroom to separate; at small P the
        // tree's serial parent hops cancel the win.
        let p = 64;
        let machine = Machine::new(MachineParams::numa_1991(p));
        let tree = timing_trial(&machine, &McsTreeBarrier, p, 4, 0).unwrap();
        let central = timing_trial(&machine, &CentralBarrier, p, 4, 0).unwrap();
        assert!(
            tree.metrics.total_cycles < central.metrics.total_cycles,
            "mcs-tree {} vs central {}",
            tree.metrics.total_cycles,
            central.metrics.total_cycles
        );
    }

    #[test]
    fn long_reuse() {
        let machine = Machine::new(MachineParams::bus_1991(7));
        episode_trial(&machine, &McsTreeBarrier, 7, 10).unwrap();
    }
}
