//! Software combining-tree barrier.
//!
//! Arrivals are spread over a tree of counters with bounded fan-in, so at
//! most `fan_in` processors ever contend on one word and the critical path
//! is the tree depth: O(log P) instead of the central barrier's O(P). The
//! last processor to finish a node ascends to its parent; whoever completes
//! the root publishes the new epoch, which all processors watch. The
//! climb resets each node it completes, as the 1991 baseline did; the
//! tree's shape is [`TreeShape`], shared with the QSM barrier.

use super::{BarrierKernel, BarrierState};
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;
use service::protocol::TreeShape;

/// Combining-tree barrier with configurable fan-in.
///
/// Lines: one epoch word + one counter per tree node, nodes in level order
/// (level 0 = leaves grouping processors).
#[derive(Debug, Clone, Copy)]
pub struct CombiningTreeBarrier {
    /// Maximum children combined per node (≥ 2).
    pub fan_in: usize,
}

impl Default for CombiningTreeBarrier {
    fn default() -> Self {
        CombiningTreeBarrier { fan_in: 4 }
    }
}

impl CombiningTreeBarrier {
    /// Address of the epoch word.
    pub fn epoch(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of the counter for flat node index `n`.
    pub fn node(region: &Region, n: usize) -> Addr {
        region.slot(1 + n)
    }
}

impl BarrierKernel for CombiningTreeBarrier {
    fn name(&self) -> &'static str {
        "combining-tree"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        1 + TreeShape::new(nprocs, self.fan_in).nodes()
    }

    fn arrive(&self, ctx: &mut dyn ProcCtx, region: &Region, st: &mut BarrierState) {
        let next_epoch = st.round + 1;
        let path = TreeShape::root_path(ctx.nprocs(), self.fan_in, ctx.pid());
        let mut completed_root = true;
        for (n, fan) in path {
            let node = Self::node(region, n);
            if ctx.fetch_add(node, 1) != fan as u64 - 1 {
                completed_root = false; // someone else carries this node upward
                break;
            }
            // Node complete: reset it for the next episode and ascend.
            ctx.store(node, 0);
        }
        if completed_root {
            ctx.store(Self::epoch(region), next_epoch);
        } else {
            ctx.spin_until(Self::epoch(region), next_epoch);
        }
        st.round = next_epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barriers::central::CentralBarrier;
    use crate::barriers::{episode_trial, timing_trial};
    use memsim::{Machine, MachineParams};

    #[test]
    fn safety_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(9));
        episode_trial(&machine, &CombiningTreeBarrier::default(), 9, 4).unwrap();
    }

    #[test]
    fn safety_with_fan_in_two() {
        let machine = Machine::new(MachineParams::bus_1991(7));
        episode_trial(&machine, &CombiningTreeBarrier { fan_in: 2 }, 7, 4).unwrap();
    }

    #[test]
    fn beats_central_on_numa() {
        // On a single bus every transaction serializes anyway, so combining
        // cannot win there; its advantage is spreading the hot spot across
        // NUMA memory modules — the machine this test uses.
        let p = 24;
        let machine = Machine::new(MachineParams::numa_1991(p));
        let tree = timing_trial(&machine, &CombiningTreeBarrier::default(), p, 6, 0).unwrap();
        let central = timing_trial(&machine, &CentralBarrier, p, 6, 0).unwrap();
        assert!(
            tree.metrics.total_cycles < central.metrics.total_cycles,
            "tree {} vs central {}",
            tree.metrics.total_cycles,
            central.metrics.total_cycles
        );
    }
}
