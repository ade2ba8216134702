//! **The QSM combining barrier** — the mechanism's barrier service.
//!
//! Structurally a combining tree, but built from QSM's *monotone grant
//! words* instead of reset counters:
//!
//! * every tree node is an eventcount that only ever advances; a node with
//!   fan-in `f` is complete for episode `e` exactly when its count reaches
//!   `e·f`. **No reset store, and no reset races** — the subtle reuse
//!   hazard of reset-based combining trees simply cannot occur;
//! * the release is an `advance` on a global epoch eventcount, the same
//!   operation the QSM lock uses for hand-off and the service's eventcount
//!   (`service::protocol::advance`) uses for producer/consumer pacing.
//!
//! The climb is [`protocol::qsm_tree_arrive`] over this kernel's [`QsmTree`],
//! whose wait spins on the epoch. So lock, condition synchronization, and
//! barrier all reduce to *fetch-add on a grant word + local await*: the
//! "one mechanism, three services" claim of the reconstruction.

use super::{BarrierKernel, BarrierState};
use crate::layout::Region;
use crate::{Addr, ProcCtx};
use service::protocol::{self, QsmTree, TreeShape};

/// QSM barrier with configurable fan-in.
///
/// Lines: one epoch eventcount + one grant word per tree node.
#[derive(Debug, Clone, Copy)]
pub struct QsmTreeBarrier {
    /// Maximum children combined per node (≥ 2).
    pub fan_in: usize,
}

impl Default for QsmTreeBarrier {
    fn default() -> Self {
        QsmTreeBarrier { fan_in: 4 }
    }
}

/// The tree as `parties` processors see it: the epoch in the region's
/// first line, then node `n` in line `1 + n`.
struct Tree<'a> {
    fan_in: usize,
    parties: usize,
    region: &'a Region,
}

impl<C: ProcCtx + ?Sized> QsmTree<Addr, C> for Tree<'_> {
    fn parties(&self) -> usize {
        self.parties
    }
    fn fan_in(&self) -> usize {
        self.fan_in
    }
    fn node(&self, n: usize) -> Addr {
        self.region.slot(1 + n)
    }
    fn release(&self) -> Addr {
        self.region.slot(0)
    }
    fn await_release(&mut self, c: &mut C, release: Addr, episode: u64) {
        c.spin_until(release, episode);
    }
}

impl BarrierKernel for QsmTreeBarrier {
    fn name(&self) -> &'static str {
        "qsm-tree"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        1 + TreeShape::new(nprocs, self.fan_in).nodes()
    }

    fn arrive(&self, ctx: &mut dyn ProcCtx, region: &Region, st: &mut BarrierState) {
        let mut tree = Tree {
            fan_in: self.fan_in,
            parties: ctx.nprocs(),
            region,
        };
        st.round += 1;
        let me = ctx.pid();
        protocol::qsm_tree_arrive(ctx, &mut tree, me, st.round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barriers::central::CentralBarrier;
    use crate::barriers::{episode_trial, fixture, timing_trial};
    use memsim::{Machine, MachineParams};

    #[test]
    fn safety_across_sizes() {
        for p in [1usize, 2, 3, 5, 9, 16] {
            let machine = Machine::new(MachineParams::bus_1991(p));
            episode_trial(&machine, &QsmTreeBarrier::default(), p, 4)
                .unwrap_or_else(|e| panic!("P={p}: {e}"));
        }
    }

    #[test]
    fn node_counts_stay_monotone_and_exact() {
        let p = 8;
        let episodes = 5;
        let machine = Machine::new(MachineParams::bus_1991(p));
        let barrier = QsmTreeBarrier::default();
        let (fix, memory) = fixture(&barrier, p, machine.params().line_words);
        let report = machine
            .run_with_init(p, memory, |proc| {
                let mut st = barrier.make_state(proc.pid(), p);
                for _ in 0..episodes {
                    barrier.arrive(proc, &fix.region, &mut st);
                }
            })
            .unwrap();
        // Every node's final count is exactly episodes × fan; the epoch is
        // exactly the number of episodes. Nothing was ever reset.
        let nodes = TreeShape::new(p, barrier.fan_in).nodes();
        let mut checked = vec![false; nodes];
        for pid in 0..p {
            for (n, fan) in TreeShape::root_path(p, barrier.fan_in, pid) {
                let count = report.memory[fix.region.slot(1 + n)];
                assert_eq!(count, episodes * fan as u64, "node {n}");
                checked[n] = true;
            }
        }
        assert!(checked.iter().all(|&c| c), "every node is on a path");
        assert_eq!(report.memory[fix.region.slot(0)], episodes);
    }

    #[test]
    fn beats_central_on_numa() {
        let p = 24;
        let machine = Machine::new(MachineParams::numa_1991(p));
        let qsm = timing_trial(&machine, &QsmTreeBarrier::default(), p, 6, 0).unwrap();
        let central = timing_trial(&machine, &CentralBarrier, p, 6, 0).unwrap();
        assert!(
            qsm.metrics.total_cycles < central.metrics.total_cycles,
            "qsm-tree {} vs central {}",
            qsm.metrics.total_cycles,
            central.metrics.total_cycles
        );
    }

    #[test]
    fn long_reuse() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        episode_trial(&machine, &QsmTreeBarrier::default(), 6, 10).unwrap();
    }

    #[test]
    fn fan_in_two_works() {
        let machine = Machine::new(MachineParams::bus_1991(7));
        episode_trial(&machine, &QsmTreeBarrier { fan_in: 2 }, 7, 4).unwrap();
    }
}
