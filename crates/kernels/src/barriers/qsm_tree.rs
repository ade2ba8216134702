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
//! This is the "one mechanism, three services" claim of the reconstruction:
//! lock, condition synchronization, and barrier all reduce to *fetch-add on
//! a grant word + local await*.

use super::combining_tree::TreeShape;
use super::{BarrierKernel, BarrierState};
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

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

impl QsmTreeBarrier {
    /// Address of the epoch eventcount.
    pub fn epoch(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of the grant word for flat node index `n`.
    pub fn node(region: &Region, n: usize) -> Addr {
        region.slot(1 + n)
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
        let nprocs = ctx.nprocs();
        let shape = TreeShape::new(nprocs, self.fan_in);
        let ep = st.round + 1;
        let mut level = 0;
        let mut j = ctx.pid() / self.fan_in;
        let completed_root = loop {
            let fan = shape.fan_of(nprocs, self.fan_in, level, j) as u64;
            let node = Self::node(region, shape.index(level, j));
            // Monotone grant: complete when the count reaches ep·fan.
            let arrived = ctx.fetch_add(node, 1);
            if arrived != ep * fan - 1 {
                break false;
            }
            if level + 1 == shape.levels.len() {
                break true;
            }
            level += 1;
            j /= self.fan_in;
        };
        if completed_root {
            ctx.fetch_add(Self::epoch(region), 1);
        } else {
            ctx.spin_until(Self::epoch(region), ep);
        }
        st.round = ep;
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
        let shape = TreeShape::new(p, barrier.fan_in);
        for level in 0..shape.levels.len() {
            for j in 0..shape.levels[level] {
                let fan = shape.fan_of(p, barrier.fan_in, level, j) as u64;
                let count = report.memory[QsmTreeBarrier::node(&fix.region, shape.index(level, j))];
                assert_eq!(count, episodes * fan, "node ({level},{j})");
            }
        }
        assert_eq!(report.memory[QsmTreeBarrier::epoch(&fix.region)], episodes);
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
