//! Central sense-reversing counter barrier — the baseline.
//!
//! Every arrival is a fetch-and-add on one hot word, so the P arrivals
//! serialize through the interconnect: episode time grows linearly in P
//! (fig5's top curve). The release is a single store to an epoch word all
//! waiters watch; reuse is safe because the counter is reset by the last
//! arriver *before* the epoch advances.

use super::{BarrierKernel, BarrierState};
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// Central counter barrier. Lines: arrival counter + epoch word.
#[derive(Debug, Clone, Copy, Default)]
pub struct CentralBarrier;

impl CentralBarrier {
    /// Address of the arrival counter.
    pub fn count(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of the epoch (episode number) word.
    pub fn epoch(region: &Region) -> Addr {
        region.slot(1)
    }
}

impl BarrierKernel for CentralBarrier {
    fn name(&self) -> &'static str {
        "central"
    }

    fn lines_needed(&self, _nprocs: usize) -> usize {
        2
    }

    fn arrive(&self, ctx: &mut dyn ProcCtx, region: &Region, st: &mut BarrierState) {
        let p = ctx.nprocs() as u64;
        let next_epoch = st.round + 1;
        let arrived = ctx.fetch_add(Self::count(region), 1);
        if arrived == p - 1 {
            // Last arriver: reset for the next episode, then open the gate.
            ctx.store(Self::count(region), 0);
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
    use crate::barriers::{episode_trial, timing_trial};
    use memsim::{Machine, MachineParams};

    #[test]
    fn safety_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        episode_trial(&machine, &CentralBarrier, 6, 5).unwrap();
    }

    #[test]
    fn single_processor_degenerates_cleanly() {
        let machine = Machine::new(MachineParams::bus_1991(1));
        episode_trial(&machine, &CentralBarrier, 1, 10).unwrap();
    }

    #[test]
    fn episode_cost_grows_with_p() {
        let cost = |p: usize| {
            let machine = Machine::new(MachineParams::bus_1991(p));
            let rep = timing_trial(&machine, &CentralBarrier, p, 8, 0).unwrap();
            rep.metrics.total_cycles as f64 / 8.0
        };
        let small = cost(2);
        let large = cost(16);
        assert!(
            large > small * 3.0,
            "central barrier must serialize: {small:.0} @2 vs {large:.0} @16"
        );
    }

    #[test]
    fn rmw_count_is_p_per_episode() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let rep = timing_trial(&machine, &CentralBarrier, 8, 5, 0).unwrap();
        assert_eq!(rep.metrics.rmws(), 8 * 5);
    }
}
