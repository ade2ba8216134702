//! Dissemination barrier (Hensgen–Finkel–Manber).
//!
//! ⌈log₂ P⌉ rounds; in round `r` processor `i` signals processor
//! `(i + 2^r) mod P` and waits to be signalled itself. No processor ever
//! waits for more than one flag per round and there are **no atomic RMWs at
//! all** — only stores to statically assigned, line-padded flags. Reuse is
//! handled with the classic parity/sense scheme: two banks of flags
//! alternate between episodes, and the flag *value* flips sense every time a
//! bank is reused, so stale values can never satisfy a wait.

use super::{BarrierKernel, BarrierState};
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// Dissemination barrier. Lines: `P × rounds × 2` flags, one per line.
#[derive(Debug, Clone, Copy, Default)]
pub struct DisseminationBarrier;

/// Number of signalling rounds for `nprocs`.
pub fn rounds_for(nprocs: usize) -> usize {
    if nprocs <= 1 {
        0
    } else {
        (usize::BITS - (nprocs - 1).leading_zeros()) as usize
    }
}

impl DisseminationBarrier {
    /// Address of the flag processor `pid` waits on in `round` with `parity`.
    pub fn flag(region: &Region, nprocs: usize, pid: usize, round: usize, parity: usize) -> Addr {
        let rounds = rounds_for(nprocs);
        region.slot(pid * rounds * 2 + round * 2 + parity)
    }
}

impl BarrierKernel for DisseminationBarrier {
    fn name(&self) -> &'static str {
        "dissemination"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        (nprocs * rounds_for(nprocs) * 2).max(1)
    }

    /// `scratch[0]` = parity (0/1), `scratch[1]` = sense (starts 1).
    fn make_state(&self, _pid: usize, _nprocs: usize) -> BarrierState {
        BarrierState {
            round: 0,
            scratch: [0, 1],
        }
    }

    fn arrive(&self, ctx: &mut dyn ProcCtx, region: &Region, st: &mut BarrierState) {
        let nprocs = ctx.nprocs();
        let pid = ctx.pid();
        let parity = st.scratch[0] as usize;
        let sense = st.scratch[1];
        for r in 0..rounds_for(nprocs) {
            let partner = (pid + (1 << r)) % nprocs;
            ctx.store(Self::flag(region, nprocs, partner, r, parity), sense);
            ctx.spin_until(Self::flag(region, nprocs, pid, r, parity), sense);
        }
        if parity == 1 {
            st.scratch[1] = 1 - sense;
        }
        st.scratch[0] = 1 - st.scratch[0];
        st.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barriers::{episode_trial, timing_trial};
    use memsim::{Machine, MachineParams};

    #[test]
    fn rounds_formula() {
        assert_eq!(rounds_for(1), 0);
        assert_eq!(rounds_for(2), 1);
        assert_eq!(rounds_for(3), 2);
        assert_eq!(rounds_for(4), 2);
        assert_eq!(rounds_for(5), 3);
        assert_eq!(rounds_for(8), 3);
        assert_eq!(rounds_for(9), 4);
    }

    #[test]
    fn flags_never_collide() {
        let nprocs = 5;
        let region = Region::new(0, 8, DisseminationBarrier.lines_needed(nprocs));
        let mut seen = std::collections::HashSet::new();
        for pid in 0..nprocs {
            for r in 0..rounds_for(nprocs) {
                for par in 0..2 {
                    assert!(
                        seen.insert(DisseminationBarrier::flag(&region, nprocs, pid, r, par)),
                        "flag collision pid={pid} r={r} par={par}"
                    );
                }
            }
        }
    }

    #[test]
    fn safety_including_ragged_sizes() {
        for p in [2usize, 3, 6, 8] {
            let machine = Machine::new(MachineParams::bus_1991(p));
            episode_trial(&machine, &DisseminationBarrier, p, 5)
                .unwrap_or_else(|e| panic!("P={p}: {e}"));
        }
    }

    #[test]
    fn no_rmws_at_all() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let rep = timing_trial(&machine, &DisseminationBarrier, 8, 5, 0).unwrap();
        assert_eq!(rep.metrics.rmws(), 0);
    }

    #[test]
    fn many_episodes_exercise_sense_reversal() {
        // Four episodes cycle through both parities and both senses.
        let machine = Machine::new(MachineParams::bus_1991(4));
        episode_trial(&machine, &DisseminationBarrier, 4, 9).unwrap();
    }
}
