//! Tournament barrier.
//!
//! Processors play ⌈log₂ P⌉ rounds of statically scheduled "matches": in
//! round `r` the processor with the `2^r` bit set loses to its partner,
//! signals it, and sits out until woken. Winners ascend; processor 0 is
//! always the champion. Release retraces the bracket downward. Like
//! dissemination there are no RMWs, but total traffic is O(P) per episode
//! rather than O(P log P) — each processor signals exactly once up and is
//! woken exactly once down.
//!
//! Flags carry the episode number (monotone), so reuse needs no sense
//! machinery at all: a stale value can never equal a future episode.

use super::{BarrierKernel, BarrierState};
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

pub use super::dissemination::rounds_for;

/// Tournament barrier. Lines: `P × rounds` arrival flags + `P` wakeup flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct TournamentBarrier;

impl TournamentBarrier {
    /// Arrival flag on which *winner* `pid` waits in `round`.
    pub fn arrival(region: &Region, nprocs: usize, pid: usize, round: usize) -> Addr {
        region.slot(pid * rounds_for(nprocs) + round)
    }

    /// Wakeup flag for `pid` (one per processor: each loses at most once).
    pub fn wakeup(region: &Region, nprocs: usize, pid: usize) -> Addr {
        region.slot(nprocs * rounds_for(nprocs) + pid)
    }
}

impl BarrierKernel for TournamentBarrier {
    fn name(&self) -> &'static str {
        "tournament"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        (nprocs * rounds_for(nprocs) + nprocs).max(1)
    }

    fn arrive(&self, ctx: &mut dyn ProcCtx, region: &Region, st: &mut BarrierState) {
        let nprocs = ctx.nprocs();
        let pid = ctx.pid();
        let rounds = rounds_for(nprocs);
        let ep = st.round + 1;

        // Ascend the bracket until we lose (or become champion).
        let mut lose_round = rounds;
        let mut r = 0;
        while r < rounds {
            let bit = 1usize << r;
            if pid & ((bit << 1) - 1) == 0 {
                // Winner of this match (or a bye if the partner is beyond P).
                if pid + bit < nprocs {
                    ctx.spin_until(Self::arrival(region, nprocs, pid, r), ep);
                }
                r += 1;
            } else {
                // Loser: signal the winner, then sleep until release.
                ctx.store(Self::arrival(region, nprocs, pid - bit, r), ep);
                ctx.spin_until(Self::wakeup(region, nprocs, pid), ep);
                lose_round = r;
                break;
            }
        }

        // Descend: wake everyone who lost to us in lower rounds.
        for q in (0..lose_round).rev() {
            let bit = 1usize << q;
            if pid + bit < nprocs {
                ctx.store(Self::wakeup(region, nprocs, pid + bit), ep);
            }
        }
        st.round = ep;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barriers::{episode_trial, timing_trial};
    use memsim::{Machine, MachineParams};

    #[test]
    fn safety_across_sizes() {
        for p in [2usize, 3, 4, 6, 8, 11] {
            let machine = Machine::new(MachineParams::bus_1991(p));
            episode_trial(&machine, &TournamentBarrier, p, 4)
                .unwrap_or_else(|e| panic!("P={p}: {e}"));
        }
    }

    #[test]
    fn no_rmws() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let rep = timing_trial(&machine, &TournamentBarrier, 8, 5, 0).unwrap();
        assert_eq!(rep.metrics.rmws(), 0);
    }

    #[test]
    fn store_count_is_linear_per_episode() {
        // P−1 arrival signals + P−1 wakeups per episode (power-of-two P).
        let machine = Machine::new(MachineParams::bus_1991(8));
        let rep = timing_trial(&machine, &TournamentBarrier, 8, 4, 0).unwrap();
        assert_eq!(rep.metrics.stores(), 4 * (7 + 7));
    }

    #[test]
    fn flags_never_collide() {
        let nprocs = 6;
        let region = Region::new(0, 8, TournamentBarrier.lines_needed(nprocs));
        let mut seen = std::collections::HashSet::new();
        for pid in 0..nprocs {
            for r in 0..rounds_for(nprocs) {
                assert!(seen.insert(TournamentBarrier::arrival(&region, nprocs, pid, r)));
            }
            assert!(seen.insert(TournamentBarrier::wakeup(&region, nprocs, pid)));
        }
    }

    #[test]
    fn long_reuse_without_sense_flags() {
        let machine = Machine::new(MachineParams::bus_1991(5));
        episode_trial(&machine, &TournamentBarrier, 5, 12).unwrap();
    }
}
