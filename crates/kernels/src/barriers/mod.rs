//! Barrier kernels.
//!
//! | module | algorithm | arrival | release | episode cost shape |
//! |---|---|---|---|---|
//! | [`central`] | sense-reversing counter | P RMWs on one word | broadcast | O(P) serialized |
//! | [`combining_tree`] | software combining tree | fan-in counters | broadcast | O(log P) depth |
//! | [`dissemination`] | dissemination | log P store rounds | none needed | O(log P), no RMW |
//! | [`tournament`] | tournament | log P match rounds | tree wakeup | O(log P), no RMW |
//! | [`mcs_tree`] | MCS static tree | 4-ary flag tree | binary tree | O(log P), no RMW |
//! | [`qsm_tree`] | **QSM combining barrier**: [`QsmTree`](service::protocol::QsmTree) under [`qsm_tree_arrive`](service::protocol::qsm_tree_arrive) | monotone grant counters | epoch eventcount | O(log P) |
//!
//! All are *reusable*: the same barrier object synchronizes an unbounded
//! sequence of episodes, which is exactly what the correctness harness
//! ([`episode_trial`]) exercises.

pub mod central;
pub mod combining_tree;
pub mod dissemination;
pub mod mcs_tree;
pub mod qsm_tree;
pub mod tournament;

use crate::layout::Region;
use crate::{Addr, Word};
use crate::{ProcCtx, SyncCtx};
use memsim::{Machine, RunReport, SimError};

/// Per-processor barrier state threaded through successive episodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierState {
    /// Completed episodes (the "epoch" this processor has passed).
    pub round: u64,
    /// Algorithm-specific scratch (sense, parity, …). Each kernel documents
    /// its use.
    pub scratch: [u64; 2],
}

/// A reusable barrier algorithm expressed over [`ProcCtx`].
pub trait BarrierKernel: Sync {
    /// Short identifier used in figures and tables.
    fn name(&self) -> &'static str;

    /// Cache lines of shared memory required for `nprocs` processors.
    fn lines_needed(&self, nprocs: usize) -> usize;

    /// Nonzero initial words within `region`.
    fn init(&self, nprocs: usize, region: &Region) -> Vec<(Addr, Word)> {
        let _ = (nprocs, region);
        Vec::new()
    }

    /// Initial per-processor state.
    fn make_state(&self, pid: usize, nprocs: usize) -> BarrierState {
        let _ = (pid, nprocs);
        BarrierState::default()
    }

    /// Arrives at the barrier and returns once all `nprocs` processors of
    /// the current episode have arrived. Increments `st.round`.
    fn arrive(&self, ctx: &mut dyn ProcCtx, region: &Region, st: &mut BarrierState);
}

/// Every barrier in the study, in the order the figures list them.
pub fn all_barriers() -> Vec<Box<dyn BarrierKernel + Send + Sync>> {
    vec![
        Box::new(central::CentralBarrier),
        Box::new(combining_tree::CombiningTreeBarrier::default()),
        Box::new(dissemination::DisseminationBarrier),
        Box::new(tournament::TournamentBarrier),
        Box::new(mcs_tree::McsTreeBarrier),
        Box::new(qsm_tree::QsmTreeBarrier::default()),
    ]
}

/// Looks a barrier up by its [`BarrierKernel::name`].
pub fn barrier_by_name(name: &str) -> Option<Box<dyn BarrierKernel + Send + Sync>> {
    all_barriers().into_iter().find(|b| b.name() == name)
}

/// Shared-memory plan for a barrier trial.
#[derive(Debug, Clone, Copy)]
pub struct BarrierFixture {
    /// The barrier's own variables.
    pub region: Region,
    /// Workload scratch (one line per processor for arrival stamps).
    pub scratch: Region,
}

/// Lays out a barrier plus one scratch line per processor.
pub fn fixture(
    barrier: &dyn BarrierKernel,
    nprocs: usize,
    line_words: usize,
) -> (BarrierFixture, Vec<Word>) {
    let region = Region::new(0, line_words, barrier.lines_needed(nprocs));
    let scratch = Region::new(region.end(), line_words, nprocs);
    let mut memory = vec![0; region.words() + scratch.words()];
    for (addr, val) in barrier.init(nprocs, &region) {
        memory[addr] = val;
    }
    (BarrierFixture { region, scratch }, memory)
}

/// The canonical barrier-safety workload: each processor stamps its episode
/// counter, crosses the barrier, and verifies every peer has stamped at
/// least as far — then crosses a second barrier so the next episode's stamps
/// cannot race the checks. Any processor released early trips an assertion.
pub fn episode_trial(
    machine: &Machine,
    barrier: &dyn BarrierKernel,
    nprocs: usize,
    episodes: u64,
) -> Result<RunReport, SimError> {
    let line_words = machine.params().line_words;
    let (fix, memory) = fixture(barrier, nprocs, line_words);
    machine.run_with_init(nprocs, memory, |p| {
        let mut st = barrier.make_state(p.pid(), nprocs);
        let my_stamp = fix.scratch.slot(p.pid());
        for ep in 0..episodes {
            SyncCtx::store(p, my_stamp, ep + 1);
            barrier.arrive(p, &fix.region, &mut st);
            for j in 0..nprocs {
                let stamp = SyncCtx::load(p, fix.scratch.slot(j));
                assert!(
                    stamp > ep,
                    "{}: p{} released in episode {ep} before p{j} arrived (stamp {stamp})",
                    barrier.name(),
                    p.pid(),
                );
            }
            barrier.arrive(p, &fix.region, &mut st);
        }
    })
}

/// Timing workload for fig5/fig6: `episodes` barrier crossings separated by
/// a small deterministic skew per processor (so arrivals are staggered, as
/// in real iterative codes). Returns the run report; episode time is
/// `total_cycles / episodes`.
pub fn timing_trial(
    machine: &Machine,
    barrier: &dyn BarrierKernel,
    nprocs: usize,
    episodes: u64,
    work: u64,
) -> Result<RunReport, SimError> {
    let line_words = machine.params().line_words;
    let (fix, memory) = fixture(barrier, nprocs, line_words);
    machine.run_with_init(nprocs, memory, |p| {
        let mut st = barrier.make_state(p.pid(), nprocs);
        for ep in 0..episodes {
            p.trace_event(trace::EventKind::EpisodeBegin { id: ep });
            // Deterministic skew: different processor each episode is "slow".
            let skew = (p.pid() as u64 + ep) % nprocs as u64;
            SyncCtx::delay(p, work + skew);
            barrier.arrive(p, &fix.region, &mut st);
            p.trace_event(trace::EventKind::EpisodeEnd { id: ep });
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineParams;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = all_barriers().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "central",
                "combining-tree",
                "dissemination",
                "tournament",
                "mcs-tree",
                "qsm-tree"
            ]
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn barrier_by_name_round_trips() {
        for b in all_barriers() {
            assert_eq!(barrier_by_name(b.name()).unwrap().name(), b.name());
        }
        assert!(barrier_by_name("nope").is_none());
    }

    /// The cross-algorithm safety sweep: every barrier, several sizes,
    /// including non-powers of two and P=1.
    #[test]
    fn all_barriers_are_safe_across_sizes() {
        for barrier in all_barriers() {
            for &p in &[1usize, 2, 3, 5, 8] {
                let machine = Machine::new(MachineParams::bus_1991(p));
                episode_trial(&machine, barrier.as_ref(), p, 4)
                    .unwrap_or_else(|e| panic!("{} P={p}: {e}", barrier.name()));
            }
        }
    }

    #[test]
    fn all_barriers_are_safe_on_numa() {
        for barrier in all_barriers() {
            let machine = Machine::new(MachineParams::numa_1991(6));
            episode_trial(&machine, barrier.as_ref(), 6, 3)
                .unwrap_or_else(|e| panic!("{} on numa: {e}", barrier.name()));
        }
    }

    #[test]
    fn timing_trial_reports_progress() {
        let machine = Machine::new(MachineParams::bus_1991(4));
        let rep = timing_trial(&machine, &central::CentralBarrier, 4, 10, 50).unwrap();
        assert!(rep.metrics.total_cycles >= 10 * 50);
    }
}
