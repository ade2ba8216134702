//! Randomized schedule fuzzing: sampling the schedule space the DFS
//! explorer cannot exhaust.
//!
//! Exhaustive exploration ([`Explorer::check`]) is the right tool up to a
//! few threads and a few dozen steps; beyond that the schedule tree
//! explodes and the only honest options are bounding (which trades away
//! deep bugs) or sampling. This module samples: a [`Fuzzer`] executes a
//! [`Program`] under pseudo-random schedules drawn from a seeded,
//! fully deterministic generator, through the *same* scheduler loop the
//! explorer uses — park/unpark semantics, the race detector, lockdep and
//! bypass accounting all behave identically, so every [`Verdict`] class
//! (lost wakeups included) surfaces under sampling exactly as it would
//! under search.
//!
//! Two strategies:
//!
//! * [`Strategy::Uniform`] — a uniform random walk: at every schedule
//!   point, pick uniformly among the eligible threads. Simple, and
//!   surprisingly effective on shallow bugs, but the probability of
//!   hitting a bug needing `d` specific scheduling decisions decays
//!   exponentially in `d`.
//! * [`Strategy::Pct`] — probabilistic concurrency testing (Burckhardt
//!   et al., ASPLOS 2010): threads get distinct random priorities, the
//!   highest-priority eligible thread always runs, and at `d` randomly
//!   chosen steps the running thread is demoted below everyone else.
//!   A run finds any bug of *depth* ≤ d+1 with probability ≥
//!   1/(n·k^d) — polynomial, not exponential, in the schedule length
//!   `k` — which is why PCT is the default.
//!
//! Every failure comes back as a [`Verdict`] carrying the full schedule,
//! and (by default) a greedily **shrunk** schedule: context switches are
//! dropped and merged while [`Explorer::replay`] keeps reproducing the
//! same verdict class, so a 300-step fuzz failure debugs like a 6-step
//! exhaustive one. The whole pipeline is a pure function of
//! `(seed, strategy, program)` — re-running with the same seed yields a
//! byte-identical schedule and verdict.

use crate::explorer::{DporMode, Explorer, Policy, ReplayEnd, RunEnd, Stats, Verdict};
use crate::program::Program;
use kernels::Word;
use simcore::Rng;

/// Default campaign seed (`interleave fuzz` without `--seed`): the paper's
/// year.
pub const DEFAULT_FUZZ_SEED: u64 = 1991;
/// Default iteration budget (`interleave fuzz` without `--iters`).
pub const DEFAULT_FUZZ_ITERS: usize = 1000;

/// How the fuzzer picks the next thread at each schedule point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Uniform random walk over the eligible threads.
    Uniform,
    /// Priority-based probabilistic concurrency testing with
    /// `change_points` priority-change points per run.
    Pct {
        /// Number of demotion points sampled per run; finds bugs of
        /// depth ≤ `change_points + 1` with polynomial probability.
        change_points: usize,
    },
}

impl Default for Strategy {
    fn default() -> Self {
        Strategy::Pct { change_points: 3 }
    }
}

impl Strategy {
    /// Parses a CLI/env spelling: `uniform`, `pct` (default depth), or
    /// `pct:<d>` with `d ≥ 1` change points.
    pub fn parse(raw: &str) -> Result<Strategy, String> {
        let s = raw.trim();
        if s.eq_ignore_ascii_case("uniform") {
            return Ok(Strategy::Uniform);
        }
        if s.eq_ignore_ascii_case("pct") {
            return Ok(Strategy::default());
        }
        if let Some(d) = s.strip_prefix("pct:").or_else(|| s.strip_prefix("PCT:")) {
            return match d.trim().parse::<usize>() {
                Ok(0) => Err(format!(
                    "strategy {raw:?}: pct needs at least one change point; \
                     pct:0 never switches threads off-schedule"
                )),
                Ok(n) => Ok(Strategy::Pct { change_points: n }),
                Err(_) => Err(format!(
                    "strategy {raw:?}: the pct depth is not a positive integer"
                )),
            };
        }
        Err(format!(
            "unknown strategy {raw:?}; expected uniform, pct, or pct:<d>"
        ))
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Uniform => write!(f, "uniform"),
            Strategy::Pct { change_points } => write!(f, "pct:{change_points}"),
        }
    }
}

/// Per-run scheduling state for one fuzz iteration.
enum Chooser {
    Uniform(Rng),
    Pct {
        /// Current priority per thread id; higher runs first, all distinct.
        priorities: Vec<u64>,
        /// Steps at which the about-to-run thread is demoted, ascending
        /// (duplicates allowed — each consumes one demotion).
        change_points: Vec<usize>,
        /// Index of the next unconsumed change point.
        next_change: usize,
        /// Next demotion priority; counts down, always below every
        /// initial priority, so demotions are totally ordered too.
        next_low: u64,
    },
}

impl Chooser {
    /// `horizon` is the schedule length PCT change points are sampled
    /// over — the longest run observed so far, not the step *limit*:
    /// sampling demotions across a 400-step limit when runs are 6 steps
    /// long would place them past the end of every run.
    fn new(strategy: Strategy, mut rng: Rng, nthreads: usize, horizon: usize) -> Chooser {
        match strategy {
            Strategy::Uniform => Chooser::Uniform(rng),
            Strategy::Pct { change_points: d } => {
                // Initial priorities d+1 ..= d+n in random order: distinct,
                // and strictly above every demotion value (d, d-1, …, 1).
                let mut priorities: Vec<u64> =
                    (1..=nthreads as u64).map(|p| p + d as u64).collect();
                rng.shuffle(&mut priorities);
                let mut change_points: Vec<usize> = (0..d)
                    .map(|_| 1 + rng.next_below(horizon.max(2) as u64 - 1) as usize)
                    .collect();
                change_points.sort_unstable();
                Chooser::Pct {
                    priorities,
                    change_points,
                    next_change: 0,
                    next_low: d as u64,
                }
            }
        }
    }

    fn choose(&mut self, step: usize, eligible: &[usize]) -> usize {
        match self {
            Chooser::Uniform(rng) => eligible[rng.next_below(eligible.len() as u64) as usize],
            Chooser::Pct {
                priorities,
                change_points,
                next_change,
                next_low,
            } => {
                let top = |prio: &[u64]| -> usize {
                    eligible
                        .iter()
                        .copied()
                        .max_by_key(|&p| prio[p])
                        .expect("eligible is never empty at a schedule point")
                };
                let mut chosen = top(priorities);
                // At a change point the thread about to run is demoted
                // below everyone (including earlier demotions) and the
                // pick is redone — the PCT demotion step.
                while *next_change < change_points.len() && change_points[*next_change] == step {
                    priorities[chosen] = *next_low;
                    *next_low = next_low.saturating_sub(1);
                    *next_change += 1;
                    chosen = top(priorities);
                }
                chosen
            }
        }
    }
}

/// A greedily minimized failing schedule; see [`shrink_schedule`].
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The reduced schedule; replays to the same verdict class as the
    /// original via [`Explorer::replay`].
    pub schedule: Vec<usize>,
    /// Replays spent reaching it.
    pub replays: usize,
}

/// Outcome of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// [`Verdict::Passed`] when the whole budget ran clean; otherwise the
    /// first failure, schedule attached.
    pub verdict: Verdict,
    /// Zero-based iteration at which the failure was found.
    pub failing_iter: Option<usize>,
    /// The shrunk schedule, when shrinking was enabled and the campaign
    /// failed.
    pub shrunk: Option<Shrunk>,
}

impl FuzzReport {
    /// Panics with a readable report if the campaign found a failure.
    pub fn expect_pass(&self, what: &str) {
        self.verdict.expect_pass(what);
    }

    /// Renders a failed campaign as a checked-in corpus file (see
    /// [`crate::corpus`]): the shrunk schedule when shrinking ran, else
    /// the raw failing one, with a provenance comment. `None` when the
    /// campaign passed. `program` must be a [`crate::corpus::corpus_program`]
    /// registry name for the loader test to replay the entry.
    pub fn corpus_entry(&self, program: &str) -> Option<String> {
        let raw = self.verdict.schedule()?;
        let (schedule, provenance) = match &self.shrunk {
            Some(s) => (
                s.schedule.clone(),
                format!(
                    "shrunk {} -> {} steps in {} replays",
                    raw.len(),
                    s.schedule.len(),
                    s.replays
                ),
            ),
            None => (raw.to_vec(), "unshrunk".to_string()),
        };
        let entry = crate::corpus::CorpusEntry {
            program: program.to_string(),
            schedule,
            verdict: crate::corpus::VerdictClass::of(&self.verdict),
        };
        let iter = self.failing_iter.unwrap_or(0);
        Some(entry.render(&format!("found at fuzz iteration {iter}; {provenance}")))
    }
}

/// A seeded, deterministic random-schedule fuzzer.
///
/// Construction fixes `(seed, iters, strategy)`; running is then a pure
/// function of the program. Iteration `i` draws its stream from
/// `Rng::new(seed).fork(i)`, so campaigns are reproducible run-to-run
/// and a failing iteration's schedule is replayable forever.
#[derive(Debug, Clone)]
pub struct Fuzzer {
    /// Master seed for the campaign.
    pub seed: u64,
    /// Iteration budget (schedules sampled).
    pub iters: usize,
    /// Thread-choice strategy.
    pub strategy: Strategy,
    /// Per-run step limit; runs hitting it count as pruned, not failed.
    pub max_steps: usize,
    /// Bounded-bypass starvation checking, as in
    /// [`Explorer::with_bypass_bound`].
    pub bypass_bound: Option<usize>,
    /// Shrink failing schedules before reporting (on by default).
    pub shrink: bool,
}

impl Fuzzer {
    /// A fuzzer with the given campaign parameters, a 400-step run limit,
    /// shrinking on, and no bypass bound.
    pub fn new(seed: u64, iters: usize, strategy: Strategy) -> Fuzzer {
        Fuzzer {
            seed,
            iters,
            strategy,
            max_steps: 400,
            bypass_bound: None,
            shrink: true,
        }
    }

    /// Adjusts the per-run step limit.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Fails runs in which an instrumented-lock waiter is bypassed more
    /// than `k` times.
    pub fn with_bypass_bound(mut self, k: usize) -> Self {
        self.bypass_bound = Some(k);
        self
    }

    /// Disables schedule shrinking (report the raw failing schedule).
    pub fn without_shrink(mut self) -> Self {
        self.shrink = false;
        self
    }

    /// The explorer configuration backing each run — and the one a
    /// reported schedule must be replayed under.
    pub fn explorer(&self) -> Explorer {
        let mut e = Explorer::exhaustive()
            .with_max_steps(self.max_steps)
            .with_dpor(DporMode::None);
        e.bypass_bound = self.bypass_bound;
        e
    }

    /// Runs the campaign; `final_check` validates the final memory of
    /// every completed run, exactly as in [`Explorer::check`].
    pub fn run<F>(&self, program: &Program, final_check: F) -> FuzzReport
    where
        F: Fn(&[Word]) -> Result<(), String>,
    {
        let explorer = self.explorer();
        let mut master = Rng::new(self.seed);
        // Sampling never proves exhaustion.
        let mut stats = Stats::default();
        // PCT change-point horizon: longest schedule seen so far (a small
        // guess before the first run). Deterministic — it depends only on
        // earlier runs of the same seeded campaign.
        let mut observed_max = 0usize;
        let mut published = Stats::default();

        for iter in 0..self.iters {
            let horizon = if observed_max == 0 { 16 } else { observed_max.max(4) };
            let rng = master.fork(iter as u64);
            let mut chooser = Chooser::new(self.strategy, rng, program.nthreads(), horizon);
            let outcome = explorer.execute_with(
                program,
                Policy::External(&mut |step, eligible, _prev| chooser.choose(step, eligible)),
                false,
            );
            stats.runs += 1;
            stats.max_depth = stats.max_depth.max(outcome.trace.len());
            stats.publish(&mut published);
            observed_max = observed_max.max(outcome.trace.len());
            let schedule = outcome.schedule();

            let verdict = match outcome.end {
                RunEnd::Complete(memory) => match final_check(&memory) {
                    Ok(()) => None,
                    Err(message) => Some(Verdict::Violation {
                        schedule,
                        message,
                        stats,
                    }),
                },
                RunEnd::Pruned => {
                    stats.pruned += 1;
                    None
                }
                RunEnd::SleepBlocked => unreachable!("fuzz runs without reduction"),
                RunEnd::Diverged { step, choice } => {
                    unreachable!("chooser picked ineligible thread {choice} at step {step}")
                }
                RunEnd::Deadlock(blocked) => Some(Verdict::Deadlock {
                    schedule,
                    blocked,
                    stats,
                }),
                RunEnd::LostWakeup(parked) => Some(Verdict::LostWakeup {
                    schedule,
                    parked,
                    stats,
                }),
                RunEnd::Panic(message) => Some(Verdict::Violation {
                    schedule,
                    message,
                    stats,
                }),
                RunEnd::Race(report) => Some(Verdict::Race {
                    schedule,
                    report,
                    stats,
                }),
                RunEnd::Starvation(report) => Some(Verdict::Starvation {
                    schedule,
                    report,
                    stats,
                }),
            };

            if let Some(verdict) = verdict {
                let shrunk = if self.shrink {
                    shrink_schedule(program, &explorer, &verdict, &final_check)
                } else {
                    None
                };
                return FuzzReport {
                    verdict,
                    failing_iter: Some(iter),
                    shrunk,
                };
            }
        }
        FuzzReport {
            verdict: Verdict::Passed(stats),
            failing_iter: None,
            shrunk: None,
        }
    }
}

/// True when a replay ending reproduces the verdict's failure class.
///
/// `Violation` needs two forms because [`Explorer::replay`] does not run
/// the final-state invariant: an in-program panic replays as
/// [`ReplayEnd::Panic`], an invariant failure as a completed run whose
/// memory still fails `final_check`.
fn replay_matches<F>(verdict: &Verdict, end: &ReplayEnd, final_check: &F) -> bool
where
    F: Fn(&[Word]) -> Result<(), String>,
{
    match (verdict, end) {
        (Verdict::Deadlock { .. }, ReplayEnd::Deadlock(_)) => true,
        (Verdict::LostWakeup { .. }, ReplayEnd::LostWakeup(_)) => true,
        (Verdict::Race { .. }, ReplayEnd::Race(_)) => true,
        (Verdict::Starvation { .. }, ReplayEnd::Starvation(_)) => true,
        (Verdict::Violation { .. }, ReplayEnd::Panic(_)) => true,
        (Verdict::Violation { .. }, ReplayEnd::Complete(mem)) => final_check(mem).is_err(),
        _ => false,
    }
}

/// Greedily shrinks a failing verdict's schedule to a locally-minimal one
/// that still replays to the same verdict class under `explorer`.
///
/// Three move kinds, applied to a fixpoint, cheapest reduction first:
///
/// 1. **truncate** — cut the schedule at a context-switch boundary and
///    let the default policy finish the run (shortest surviving prefix
///    wins);
/// 2. **drop a run** — delete one maximal block of consecutive
///    same-thread steps, merging its neighbors when they are the same
///    thread (removes two context switches at once);
/// 3. **drop a step** — delete a single step.
///
/// Every accepted move strictly shortens the schedule, so the loop
/// terminates; the result is locally minimal with respect to the move
/// set. Returns `None` for a passing verdict (nothing to shrink).
pub fn shrink_schedule<F>(
    program: &Program,
    explorer: &Explorer,
    verdict: &Verdict,
    final_check: &F,
) -> Option<Shrunk>
where
    F: Fn(&[Word]) -> Result<(), String>,
{
    let schedule = verdict.schedule()?;
    let mut cur: Vec<usize> = schedule.to_vec();
    let mut replays = 0usize;
    let attempt = |cand: &[usize], replays: &mut usize| -> bool {
        *replays += 1;
        replay_matches(verdict, &explorer.replay(program, cand).end, final_check)
    };

    loop {
        let mut improved = false;

        // Move 1: truncation at context-switch boundaries, shortest first.
        let mut cuts: Vec<usize> = std::iter::once(0)
            .chain((1..cur.len()).filter(|&i| cur[i] != cur[i - 1]))
            .collect();
        cuts.retain(|&c| c < cur.len());
        for cut in cuts {
            if attempt(&cur[..cut], &mut replays) {
                cur.truncate(cut);
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }

        // Move 2: drop one maximal same-thread run.
        let runs = rle(&cur);
        if runs.len() > 1 {
            for skip in 0..runs.len() {
                let cand: Vec<usize> = runs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .flat_map(|(_, &(t, n))| std::iter::repeat_n(t, n))
                    .collect();
                if attempt(&cand, &mut replays) {
                    cur = cand;
                    improved = true;
                    break;
                }
            }
        }
        if improved {
            continue;
        }

        // Move 3: drop one step.
        for i in 0..cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if attempt(&cand, &mut replays) {
                cur = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    Some(Shrunk {
        schedule: cur,
        replays,
    })
}

/// Run-length encoding of a schedule: `(thread, count)` per maximal block.
fn rle(schedule: &[usize]) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &t in schedule {
        match runs.last_mut() {
            Some((rt, n)) if *rt == t => *n += 1,
            _ => runs.push((t, 1)),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{ProcCtx, SyncCtx};

    fn lost_update_program() -> Program {
        Program::new(2, 1, |ctx| {
            let v = ctx.load(0);
            ctx.store(0, v + 1);
        })
    }

    fn lost_update_check(mem: &[Word]) -> Result<(), String> {
        if mem[0] == 2 {
            Ok(())
        } else {
            Err(format!("lost update: counter = {}", mem[0]))
        }
    }

    #[test]
    fn uniform_finds_the_lost_update() {
        let program = lost_update_program();
        let report = Fuzzer::new(1, 200, Strategy::Uniform).run(&program, lost_update_check);
        assert!(report.verdict.is_violation(), "uniform walk must find it");
        assert!(report.failing_iter.is_some());
    }

    #[test]
    fn pct_finds_the_lost_update() {
        let program = lost_update_program();
        let report = Fuzzer::new(1, 200, Strategy::default()).run(&program, lost_update_check);
        assert!(report.verdict.is_violation(), "pct must find it");
    }

    #[test]
    fn atomic_counter_passes_the_whole_budget() {
        let program = Program::new(3, 1, |ctx| {
            ctx.fetch_add(0, 1);
        });
        let report = Fuzzer::new(7, 150, Strategy::default()).run(&program, |mem| {
            if mem[0] == 3 {
                Ok(())
            } else {
                Err(format!("counter = {}", mem[0]))
            }
        });
        report.expect_pass("atomic counter");
        assert_eq!(report.verdict.stats().runs, 150);
        assert!(
            !report.verdict.stats().complete,
            "sampling must never claim exhaustion"
        );
    }

    #[test]
    fn same_seed_same_schedule_and_verdict() {
        let program = lost_update_program();
        for strategy in [Strategy::Uniform, Strategy::default()] {
            let a = Fuzzer::new(42, 300, strategy).run(&program, lost_update_check);
            let b = Fuzzer::new(42, 300, strategy).run(&program, lost_update_check);
            assert_eq!(
                a.verdict.schedule(),
                b.verdict.schedule(),
                "{strategy}: schedules must be byte-identical"
            );
            assert_eq!(a.failing_iter, b.failing_iter);
            assert_eq!(
                format!("{:?}", a.verdict),
                format!("{:?}", b.verdict),
                "{strategy}: verdicts must be byte-identical"
            );
        }
    }

    #[test]
    fn fuzz_verdict_schedule_replays_to_the_same_class() {
        let program = lost_update_program();
        let fuzzer = Fuzzer::new(3, 300, Strategy::Uniform);
        let report = fuzzer.run(&program, lost_update_check);
        let schedule = report.verdict.schedule().expect("must fail").to_vec();
        let replay = fuzzer.explorer().replay(&program, &schedule);
        assert!(
            replay_matches(&report.verdict, &replay.end, &lost_update_check),
            "raw fuzz schedule must replay to the same verdict class, got {:?}",
            replay.end
        );
    }

    #[test]
    fn shrinking_reaches_a_minimal_lost_update() {
        // The minimal lost-update interleaving needs 3 scheduled steps:
        // t0 load, t1 load+store (or the mirror), then the default policy
        // finishes t0's stale store. Shrinking must get at least as short.
        let program = lost_update_program();
        let fuzzer = Fuzzer::new(5, 300, Strategy::Uniform);
        let report = fuzzer.run(&program, lost_update_check);
        let shrunk = report.shrunk.expect("shrinking is on by default");
        assert!(
            shrunk.schedule.len() <= 3,
            "shrunk schedule still long: {:?}",
            shrunk.schedule
        );
        let replay = fuzzer.explorer().replay(&program, &shrunk.schedule);
        assert!(
            replay_matches(&report.verdict, &replay.end, &lost_update_check),
            "shrunk schedule must reproduce the verdict, got {:?}",
            replay.end
        );
        assert!(shrunk.replays > 0);
    }

    #[test]
    fn fuzz_finds_lost_wakeup_as_lost_wakeup() {
        // Missing-wake program: the fuzzer must classify the hang exactly
        // as the explorer would — a LostWakeup, never a Deadlock.
        let program = Program::new(2, 1, |ctx| {
            if ctx.pid() == 0 {
                let mut cur = ctx.load(0);
                while cur == 0 {
                    cur = ctx.wait(0, 0, None).seen;
                }
            } else {
                ctx.store(0, 1); // no wake
            }
        });
        let report = Fuzzer::new(2, 100, Strategy::default()).run(&program, |_| Ok(()));
        match report.verdict {
            Verdict::LostWakeup { ref parked, .. } => {
                assert_eq!(parked, &vec![(0usize, 0usize)]);
            }
            ref other => panic!("expected lost wakeup, got {other:?}"),
        }
    }

    #[test]
    fn pct_demotions_are_bounded_by_change_points() {
        // A PCT chooser over 3 threads must stay deterministic and legal
        // across any eligible-set shape the scheduler can hand it.
        let mut c = Chooser::new(
            Strategy::Pct { change_points: 2 },
            Rng::new(9),
            3,
            50,
        );
        for step in 0..50 {
            let eligible: Vec<usize> = match step % 3 {
                0 => vec![0, 1, 2],
                1 => vec![1, 2],
                _ => vec![0, 2],
            };
            let pick = c.choose(step, &eligible);
            assert!(eligible.contains(&pick));
        }
    }

    #[test]
    fn strategy_parsing_round_trips_and_rejects_garbage() {
        assert_eq!(Strategy::parse("uniform").unwrap(), Strategy::Uniform);
        assert_eq!(
            Strategy::parse("pct").unwrap(),
            Strategy::Pct { change_points: 3 }
        );
        assert_eq!(
            Strategy::parse("pct:5").unwrap(),
            Strategy::Pct { change_points: 5 }
        );
        assert_eq!(Strategy::parse(" PCT:2 ").unwrap(), Strategy::Pct { change_points: 2 });
        assert!(Strategy::parse("pct:0").unwrap_err().contains("change point"));
        assert!(Strategy::parse("pct:x").unwrap_err().contains("not a positive integer"));
        assert!(Strategy::parse("dfs").unwrap_err().contains("unknown strategy"));
        for s in [Strategy::Uniform, Strategy::Pct { change_points: 4 }] {
            assert_eq!(Strategy::parse(&s.to_string()).unwrap(), s);
        }
    }

    #[test]
    fn rle_round_trips() {
        let s = [0usize, 0, 1, 1, 1, 0, 2];
        assert_eq!(rle(&s), vec![(0, 2), (1, 3), (0, 1), (2, 1)]);
        assert_eq!(rle(&[]), vec![]);
    }
}
