//! Schedule-replay depth-first exploration.
//!
//! The explorer re-executes the program under every schedule reachable by
//! replaying a decision prefix and branching at the deepest unexplored
//! point, subject to an optional preemption bound (Musuvathi & Qadeer).
//!
//! Two analysis layers ride on every execution:
//!
//! * a vector-clock **race detector** (see [`crate::race`]) that fails a
//!   run the moment two data accesses are happens-before concurrent, even
//!   when the final state happens to be correct;
//! * **bounded-bypass accounting** over instrumented-lock events, failing
//!   runs in which a waiter is bypassed more often than a configured bound
//!   ([`Explorer::with_bypass_bound`]).
//!
//! Exploration is pruned by **dynamic partial-order reduction**, in one of
//! two cumulative strengths ([`DporMode`]):
//!
//! * **sleep sets** (Godefroid): when a branch at some state has been
//!   fully explored, the chosen thread is put to sleep in the sibling
//!   branches and stays asleep until another thread performs an operation
//!   *dependent* on its pending one. A state whose enabled threads are all
//!   asleep need not be explored further — every continuation from it is a
//!   reordering of independent operations already covered
//!   ([`Stats::sleep_pruned`] counts the cut-off executions). Sleep sets
//!   prune *subtrees already covered*, but still branch on every eligible
//!   sibling first.
//! * **source sets** (Abdulla, Aronis, Jonsson & Sagonas): instead of
//!   branching on every eligible sibling, each executed run is analysed
//!   with dependence-order vector clocks ([`crate::race`]); only when two
//!   dependent steps turn out to be *unordered* (a reversible race) is a
//!   backtrack point planted at the earlier step, and only for a thread
//!   that can actually start the reversed trace (an *initial* of the
//!   not-dependent suffix). Siblings never named by any race are skipped
//!   outright ([`Stats::dpor_pruned`] counts them).
//!
//! Both preserve every Mazurkiewicz trace, hence all safety
//! violations, deadlocks and lost wakeups — the enabled sets driving the
//! reduction are park/unpark-aware, so [`Verdict::LostWakeup`] hangs are
//! maximal executions the reduction must (and does) keep.
//! [`DporMode::None`] ([`Explorer::with_dpor`]) turns all reduction off
//! for comparison;
//! bounded-bypass starvation checking forces it off automatically, because
//! bypass counts are *not* invariant under reordering independent steps.
//!
//! **Execution model.** A search runs on the host thread that called it:
//! each explored schedule executes the program's threads as coroutines on
//! that thread ([`simcore::coro`], the transport `memsim` runs simulated
//! processors on), resumed one at a time by the scheduler loop in
//! `Explorer::execute_with`. [`Explorer::check_parallel`] is the only place
//! host threads appear — one per worker, each owning the coroutines of the
//! schedules it explores. What that asks of a program's body is on
//! [`Program::new`].
//!
//! [`Explorer::check_parallel`] fans the search out over a worker pool
//! deterministically: the top [`DPOR_SPLIT_DEPTH`] levels are expanded
//! into an explicit task list under sleep-set semantics (so cross-task
//! backtrack insertions are satisfied by construction), tasks run on any
//! number of workers, and verdict/stats merge in task order — the result
//! is byte-identical for 1, 2 or N workers.

use crate::program::{
    OpMeta, OpRecord, Program, RunCfg, RunState, Shared, StarvationReport, TState,
};
use crate::race::{DporAnalysis, RaceReport};
use kernels::{Addr, Word};
use simcore::coro::Coroutine;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which dynamic partial-order reduction the explorer runs with; see the
/// module docs for what each level adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DporMode {
    /// No reduction: branch on every enabled thread at every step.
    None,
    /// Sleep-set pruning only (the pre-source-set explorer).
    Sleep,
    /// Sleep sets + source sets: branch only where an executed run shows a
    /// reversible race. The default for [`Explorer::exhaustive`].
    Source,
}

impl DporMode {
    /// Parses a CLI spelling: `none`, `sleep` or `source`.
    pub fn parse(s: &str) -> Result<DporMode, String> {
        match s {
            "none" => Ok(DporMode::None),
            "sleep" => Ok(DporMode::Sleep),
            "source" => Ok(DporMode::Source),
            other => Err(format!(
                "unknown DPOR mode {other:?}; expected none, sleep or source"
            )),
        }
    }
}

impl std::fmt::Display for DporMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DporMode::None => "none",
            DporMode::Sleep => "sleep",
            DporMode::Source => "source",
        })
    }
}

/// Exploration statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Executions performed.
    pub runs: usize,
    /// Executions cut off at the step limit (possible livelock branches —
    /// expected for unfair schedules of retry-loop locks).
    pub pruned: usize,
    /// Executions cut off by sleep-set reduction: every continuation was a
    /// reordering of independent steps already covered elsewhere.
    pub sleep_pruned: usize,
    /// Sibling subtrees skipped by source-set filtering: eligible threads
    /// at some decision that no reversible race ever named, so scheduling
    /// them there could only reorder independent steps. Zero under
    /// [`DporMode::Sleep`], which branches on every eligible sibling.
    pub dpor_pruned: usize,
    /// True when the bounded schedule space was fully explored rather than
    /// stopped at `max_runs`.
    pub complete: bool,
    /// Deepest schedule reached, in steps.
    pub max_depth: usize,
}

/// What every search of this process has counted so far, whichever thread
/// runs it: the totals behind [`Stats::live`].
static LIVE: Mutex<Stats> = Mutex::new(Stats {
    runs: 0,
    pruned: 0,
    sleep_pruned: 0,
    dpor_pruned: 0,
    complete: false,
    max_depth: 0,
});

impl Stats {
    /// The running totals of every search this process has executed,
    /// finished or still in flight on any thread — what a front end polls
    /// to say what a long search is doing (`complete` is always false).
    /// `runs` and `max_depth` are exact; the pruning counts lag a search by
    /// at most its current run.
    pub fn live() -> Stats {
        *LIVE.lock().expect("only additions run under this lock")
    }

    /// Adds to the process-wide totals what this search has counted since
    /// `published`, its own record of what it added before. Called once per
    /// execution.
    pub(crate) fn publish(&self, published: &mut Stats) {
        let mut live = LIVE.lock().expect("only additions run under this lock");
        live.runs += self.runs - published.runs;
        live.pruned += self.pruned - published.pruned;
        live.sleep_pruned += self.sleep_pruned - published.sleep_pruned;
        live.dpor_pruned += self.dpor_pruned - published.dpor_pruned;
        live.max_depth = live.max_depth.max(self.max_depth);
        *published = *self;
    }

    /// Order-insensitive merge for parallel exploration: counters add,
    /// depth maxes, completeness ands.
    fn absorb(&mut self, other: Stats) {
        self.runs += other.runs;
        self.pruned += other.pruned;
        self.sleep_pruned += other.sleep_pruned;
        self.dpor_pruned += other.dpor_pruned;
        self.complete &= other.complete;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// Result of checking a program.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// No schedule within the bounds produced a violation.
    Passed(Stats),
    /// A schedule was found under which every unfinished thread is blocked.
    Deadlock {
        /// The thread choices, step by step, that reproduce the deadlock.
        schedule: Vec<usize>,
        /// Which threads were blocked, on which address (spinners and
        /// futex-parked threads alike).
        blocked: Vec<(usize, Addr)>,
        /// Statistics up to discovery.
        stats: Stats,
    },
    /// A schedule was found under which every unfinished thread is parked
    /// in a futex wait with no thread left to wake it — the **lost
    /// wakeup**, the bug class the futex's atomic compare-and-block
    /// exists to prevent. Distinguished from [`Verdict::Deadlock`]
    /// because the fix differs: a deadlock is a cyclic wait, a lost
    /// wakeup is a wake issued before the sleeper committed to sleeping
    /// (or never issued at all).
    LostWakeup {
        /// The thread choices, step by step, that reproduce the hang.
        schedule: Vec<usize>,
        /// Which threads were parked, on which address.
        parked: Vec<(usize, Addr)>,
        /// Statistics up to discovery.
        stats: Stats,
    },
    /// An in-program assertion or the final-state invariant failed.
    Violation {
        /// The thread choices, step by step, that reproduce the failure.
        schedule: Vec<usize>,
        /// The assertion / invariant message.
        message: String,
        /// Statistics up to discovery.
        stats: Stats,
    },
    /// Two data accesses were happens-before concurrent under some
    /// schedule — a data race, regardless of the final state.
    Race {
        /// The thread choices, step by step, that reproduce the race.
        schedule: Vec<usize>,
        /// Both access sites and the word involved.
        report: RaceReport,
        /// Statistics up to discovery.
        stats: Stats,
    },
    /// A waiter was bypassed more than the configured bound allows while
    /// other threads kept acquiring the lock (starvation / unbounded
    /// bypass).
    Starvation {
        /// The thread choices, step by step, that reproduce the bypasses.
        schedule: Vec<usize>,
        /// Victim, lock and bypass count.
        report: StarvationReport,
        /// Statistics up to discovery.
        stats: Stats,
    },
}

impl Verdict {
    /// True for every verdict except [`Verdict::Passed`].
    pub fn is_violation(&self) -> bool {
        !matches!(self, Verdict::Passed(_))
    }

    /// The statistics regardless of outcome.
    pub fn stats(&self) -> Stats {
        match self {
            Verdict::Passed(s) => *s,
            Verdict::Deadlock { stats, .. }
            | Verdict::LostWakeup { stats, .. }
            | Verdict::Violation { stats, .. }
            | Verdict::Race { stats, .. }
            | Verdict::Starvation { stats, .. } => *stats,
        }
    }

    /// The reproducing schedule, when the verdict carries one.
    pub fn schedule(&self) -> Option<&[usize]> {
        match self {
            Verdict::Passed(_) => None,
            Verdict::Deadlock { schedule, .. }
            | Verdict::LostWakeup { schedule, .. }
            | Verdict::Violation { schedule, .. }
            | Verdict::Race { schedule, .. }
            | Verdict::Starvation { schedule, .. } => Some(schedule),
        }
    }

    /// Replaces the carried statistics (parallel merge rewrites a task's
    /// local stats with the deterministic task-order aggregate).
    fn with_stats(mut self, stats: Stats) -> Verdict {
        match &mut self {
            Verdict::Passed(s) => *s = stats,
            Verdict::Deadlock { stats: s, .. }
            | Verdict::LostWakeup { stats: s, .. }
            | Verdict::Violation { stats: s, .. }
            | Verdict::Race { stats: s, .. }
            | Verdict::Starvation { stats: s, .. } => *s = stats,
        }
        self
    }

    /// Panics with a readable report if the verdict is a violation.
    pub fn expect_pass(&self, what: &str) {
        match self {
            Verdict::Passed(_) => {}
            Verdict::Deadlock {
                schedule, blocked, ..
            } => panic!("{what}: deadlock under schedule {schedule:?}; blocked: {blocked:?}"),
            Verdict::LostWakeup {
                schedule, parked, ..
            } => panic!("{what}: lost wakeup under schedule {schedule:?}; parked: {parked:?}"),
            Verdict::Violation {
                schedule, message, ..
            } => panic!("{what}: violation under schedule {schedule:?}: {message}"),
            Verdict::Race {
                schedule, report, ..
            } => panic!("{what}: {report} under schedule {schedule:?}"),
            Verdict::Starvation {
                schedule, report, ..
            } => panic!("{what}: {report} under schedule {schedule:?}"),
        }
    }
}

/// One scheduling decision in a trace, with the alternatives that existed.
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    /// Branchable choices at this point: enabled threads not in the sleep
    /// set (all enabled threads when reduction is off), in id order.
    eligible: Vec<usize>,
    /// Bitmask of *all* enabled threads here, sleeping or not — backtrack
    /// insertion must distinguish "asleep" (covered elsewhere) from
    /// "disabled" (needs the conservative fallback).
    enabled: u64,
    chosen: usize,
    /// The operation `chosen` executed at this step (its pending op at
    /// grant time) — the input to the dependence-clock race analysis.
    op: Option<OpMeta>,
    /// Bitmask over thread ids already tried at this point.
    tried: u64,
    /// Threads worth exploring here. The sleep and none modes seed this
    /// with every eligible thread; source mode seeds it with `chosen`
    /// alone and grows it only where race analysis plants backtrack points.
    backtrack: u64,
    /// Thread that took the previous step (None at step 0).
    prev: Option<usize>,
    /// Preemptions accumulated strictly before this step.
    preempts_before: usize,
}

impl Frame {
    fn is_preemption(&self, choice: usize) -> bool {
        match self.prev {
            Some(prev) => prev != choice && self.eligible.contains(&prev),
            None => false,
        }
    }

    fn preempts_after(&self) -> usize {
        self.preempts_before + usize::from(self.is_preemption(self.chosen))
    }

    /// Sibling choices fully explored before the current one — the seed of
    /// the child's sleep set when this frame is replayed.
    fn done_mask(&self) -> u64 {
        self.tried & !(1u64 << self.chosen)
    }

    fn eligible_mask(&self) -> u64 {
        self.eligible.iter().fold(0u64, |m, &t| m | (1u64 << t))
    }

    /// Respects the preemption bound for choosing `choice` at this frame.
    fn budget_ok(&self, bound: Option<usize>, choice: usize) -> bool {
        match bound {
            None => true,
            Some(k) => self.preempts_before + usize::from(self.is_preemption(choice)) <= k,
        }
    }
}

/// How one execution ended.
#[derive(Debug)]
pub(crate) enum RunEnd {
    Complete(Vec<Word>),
    Pruned,
    /// Every enabled thread was asleep: all continuations are reorderings
    /// of independent steps covered by sibling branches.
    SleepBlocked,
    Deadlock(Vec<(usize, Addr)>),
    /// Every unfinished thread was futex-parked with nobody left to wake it.
    LostWakeup(Vec<(usize, Addr)>),
    Panic(String),
    Race(RaceReport),
    Starvation(StarvationReport),
    /// A prefix choice was not eligible at its step. Unreachable during
    /// exploration (prefixes extend explored traces); reachable from
    /// [`Explorer::replay`], whose schedule is caller-supplied.
    Diverged { step: usize, choice: usize },
}

/// Outcome of one execution: the trace of decisions plus the ending.
pub(crate) struct RunOutcome {
    pub(crate) trace: Vec<Frame>,
    pub(crate) end: RunEnd,
    /// Per-step op log (only when requested, i.e. during replay).
    pub(crate) ops: Vec<OpRecord>,
}

impl RunOutcome {
    /// The thread choice taken at each step, in order.
    pub(crate) fn schedule(&self) -> Vec<usize> {
        self.trace.iter().map(|f| f.chosen).collect()
    }
}

/// An external schedule chooser, called as `(step, eligible, prev) -> chosen`.
pub(crate) type ExternalChooser<'a> = &'a mut dyn FnMut(usize, &[usize], Option<usize>) -> usize;

/// How one execution picks the next thread; see [`Explorer::execute_with`].
pub(crate) enum Policy<'a> {
    /// Follow a decision prefix (choice plus fully-explored sibling mask
    /// per step), then the default policy (stay on the previous thread,
    /// else lowest id). Sleep-set reduction applies when enabled.
    Dfs {
        /// `(chosen, done_mask)` per already-decided step.
        prefix: &'a [(usize, u64)],
    },
    /// Delegate every decision to an external chooser called as
    /// `(step, eligible, prev) -> chosen`. Sleep-set reduction is ignored:
    /// a sampler must see the full enabled set, and the sleep-set
    /// soundness argument (sibling branches cover the reorderings) does
    /// not hold for a random walk that never explores siblings.
    External(ExternalChooser<'a>),
}

/// How a replayed schedule ended; see [`Explorer::replay`].
#[derive(Debug, Clone)]
pub enum ReplayEnd {
    /// All threads finished; final memory attached.
    Complete(Vec<Word>),
    /// The step limit was hit before the program finished.
    StepLimit,
    /// Every unfinished thread was blocked.
    Deadlock(Vec<(usize, Addr)>),
    /// Every unfinished thread was futex-parked with nobody left to wake
    /// it: a lost wakeup.
    LostWakeup(Vec<(usize, Addr)>),
    /// An in-program assertion failed.
    Panic(String),
    /// The race detector fired.
    Race(RaceReport),
    /// The bypass bound was exceeded.
    Starvation(StarvationReport),
    /// The schedule named a thread that was not runnable at that step —
    /// it is not a schedule this program can produce (wrong thread count,
    /// edited by hand, or recorded from a different program).
    Diverged {
        /// The step at which the schedule stopped making sense.
        step: usize,
        /// The thread it asked for.
        choice: usize,
    },
}

/// A deterministic re-execution of a recorded schedule, with the full
/// operation log.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The thread choice actually taken at each step.
    pub schedule: Vec<usize>,
    /// Every operation executed, in order.
    pub ops: Vec<OpRecord>,
    /// How the re-execution ended.
    pub end: ReplayEnd,
}

impl Replay {
    /// Human-readable narration of the replay, one line per operation.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for op in &self.ops {
            let _ = writeln!(out, "{op}");
        }
        match &self.end {
            ReplayEnd::Complete(mem) => {
                let _ = writeln!(out, "completed; final memory = {mem:?}");
            }
            ReplayEnd::StepLimit => {
                let _ = writeln!(out, "stopped at step limit");
            }
            ReplayEnd::Deadlock(blocked) => {
                let _ = writeln!(out, "deadlock; blocked: {blocked:?}");
            }
            ReplayEnd::LostWakeup(parked) => {
                let _ = writeln!(out, "lost wakeup; parked: {parked:?}");
            }
            ReplayEnd::Panic(msg) => {
                let _ = writeln!(out, "panic: {msg}");
            }
            ReplayEnd::Race(r) => {
                let _ = writeln!(out, "{r}");
            }
            ReplayEnd::Starvation(s) => {
                let _ = writeln!(out, "{s}");
            }
            ReplayEnd::Diverged { step, choice } => {
                let _ = writeln!(
                    out,
                    "schedule diverged at step {step}: thread {choice} is not \
                     runnable there (not a schedule of this program)"
                );
            }
        }
        out
    }
}

/// The depth-first schedule explorer.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Abandon any single execution after this many steps (livelock guard).
    pub max_steps: usize,
    /// Stop exploring after this many executions (completeness then lost).
    pub max_runs: usize,
    /// Maximum involuntary context switches per schedule; `None` = unbounded
    /// (true exhaustive search — explodes beyond toy programs).
    pub preemption_bound: Option<usize>,
    /// Which dynamic partial-order reduction to run with.
    pub dpor: DporMode,
    /// Fail runs in which a lock waiter is bypassed more than this many
    /// times (requires an instrumented lock emitting lock events).
    pub bypass_bound: Option<usize>,
}

impl Explorer {
    /// Full DFS with no preemption bound; only viable for small programs.
    /// Retry-loop algorithms (plain test-and-set) have unbounded schedule
    /// trees — use [`Explorer::bounded`] for those. Runs with source-set
    /// reduction, the strongest mode.
    pub fn exhaustive() -> Self {
        Explorer {
            max_steps: 150,
            max_runs: 50_000,
            preemption_bound: None,
            dpor: DporMode::Source,
            bypass_bound: None,
        }
    }

    /// DFS restricted to schedules with at most `k` preemptions — the
    /// practical mode for whole-lock checking. Runs with sleep sets only:
    /// a preemption bound already makes the search heuristic, and source
    /// sets would plant backtrack points the bound then refuses to take,
    /// narrowing the bounded search in harder-to-predict ways.
    pub fn bounded(k: usize) -> Self {
        Explorer {
            max_steps: 150,
            max_runs: 20_000,
            preemption_bound: Some(k),
            dpor: DporMode::Sleep,
            bypass_bound: None,
        }
    }

    /// Adjusts the per-execution step limit.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Adjusts the execution budget.
    pub fn with_max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// Selects the partial-order-reduction mode.
    pub fn with_dpor(mut self, mode: DporMode) -> Self {
        self.dpor = mode;
        self
    }

    /// Fails any run in which a waiter on an instrumented lock is bypassed
    /// more than `k` times (bounded-bypass / starvation checking).
    pub fn with_bypass_bound(mut self, k: usize) -> Self {
        self.bypass_bound = Some(k);
        self
    }

    /// Sleep sets (and their source-set refinement) identify schedules
    /// that differ only in the order of independent
    /// operations — sound for races, deadlocks and final states, all
    /// invariant under such reorderings. Bypass counts are not: lock
    /// events attach to operations on unrelated words, so two "equivalent"
    /// schedules can differ in who overtook whom. Starvation checking
    /// therefore runs unreduced.
    fn normalized(&self) -> Explorer {
        let mut me = *self;
        if me.bypass_bound.is_some() {
            me.dpor = DporMode::None;
        }
        me
    }

    /// Explores the program's schedules; `final_check` validates the final
    /// memory of every completed execution.
    pub fn check<F>(&self, program: &Program, final_check: F) -> Verdict
    where
        F: Fn(&[Word]) -> Result<(), String>,
    {
        self.normalized().explore(
            program,
            &final_check,
            Vec::new(),
            Stats {
                complete: true,
                ..Stats::default()
            },
        )
    }

    /// The exploration loop, rooted at a fixed decision prefix `stack`
    /// (empty for [`Explorer::check`]; a fan-out task prefix for
    /// [`Explorer::check_parallel`]). Frames at or below the root prefix
    /// are never branched on — their siblings belong to other tasks.
    fn explore<F>(
        &self,
        program: &Program,
        final_check: &F,
        mut stack: Vec<Frame>,
        mut stats: Stats,
    ) -> Verdict
    where
        F: Fn(&[Word]) -> Result<(), String>,
    {
        let base_len = stack.len();
        let mut published = Stats::default();
        loop {
            if stats.runs >= self.max_runs {
                stats.complete = false;
                return Verdict::Passed(stats);
            }
            let prefix: Vec<(usize, u64)> =
                stack.iter().map(|f| (f.chosen, f.done_mask())).collect();
            let outcome = self.execute(program, &prefix, false);
            stats.runs += 1;
            stats.max_depth = stats.max_depth.max(outcome.trace.len());
            stats.publish(&mut published);

            // Adopt the decisions taken beyond the replayed prefix, and
            // refresh the prefix frames' observed operations: a backtrack
            // rewrote `chosen` on its target frame, so the op recorded
            // when the *previous* choice ran there is stale until this
            // re-execution observes the new thread's pending op.
            let analyzed_len = stack.len();
            for (idx, f) in outcome.trace.into_iter().enumerate() {
                if idx < analyzed_len {
                    debug_assert_eq!(stack[idx].chosen, f.chosen, "prefix replays verbatim");
                    stack[idx].op = f.op;
                } else {
                    stack.push(f);
                }
            }
            let schedule: Vec<usize> = stack.iter().map(|f| f.chosen).collect();

            match outcome.end {
                RunEnd::Complete(memory) => {
                    if let Err(message) = final_check(&memory) {
                        return Verdict::Violation {
                            schedule,
                            message,
                            stats,
                        };
                    }
                }
                RunEnd::Pruned => stats.pruned += 1,
                RunEnd::SleepBlocked => stats.sleep_pruned += 1,
                RunEnd::Deadlock(blocked) => {
                    return Verdict::Deadlock {
                        schedule,
                        blocked,
                        stats,
                    }
                }
                RunEnd::LostWakeup(parked) => {
                    return Verdict::LostWakeup {
                        schedule,
                        parked,
                        stats,
                    }
                }
                RunEnd::Panic(message) => {
                    return Verdict::Violation {
                        schedule,
                        message,
                        stats,
                    }
                }
                RunEnd::Race(report) => {
                    return Verdict::Race {
                        schedule,
                        report,
                        stats,
                    }
                }
                // Stack prefixes replay decisions the explorer itself took.
                RunEnd::Diverged { step, choice } => unreachable!(
                    "exploration prefix chose ineligible thread {choice} at step {step}"
                ),
                RunEnd::Starvation(report) => {
                    return Verdict::Starvation {
                        schedule,
                        report,
                        stats,
                    }
                }
            }

            // Source-set analysis: replay the run through the dependence
            // clocks; every reversible race (i, j) with j among the
            // newly-adopted steps plants a backtrack point at frame i.
            // Races wholly inside the replayed prefix were analysed when
            // those steps were first adopted (the replay is deterministic,
            // so the clocks agree run over run).
            if self.dpor == DporMode::Source {
                // The last replayed frame is the backtrack target whose
                // `chosen` this run rewrote: it has not been analysed
                // under its new operation yet, so insertion starts one
                // frame before the adopted suffix. (Re-running an
                // insertion is harmless — the covered-check makes it a
                // no-op.) Everything earlier replays verbatim and was
                // analysed when first adopted.
                let insert_from = analyzed_len.saturating_sub(1).max(base_len);
                let mut an = DporAnalysis::new(program.nthreads);
                for j in 0..stack.len() {
                    let races = an.push_step(stack[j].chosen, stack[j].op);
                    if j < insert_from {
                        continue;
                    }
                    for i in races {
                        if i >= base_len {
                            Self::insert_backtrack(&mut stack, &an, i, j);
                        }
                        // Races into the root prefix are covered by the
                        // fan-out's full sibling expansion there.
                    }
                }
            }

            // Backtrack: advance the deepest frame with an untried,
            // bound-respecting backtrack choice (every eligible sibling in
            // sleep/none modes); drop exhausted frames, but never branch
            // at or below the task root.
            loop {
                if stack.len() <= base_len {
                    return Verdict::Passed(stats);
                }
                let bound = self.preemption_bound;
                let top = stack.last_mut().expect("stack nonempty");
                let next = top.eligible.iter().copied().find(|&c| {
                    top.tried & (1 << c) == 0
                        && top.backtrack & (1 << c) != 0
                        && top.budget_ok(bound, c)
                });
                match next {
                    Some(c) => {
                        top.tried |= 1 << c;
                        top.chosen = c;
                        break;
                    }
                    None => {
                        stats.dpor_pruned += top
                            .eligible
                            .iter()
                            .filter(|&&c| {
                                top.tried & (1 << c) == 0 && top.backtrack & (1 << c) == 0
                            })
                            .count();
                        stack.pop();
                    }
                }
            }
        }
    }

    /// Plants a backtrack point for the reversible race `(i, j)`:
    /// computes `v = notdep(i, E)·proc(j)` (the shortest continuation from
    /// just before step `i` that runs the race the other way around), its
    /// initial threads, and — unless an initial is already in frame `i`'s
    /// backtrack set — adds one.
    fn insert_backtrack(stack: &mut [Frame], an: &DporAnalysis, i: usize, j: usize) {
        // The events between i and j that do NOT happen-after step i: they
        // stay executable when step i is postponed.
        let v: Vec<usize> = ((i + 1)..j).filter(|&k| !an.hb(i, k)).collect();
        // Initial threads of v·proc(j): a thread whose first event in the
        // sequence has no happens-before predecessor inside it can start
        // the reversed trace. For events of v this reduces to "no earlier
        // v-event is directly dependent with it" (its program-order
        // predecessors are outside v). Step j itself can additionally be
        // ordered through events *outside* v (they all happen-after i and
        // before j), which its full clock knows about.
        let mut seen: u64 = 0;
        let mut initials: u64 = 0;
        for (x, &k) in v.iter().enumerate() {
            let t = an.tid(k);
            if seen & (1 << t) != 0 {
                continue;
            }
            seen |= 1 << t;
            if v[..x].iter().all(|&f| !an.steps_dependent(f, k)) {
                initials |= 1 << t;
            }
        }
        let tj = an.tid(j);
        if seen & (1 << tj) == 0 && v.iter().all(|&f| !an.hb(f, j)) {
            initials |= 1 << tj;
        }
        debug_assert!(initials != 0, "v's first event is always initial");

        let frame = &mut stack[i];
        if frame.backtrack & initials != 0 {
            return; // some initial is already scheduled for exploration
        }
        let eligible = frame.eligible_mask();
        // Prefer the racing thread, else the lowest eligible initial, else
        // any enabled (asleep ⇒ covered), else the conservative
        // every-sibling fallback.
        let pick = if initials & eligible & (1 << tj) != 0 {
            Some(tj)
        } else {
            (0..an.nthreads()).find(|&t| initials & eligible & (1 << t) != 0)
        };
        match pick {
            Some(q) => frame.backtrack |= 1 << q,
            None => {
                if initials & frame.enabled == 0 {
                    frame.backtrack |= eligible;
                }
            }
        }
    }

    /// Like [`Explorer::check`], but explores with `workers` host threads.
    ///
    /// The result is **independent of the worker count**: a deterministic
    /// serial fan-out first enumerates every decision prefix of depth
    /// [`DPOR_SPLIT_DEPTH`] under sleep-set semantics (full sibling
    /// expansion, so no backtrack point ever needs to cross a task
    /// boundary), workers then explore those subtree tasks in any order,
    /// and the merge walks tasks in fan-out order — summing [`Stats`] and
    /// reporting the violation from the earliest task that found one.
    /// Workers racing past a known earlier violation only *skip* work;
    /// they can never change which verdict wins. `max_runs` applies per
    /// task.
    pub fn check_parallel<F>(&self, program: &Program, final_check: F, workers: usize) -> Verdict
    where
        F: Fn(&[Word]) -> Result<(), String> + Sync,
    {
        let me = self.normalized();
        let workers = workers.max(1);
        let (tasks, gen_stats) = me.fan_out(program, DPOR_SPLIT_DEPTH.min(me.max_steps));
        let slots: Vec<Mutex<Option<Verdict>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // Lowest task index known to hold a violation; tasks after it are
        // skippable (their verdicts would lose the task-order merge).
        let first_bad = AtomicUsize::new(usize::MAX);
        std::thread::scope(|scope| {
            for _ in 0..workers.min(tasks.len().max(1)) {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= tasks.len() {
                        break;
                    }
                    if idx > first_bad.load(Ordering::Acquire) {
                        continue;
                    }
                    let v = me.explore(
                        program,
                        &final_check,
                        tasks[idx].clone(),
                        Stats {
                            complete: true,
                            ..Stats::default()
                        },
                    );
                    if !matches!(v, Verdict::Passed(_)) {
                        first_bad.fetch_min(idx, Ordering::AcqRel);
                    }
                    *slots[idx].lock().unwrap() = Some(v);
                });
            }
        });
        let mut stats = gen_stats;
        for slot in slots {
            let v = slot
                .into_inner()
                .unwrap()
                .expect("tasks at or before the first violation always complete");
            let violation = !matches!(v, Verdict::Passed(_));
            stats.absorb(v.stats());
            if violation {
                return v.with_stats(stats);
            }
        }
        Verdict::Passed(stats)
    }

    /// Enumerates every decision prefix of length ≤ `depth` as a task for
    /// [`Explorer::check_parallel`], via a sleep-set DFS truncated at
    /// `depth`. Sleep mode expands *every* eligible sibling at each of
    /// these shallow frames, so any backtrack point a task's race analysis
    /// would plant below `depth` already exists as another task — cross-
    /// task insertions can be skipped outright. Runs that end before the
    /// split depth (complete or stuck) become tasks too: phase two replays
    /// and classifies them under the full reduction mode.
    fn fan_out(&self, program: &Program, depth: usize) -> (Vec<Vec<Frame>>, Stats) {
        let mut generator = *self;
        if generator.dpor != DporMode::None {
            generator.dpor = DporMode::Sleep;
        }
        generator.max_steps = depth;
        let mut tasks: Vec<Vec<Frame>> = Vec::new();
        let mut stats = Stats {
            complete: true,
            ..Stats::default()
        };
        let mut stack: Vec<Frame> = Vec::new();
        let mut published = Stats::default();
        loop {
            let prefix: Vec<(usize, u64)> =
                stack.iter().map(|f| (f.chosen, f.done_mask())).collect();
            let outcome = generator.execute(program, &prefix, false);
            stats.runs += 1;
            stats.publish(&mut published);
            // Same prefix-op refresh as in `explore`: the task frames'
            // recorded ops feed phase two's race analysis.
            let replayed = stack.len();
            for (idx, f) in outcome.trace.into_iter().enumerate() {
                if idx < replayed {
                    stack[idx].op = f.op;
                } else {
                    stack.push(f);
                }
            }
            match outcome.end {
                RunEnd::SleepBlocked => stats.sleep_pruned += 1,
                RunEnd::Diverged { step, choice } => unreachable!(
                    "fan-out prefix chose ineligible thread {choice} at step {step}"
                ),
                // Pruned here just means the run reached the split depth —
                // a task boundary, not a step-limit event, so it is not
                // counted in `stats.pruned`.
                _ => tasks.push(stack.clone()),
            }
            loop {
                let Some(top) = stack.last_mut() else {
                    return (tasks, stats);
                };
                let next = top.eligible.iter().copied().find(|&c| {
                    top.tried & (1 << c) == 0 && top.budget_ok(self.preemption_bound, c)
                });
                match next {
                    Some(c) => {
                        top.tried |= 1 << c;
                        top.chosen = c;
                        break;
                    }
                    None => {
                        stack.pop();
                    }
                }
            }
        }
    }

    /// Deterministically re-executes a recorded schedule (from
    /// [`Verdict::schedule`]), returning the per-step operation log and the
    /// ending. Past the end of `schedule` the default policy continues
    /// (stay on the previous thread, else lowest-id enabled), so a
    /// truncated schedule still replays meaningfully.
    pub fn replay(&self, program: &Program, schedule: &[usize]) -> Replay {
        let prefix: Vec<(usize, u64)> = schedule.iter().map(|&c| (c, 0)).collect();
        // Reduction must not cut a forced replay short.
        let mut one_shot = *self;
        one_shot.dpor = DporMode::None;
        let outcome = one_shot.execute(program, &prefix, true);
        let end = match outcome.end {
            RunEnd::Complete(memory) => ReplayEnd::Complete(memory),
            RunEnd::Pruned => ReplayEnd::StepLimit,
            RunEnd::SleepBlocked => unreachable!("replay runs without reduction"),
            RunEnd::Deadlock(blocked) => ReplayEnd::Deadlock(blocked),
            RunEnd::LostWakeup(parked) => ReplayEnd::LostWakeup(parked),
            RunEnd::Panic(msg) => ReplayEnd::Panic(msg),
            RunEnd::Race(r) => ReplayEnd::Race(r),
            RunEnd::Starvation(s) => ReplayEnd::Starvation(s),
            RunEnd::Diverged { step, choice } => ReplayEnd::Diverged { step, choice },
        };
        Replay {
            schedule: outcome.trace.iter().map(|f| f.chosen).collect(),
            ops: outcome.ops,
            end,
        }
    }

    /// One execution following `prefix` (thread choice plus the sibling
    /// set already fully explored at that decision), then the default
    /// policy (continue the previous thread when eligible, else the
    /// lowest-id eligible thread).
    fn execute(&self, program: &Program, prefix: &[(usize, u64)], record_ops: bool) -> RunOutcome {
        self.execute_with(program, Policy::Dfs { prefix }, record_ops)
    }

    /// One execution under an arbitrary scheduling policy. This is the
    /// single scheduler loop every mode shares: DFS exploration and replay
    /// run it with [`Policy::Dfs`], the random fuzzer ([`crate::fuzz`])
    /// with [`Policy::External`] — so park/unpark semantics, the race
    /// detector, lockdep, and bypass accounting behave identically under
    /// exhaustive search and random sampling.
    ///
    /// The program's threads are coroutines on the calling thread
    /// ([`crate::program`]): the loop decides, resumes the chosen one until
    /// its next operation, and decides again. Nothing else runs meanwhile,
    /// so a run spawns no thread and takes no lock.
    pub(crate) fn execute_with(
        &self,
        program: &Program,
        mut policy: Policy<'_>,
        record_ops: bool,
    ) -> RunOutcome {
        let cfg = RunCfg {
            bypass_bound: self.bypass_bound,
            lockdep: program.lockdep.clone(),
            record_ops,
        };
        let rs: RunState = Rc::new(RefCell::new(Shared::new(
            program.initial_memory(),
            program.nthreads,
            cfg,
        )));
        let mut threads: Vec<Coroutine<'_>> = (0..program.nthreads)
            .map(|pid| {
                let rs = Rc::clone(&rs);
                Coroutine::new(move || program.run_thread(pid, rs))
            })
            .collect();
        let mut trace: Vec<Frame> = Vec::new();
        // Threads enabled-but-asleep at the current state: scheduling them
        // here is covered by an already-explored sibling branch. Replayed
        // deterministically from the prefix's done-masks.
        let mut sleep: u64 = 0;
        let reduction = self.dpor != DporMode::None && matches!(policy, Policy::Dfs { .. });

        // Every body runs to its first operation before any decision is
        // taken — and so, should the run be torn down, is suspended in one.
        for thread in &mut threads {
            thread.resume();
        }
        let end = loop {
            // Nobody is mid-step here: every thread is suspended at a
            // schedule point or finished. The borrow ends before the resume
            // at the bottom of the loop.
            let mut g = rs.borrow_mut();
            if let Some(report) = g.race_report.take() {
                break RunEnd::Race(report);
            }
            if let Some(msg) = g.panic_msg.take() {
                break RunEnd::Panic(msg);
            }
            if let Some(report) = g.starvation.take() {
                break RunEnd::Starvation(report);
            }
            // Unblock spinners whose predicate now holds. Futex-parked
            // threads are NOT touched here: only an explicit wake
            // re-readies them — that asymmetry is what lets the
            // explorer see lost wakeups as hangs.
            for pid in 0..program.nthreads {
                if let TState::Blocked(addr, pred) = g.states[pid] {
                    if pred.satisfied(g.memory[addr]) {
                        g.states[pid] = TState::Ready;
                    }
                }
            }
            let enabled: Vec<usize> = (0..program.nthreads)
                .filter(|&p| g.states[p] == TState::Ready)
                .collect();
            if enabled.is_empty() {
                let blocked: Vec<(usize, Addr)> = (0..program.nthreads)
                    .filter_map(|p| match g.states[p] {
                        TState::Blocked(a, _) => Some((p, a)),
                        _ => None,
                    })
                    .collect();
                let parked: Vec<(usize, Addr)> = (0..program.nthreads)
                    .filter_map(|p| match g.states[p] {
                        TState::Parked(a) => Some((p, a)),
                        _ => None,
                    })
                    .collect();
                // Pure futex hang → lost wakeup; any spinner in the
                // mix → deadlock, listing every stuck thread (the
                // spinners are what a waker would have to get past).
                break if blocked.is_empty() && parked.is_empty() {
                    RunEnd::Complete(g.memory.clone())
                } else if blocked.is_empty() {
                    RunEnd::LostWakeup(parked)
                } else {
                    let mut all = blocked;
                    all.extend(parked);
                    RunEnd::Deadlock(all)
                };
            }
            if trace.len() >= self.max_steps {
                break RunEnd::Pruned;
            }

            let enabled_mask = enabled.iter().fold(0u64, |m, &t| m | (1u64 << t));
            let eligible: Vec<usize> = if reduction {
                enabled
                    .iter()
                    .copied()
                    .filter(|&p| sleep & (1 << p) == 0)
                    .collect()
            } else {
                enabled
            };
            if eligible.is_empty() {
                // All enabled threads are asleep: every continuation
                // reorders independent steps of schedules explored in
                // sibling branches.
                break RunEnd::SleepBlocked;
            }

            let step = trace.len();
            let prev = trace.last().map(|f: &Frame| f.chosen);
            let preempts_before = trace.last().map(|f| f.preempts_after()).unwrap_or(0);
            let (chosen, done) = match &mut policy {
                Policy::Dfs { prefix } => {
                    let chosen = if step < prefix.len() {
                        let choice = prefix[step].0;
                        if !eligible.contains(&choice) {
                            // Not a thread that can step here (finished,
                            // blocked, or no such thread). Only caller-
                            // supplied replay schedules can get here.
                            break RunEnd::Diverged { step, choice };
                        }
                        choice
                    } else {
                        // Default: stay on the same thread (zero
                        // preemptions).
                        match prev {
                            Some(p) if eligible.contains(&p) => p,
                            _ => eligible[0],
                        }
                    };
                    let done = if step < prefix.len() { prefix[step].1 } else { 0 };
                    (chosen, done)
                }
                Policy::External(choose) => {
                    let choice = choose(step, &eligible, prev);
                    if !eligible.contains(&choice) {
                        // A chooser bug surfaces the same way a bad replay
                        // schedule would.
                        break RunEnd::Diverged { step, choice };
                    }
                    (choice, 0)
                }
            };

            if reduction {
                // Sleep-set transition: siblings fully explored at
                // this decision go to sleep; anything whose pending op
                // is dependent on the chosen op wakes up.
                let mut next = (sleep | done) & !(1u64 << chosen);
                match g.pending[chosen] {
                    Some(chosen_op) => {
                        let mut bits = next;
                        while bits != 0 {
                            let u = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let wake = match g.pending[u] {
                                Some(m) => m.dependent(chosen_op),
                                // Unknown pending op: wake it (no
                                // pruning — always safe).
                                None => true,
                            };
                            if wake {
                                next &= !(1u64 << u);
                            }
                        }
                    }
                    None => next = 0,
                }
                sleep = next;
            }

            // Source mode seeds the backtrack set with just the
            // chosen thread; race analysis grows it on demand. Sleep
            // and none modes explore every eligible sibling.
            let eligible_bits = eligible.iter().fold(0u64, |m, &t| m | (1u64 << t));
            trace.push(Frame {
                eligible,
                enabled: enabled_mask,
                chosen,
                op: g.pending[chosen],
                tried: 1 << chosen,
                backtrack: if self.dpor == DporMode::Source {
                    1 << chosen
                } else {
                    eligible_bits
                },
                prev,
                preempts_before,
            });
            drop(g);
            // The grant: the chosen thread executes its pending operation
            // and runs on to its next one. Resumed from this frame, the one
            // that loops, so a handoff returns through no frame entered
            // before the switch (`simcore::coro`).
            threads[chosen].resume();
        };

        // Tear-down: every body still suspended in an operation is resumed
        // with `aborted` set until it has unwound, so no frame of a body
        // outlives the run. A body may catch the unwind and carry on: every
        // further operation is answered the same way.
        rs.borrow_mut().aborted = true;
        for thread in &mut threads {
            while !thread.is_done() {
                thread.resume();
            }
        }

        let ops = std::mem::take(&mut rs.borrow_mut().oplog);
        RunOutcome { trace, end, ops }
    }
}

/// Depth of the serial fan-out that seeds [`Explorer::check_parallel`]:
/// every decision prefix of this length becomes one independently
/// explorable task. Three levels splits typical 2–4-thread programs into
/// tens of tasks — enough to feed 8 workers — while the generation pass
/// itself stays a negligible fraction of the search.
pub const DPOR_SPLIT_DEPTH: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::{ProcCtx, SyncCtx};

    #[test]
    fn finds_lost_update_with_plain_load_store() {
        let program = Program::new(2, 1, |ctx| {
            let v = ctx.load(0);
            ctx.store(0, v + 1);
        });
        let verdict = Explorer::exhaustive().check(&program, |mem| {
            if mem[0] == 2 {
                Ok(())
            } else {
                Err(format!("lost update: counter = {}", mem[0]))
            }
        });
        assert!(verdict.is_violation(), "must find the classic race");
    }

    #[test]
    fn fetch_add_has_no_lost_update() {
        let program = Program::new(3, 1, |ctx| {
            ctx.fetch_add(0, 1);
        });
        let verdict = Explorer::exhaustive().check(&program, |mem| {
            if mem[0] == 3 {
                Ok(())
            } else {
                Err(format!("counter = {}", mem[0]))
            }
        });
        verdict.expect_pass("atomic counter");
        assert!(verdict.stats().complete);
    }

    #[test]
    fn detects_deadlock_with_schedule() {
        // Thread 0 waits for a flag only thread 1 can set after waiting for
        // a flag only thread 0 can set: circular wait.
        let program = Program::new(2, 2, |ctx| {
            let me = ctx.pid();
            ctx.spin_until(me, 1); // wait for my flag
            ctx.store(1 - me, 1); // then set the other's
        });
        let verdict = Explorer::exhaustive().check(&program, |_| Ok(()));
        match verdict {
            Verdict::Deadlock { blocked, .. } => {
                assert_eq!(blocked.len(), 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn spin_until_handshake_passes() {
        let program = Program::new(2, 2, |ctx| {
            if ctx.pid() == 0 {
                ctx.store(0, 1);
                ctx.spin_until(1, 1);
            } else {
                ctx.spin_until(0, 1);
                ctx.store(1, 1);
            }
        });
        Explorer::exhaustive()
            .check(&program, |_| Ok(()))
            .expect_pass("handshake");
    }

    #[test]
    fn in_program_assert_becomes_violation() {
        let program = Program::new(2, 1, |ctx| {
            let old = ctx.swap(0, 1);
            assert_eq!(old, 0, "both threads saw the word free");
            // No release: the second thread's swap returns 1 and asserts.
        });
        let verdict = Explorer::exhaustive().check(&program, |_| Ok(()));
        match verdict {
            Verdict::Violation { message, .. } => {
                assert!(message.contains("free"), "got: {message}")
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn preemption_bound_zero_is_serial_schedules_only() {
        // With zero preemptions the two increments cannot interleave, so
        // the race is invisible — documenting what the bound trades away.
        let program = Program::new(2, 1, |ctx| {
            let v = ctx.load(0);
            ctx.store(0, v + 1);
        });
        let verdict = Explorer::bounded(0).check(&program, |mem| {
            if mem[0] == 2 {
                Ok(())
            } else {
                Err("lost update".into())
            }
        });
        assert!(!verdict.is_violation());
        // One preemption suffices to expose it.
        let verdict = Explorer::bounded(1).check(&program, |mem| {
            if mem[0] == 2 {
                Ok(())
            } else {
                Err("lost update".into())
            }
        });
        assert!(verdict.is_violation());
    }

    #[test]
    fn run_budget_is_respected() {
        let program = Program::new(3, 1, |ctx| {
            for _ in 0..4 {
                ctx.fetch_add(0, 1);
            }
        });
        let mut explorer = Explorer::exhaustive().with_dpor(DporMode::None);
        explorer.max_runs = 10;
        let verdict = explorer.check(&program, |_| Ok(()));
        let stats = verdict.stats();
        assert_eq!(stats.runs, 10);
        assert!(!stats.complete);
    }

    #[test]
    fn live_totals_count_every_run_as_it_ends() {
        // Other tests' searches add to the same totals: lower bounds only.
        let before = Stats::live();
        let program = Program::new(3, 1, |ctx| {
            ctx.fetch_add(0, 1);
        });
        let stats = Explorer::exhaustive()
            .with_dpor(DporMode::None)
            .check(&program, |_| Ok(()))
            .stats();
        let after = Stats::live();
        assert!(stats.runs > 1);
        assert!(after.runs - before.runs >= stats.runs);
        assert!(after.max_depth >= stats.max_depth);
        assert!(!after.complete, "the totals are never a finished search");
    }

    #[test]
    fn single_thread_single_run() {
        let program = Program::new(1, 1, |ctx| {
            ctx.store(0, 7);
        });
        let verdict = Explorer::exhaustive().check(&program, |mem| {
            if mem[0] == 7 {
                Ok(())
            } else {
                Err("wrong".into())
            }
        });
        assert_eq!(verdict.stats().runs, 1);
        assert!(verdict.stats().complete);
    }

    #[test]
    fn data_race_is_reported_even_when_final_state_is_right() {
        // Both threads data-store the same value: every final state passes
        // the invariant, but the accesses are unordered — only the race
        // detector can see this.
        let program = Program::new(2, 1, |ctx| {
            ctx.data_store(0, 42);
        });
        let verdict = Explorer::exhaustive().check(&program, |mem| {
            if mem[0] == 42 {
                Ok(())
            } else {
                Err("wrong value".into())
            }
        });
        match verdict {
            Verdict::Race { report, .. } => {
                assert_eq!(report.addr, 0);
                assert!(report.prior.write && report.current.write);
            }
            other => panic!("expected race, got {other:?}"),
        }
    }

    #[test]
    fn handshake_orders_data_accesses() {
        // data write → sync store → sync spin → data read: fully ordered.
        let program = Program::new(2, 2, |ctx| {
            if ctx.pid() == 0 {
                ctx.data_store(1, 9);
                ctx.store(0, 1);
            } else {
                ctx.spin_until(0, 1);
                let v = ctx.data_load(1);
                assert_eq!(v, 9);
            }
        });
        Explorer::exhaustive()
            .check(&program, |_| Ok(()))
            .expect_pass("release/acquire handshake");
    }

    #[test]
    fn sync_accesses_alone_never_race() {
        let program = Program::new(2, 1, |ctx| {
            let v = ctx.load(0);
            ctx.store(0, v + 1);
        });
        // Lost update is a Violation (final check), never a Race: sync
        // accesses order themselves.
        let verdict = Explorer::exhaustive().check(&program, |_| Ok(()));
        verdict.expect_pass("sync-only program has no data races");
    }

    #[test]
    fn sleep_sets_cut_runs_without_losing_the_bug() {
        let racy = || {
            Program::new(2, 2, |ctx| {
                // Touch a private word first so schedules diverge, then race.
                let me = ctx.pid();
                ctx.store(1, me as u64);
                let v = ctx.data_load(0);
                ctx.data_store(0, v + 1);
            })
        };
        let with = Explorer::exhaustive().check(&racy(), |_| Ok(()));
        let without = Explorer::exhaustive()
            .with_dpor(DporMode::None)
            .check(&racy(), |_| Ok(()));
        assert!(with.is_violation(), "reduced search still finds the race");
        assert!(without.is_violation());
        assert!(
            with.stats().runs <= without.stats().runs,
            "reduction must not add runs: {} vs {}",
            with.stats().runs,
            without.stats().runs
        );
    }

    #[test]
    fn sleep_sets_preserve_completion_counts() {
        // Independent threads: reduction collapses the search to far fewer
        // runs while still passing.
        let indep = || {
            Program::new(3, 3, |ctx| {
                let me = ctx.pid();
                ctx.store(me, 1);
                ctx.store(me, 2);
            })
        };
        let with = Explorer::exhaustive().check(&indep(), |mem| {
            if mem.iter().all(|&v| v == 2) {
                Ok(())
            } else {
                Err("missing writes".into())
            }
        });
        with.expect_pass("independent writers");
        let without = Explorer::exhaustive().with_dpor(DporMode::None).check(&indep(), |mem| {
            if mem.iter().all(|&v| v == 2) {
                Ok(())
            } else {
                Err("missing writes".into())
            }
        });
        without.expect_pass("independent writers");
        assert!(with.stats().complete && without.stats().complete);
        assert!(
            with.stats().runs * 2 <= without.stats().runs,
            "expected ≥2× reduction on independent writers: {} vs {}",
            with.stats().runs,
            without.stats().runs
        );
    }

    #[test]
    fn replay_reproduces_a_violation_schedule() {
        let program = Program::new(2, 1, |ctx| {
            let v = ctx.data_load(0);
            ctx.data_store(0, v + 1);
        });
        let explorer = Explorer::exhaustive();
        let verdict = explorer.check(&program, |_| Ok(()));
        let schedule = verdict.schedule().expect("racy program fails").to_vec();
        let replay = explorer.replay(&program, &schedule);
        match replay.end {
            ReplayEnd::Race(ref r) => assert_eq!(r.addr, 0),
            ref other => panic!("replay must reproduce the race, got {other:?}"),
        }
        assert!(!replay.ops.is_empty(), "replay carries the op log");
        assert!(replay.render().contains("data race"));
    }

    #[test]
    fn replay_of_a_passing_schedule_completes() {
        let program = Program::new(2, 1, |ctx| {
            ctx.fetch_add(0, 1);
        });
        let replay = Explorer::exhaustive().replay(&program, &[0, 1]);
        match replay.end {
            ReplayEnd::Complete(ref mem) => assert_eq!(mem[0], 2),
            ref other => panic!("expected completion, got {other:?}"),
        }
        assert_eq!(replay.ops.len(), 2);
    }

    #[test]
    fn futex_change_then_wake_handshake_passes() {
        // The canonical correct discipline: the waker changes the word and
        // then wakes; the waiter's compare-and-block closes the window on
        // the other side. No schedule hangs.
        let program = Program::new(2, 1, |ctx| {
            if ctx.pid() == 0 {
                let mut cur = ctx.load(0);
                while cur == 0 {
                    cur = ctx.wait(0, 0, None).seen;
                }
                assert_eq!(cur, 1);
            } else {
                ctx.store(0, 1);
                ctx.wake(0, 1);
            }
        });
        let verdict = Explorer::exhaustive().check(&program, |_| Ok(()));
        verdict.expect_pass("futex handshake");
        assert!(verdict.stats().complete);
    }

    #[test]
    fn missing_wake_is_reported_as_lost_wakeup() {
        // The waker changes the word but never wakes: the schedule where
        // the waiter parks first leaves it parked forever. This must be
        // reported as a lost wakeup, not a deadlock — there is no cycle.
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
        let verdict = Explorer::exhaustive().check(&program, |_| Ok(()));
        match verdict {
            Verdict::LostWakeup {
                ref parked,
                ref schedule,
                ..
            } => {
                assert_eq!(parked, &vec![(0usize, 0usize)]);
                // The verdict's schedule must replay to the same hang.
                let replay = Explorer::exhaustive().replay(&program, schedule);
                match replay.end {
                    ReplayEnd::LostWakeup(ref p) => assert_eq!(p, &vec![(0usize, 0usize)]),
                    ref other => panic!("replay must reproduce the hang, got {other:?}"),
                }
                assert!(replay.render().contains("lost wakeup"));
            }
            other => panic!("expected lost wakeup, got {other:?}"),
        }
    }

    #[test]
    fn mixed_spin_and_park_hang_is_a_deadlock() {
        // One thread spins on a word nobody will change, the other parks on
        // a word nobody will wake: a spinner in the mix makes it a
        // deadlock, and both stuck threads are listed.
        let program = Program::new(2, 2, |ctx| {
            if ctx.pid() == 0 {
                ctx.spin_until(0, 1);
            } else {
                ctx.wait(1, 0, None);
            }
        });
        let verdict = Explorer::exhaustive().check(&program, |_| Ok(()));
        match verdict {
            Verdict::Deadlock { blocked, .. } => {
                assert_eq!(blocked, vec![(0, 0), (1, 1)]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn futex_wait_on_changed_word_returns_immediately() {
        let program = Program::new(1, 1, |ctx| {
            ctx.store(0, 5);
            assert_eq!(ctx.wait(0, 0, None).seen, 5, "compare must defeat the park");
        });
        Explorer::exhaustive()
            .check(&program, |_| Ok(()))
            .expect_pass("failed compare never parks");
    }

    #[test]
    fn replayed_wake_n_of_m_wakes_exactly_the_oldest_n() {
        // Three threads park in id order, the fourth wakes two without
        // changing the word. A hand-crafted schedule pins the park order,
        // so exactly threads 0 and 1 must resume and the youngest parker
        // (thread 2) must remain — the replay ends as its lost wakeup.
        let program = Program::new(4, 2, |ctx| {
            if ctx.pid() < 3 {
                ctx.wait(0, 0, None);
                ctx.fetch_add(1, 1);
            } else {
                assert_eq!(ctx.wake(0, 2), 2, "must wake exactly 2 of 3");
            }
        });
        // park 0, park 1, park 2, wake, resume 0, add 0, resume 1, add 1.
        let schedule = [0, 1, 2, 3, 0, 0, 1, 1];
        let replay = Explorer::exhaustive().replay(&program, &schedule);
        match replay.end {
            ReplayEnd::LostWakeup(ref parked) => {
                assert_eq!(parked, &vec![(2usize, 0usize)]);
            }
            ref other => panic!("expected thread 2 left parked, got {other:?}"),
        }
        // Both woken threads completed their increments.
        let adds = replay
            .ops
            .iter()
            .filter(|op| op.kind == crate::program::OpKind::Rmw)
            .count();
        assert_eq!(adds, 2);
        assert!(replay.render().contains("futex-wake"));
    }

    #[test]
    fn replayed_tagged_wake_takes_its_tag_and_leaves_the_older_sharer() {
        // Threads 0 and 1 park on one word under tags 10 and 11, in id
        // order. A wake of a tag nobody parked with finds nobody; the wake
        // of tag 11 resumes thread 1 past the *older* thread 0, which stays
        // parked — the replay ends as its lost wakeup.
        let program = Program::new(3, 2, |ctx| {
            if ctx.pid() < 2 {
                ctx.wait(0, 0, Some(10 + ctx.pid() as Word));
                ctx.fetch_add(1, 1);
            } else {
                assert_eq!(ctx.wake_tagged(&[(0, 12)]), 0, "no tag 12");
                assert_eq!(ctx.wake_tagged(&[(0, 11)]), 1, "one has 11");
            }
        });
        // park 0, park 1, wake 12, wake 11, resume 1, add 1.
        let replay = Explorer::exhaustive().replay(&program, &[0, 1, 2, 2, 1, 1]);
        match replay.end {
            ReplayEnd::LostWakeup(ref parked) => assert_eq!(parked, &vec![(0usize, 0usize)]),
            ref other => panic!("expected thread 0 left parked, got {other:?}"),
        }
    }

    #[test]
    fn parked_thread_at_preemption_bound_zero_is_lost_wakeup() {
        // Bound 0 forbids preempting a *runnable* thread, but switching
        // away from a thread that just parked is not a preemption (it is
        // no longer eligible). The pure-park hang must therefore still be
        // reachable — and classified as a lost wakeup, not a deadlock.
        let missing_wake = || {
            Program::new(2, 1, |ctx| {
                if ctx.pid() == 0 {
                    let mut cur = ctx.load(0);
                    while cur == 0 {
                        cur = ctx.wait(0, 0, None).seen;
                    }
                } else {
                    ctx.store(0, 1); // no wake
                }
            })
        };
        let verdict = Explorer::bounded(0).check(&missing_wake(), |_| Ok(()));
        match verdict {
            Verdict::LostWakeup { ref parked, .. } => {
                assert_eq!(parked, &vec![(0usize, 0usize)]);
            }
            other => panic!("bound 0 must see the park hang as lost wakeup, got {other:?}"),
        }
        // Bypass-bound interaction: with_bypass_bound forces reduction off;
        // the classification must not change.
        let verdict = Explorer::bounded(0)
            .with_bypass_bound(1)
            .check(&missing_wake(), |_| Ok(()));
        assert!(
            matches!(verdict, Verdict::LostWakeup { .. }),
            "bypass-bound run misclassified the park hang: {verdict:?}"
        );
    }

    /// Three threads contending on one word plus private traffic: enough
    /// dependence structure that the reduction modes separate cleanly.
    fn contended() -> Program {
        Program::new(3, 4, |ctx| {
            let me = ctx.pid();
            ctx.store(1 + me, 1);
            let v = ctx.load(0);
            ctx.store(0, v + 1);
            ctx.store(1 + me, 2);
        })
    }

    #[test]
    fn source_sets_explore_fewer_runs_than_sleep_sets() {
        let sleep = Explorer::exhaustive()
            .with_dpor(DporMode::Sleep)
            .check(&contended(), |_| Ok(()));
        let source = Explorer::exhaustive()
            .with_dpor(DporMode::Source)
            .check(&contended(), |_| Ok(()));
        sleep.expect_pass("contended, sleep");
        source.expect_pass("contended, source");
        assert!(sleep.stats().complete && source.stats().complete);
        assert!(
            source.stats().runs < sleep.stats().runs,
            "source sets must beat sleep sets: {} vs {}",
            source.stats().runs,
            sleep.stats().runs
        );
        assert!(source.stats().dpor_pruned > 0, "source mode reports its cuts");
        assert_eq!(sleep.stats().dpor_pruned, 0, "sleep mode never dpor-prunes");
    }

    #[test]
    fn dpor_none_disables_source_set_machinery_too() {
        let v = Explorer::exhaustive()
            .with_dpor(DporMode::Source)
            .with_dpor(DporMode::None)
            .check(&contended(), |_| Ok(()));
        v.expect_pass("contended, unreduced");
        let s = v.stats();
        assert_eq!(s.sleep_pruned, 0, "no sleep sets without reduction");
        assert_eq!(s.dpor_pruned, 0, "no source-set cuts without reduction");
    }

    #[test]
    fn every_mode_finds_the_lost_update() {
        let racy = || {
            Program::new(2, 1, |ctx| {
                let v = ctx.load(0);
                ctx.store(0, v + 1);
            })
        };
        let check = |mem: &[Word]| {
            if mem[0] == 2 {
                Ok(())
            } else {
                Err(format!("lost update: {}", mem[0]))
            }
        };
        for mode in [DporMode::None, DporMode::Sleep, DporMode::Source] {
            let v = Explorer::exhaustive().with_dpor(mode).check(&racy(), check);
            assert!(v.is_violation(), "{mode} must find the lost update");
        }
    }

    #[test]
    fn parallel_verdict_is_worker_count_independent() {
        // A passing program: verdict + stats must match exactly.
        let render = |workers| {
            format!(
                "{:?}",
                Explorer::exhaustive().check_parallel(&contended(), |_| Ok(()), workers)
            )
        };
        let serial = render(1);
        assert_eq!(serial, render(2), "1 vs 2 workers");
        assert_eq!(serial, render(8), "1 vs 8 workers");
    }

    #[test]
    fn parallel_violation_and_schedule_are_worker_count_independent() {
        let racy = || {
            Program::new(3, 1, |ctx| {
                let v = ctx.data_load(0);
                ctx.data_store(0, v + 1);
            })
        };
        let render = |workers| {
            format!(
                "{:?}",
                Explorer::exhaustive().check_parallel(&racy(), |_| Ok(()), workers)
            )
        };
        let serial = render(1);
        assert!(serial.contains("Race"), "the increments race: {serial}");
        assert_eq!(serial, render(2), "1 vs 2 workers");
        assert_eq!(serial, render(8), "1 vs 8 workers");
    }

    #[test]
    fn parallel_respects_bypass_normalization() {
        // Bypass accounting forces reduction off in parallel mode too.
        let v = Explorer::exhaustive()
            .with_bypass_bound(1)
            .check_parallel(&contended(), |_| Ok(()), 4);
        v.expect_pass("contended under a bypass bound");
        assert_eq!(v.stats().dpor_pruned, 0);
        assert_eq!(v.stats().sleep_pruned, 0);
    }

    #[test]
    fn dpor_mode_parses_and_displays() {
        for (name, mode) in [
            ("none", DporMode::None),
            ("sleep", DporMode::Sleep),
            ("source", DporMode::Source),
        ] {
            assert_eq!(DporMode::parse(name), Ok(mode));
            assert_eq!(format!("{mode}"), name);
        }
        assert!(DporMode::parse("optimal").is_err());
    }

    #[test]
    fn replay_of_an_impossible_schedule_reports_divergence() {
        let program = Program::new(2, 1, |ctx| {
            ctx.fetch_add(0, 1);
        });
        // Thread 5 does not exist; thread 0 is finished after its one op.
        // Either way step 1 cannot honor the request.
        for schedule in [&[0usize, 5][..], &[0, 0, 1][..]] {
            let replay = Explorer::exhaustive().replay(&program, schedule);
            match replay.end {
                ReplayEnd::Diverged { step, .. } => assert_eq!(step, 1),
                ref other => panic!("expected divergence, got {other:?}"),
            }
        }
    }
}
