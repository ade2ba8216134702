//! Exhaustive coverage for the blocking programs that were fuzz-only
//! before optimal DPOR (ROADMAP item: "3-4-thread blocking QSM and
//! eventcount programs").
//!
//! Three program families, each in a fixed and a seeded-bug variant:
//!
//! * **blocking QSM handoff** — the grant/eventcount lock
//!   ([`interleave::corpus::BlockingGrantLock`], the two-word reduction of
//!   the paper's queueing mechanism) plus the registry's full
//!   `qsm-block-park`; the bug is the classic wake-before-advance release;
//! * **eventcount wraparound** — advance across `u64::MAX` with
//!   signed-distance compare; the bug forgets the wake;
//! * **service mutex slow path** — `service::LockService::lock`'s spin →
//!   announce → park → woken → spin again → re-announce
//!   ([`interleave::corpus::SpinThenParkLock`]); the bug lets the post-wake
//!   spin acquire as HELD, which strands a second parked waiter. The fixed
//!   variant is the largest search here (51 334 runs under source sets,
//!   77 494 under sleep sets): it runs exhaustively under source sets, and
//!   once more preemption-bounded.
//!
//! Every fixed variant must pass exhaustively and every seeded bug must
//! yield its exact verdict class under both reduction modes — the
//! park/unpark-aware enabled sets mean `LostWakeup` hangs are maximal
//! executions no reduction may prune. The run-count assertions pin the
//! reason source sets exist: they explore strictly fewer runs on every
//! fully-explorable suite program, and the 4-thread eventcount search
//! that exhausts sleep-set DFS's budget completes exhaustively under
//! source sets (numbers in EXPERIMENTS.md).
//!
//! Each (program, mode) pair is explored exactly once: the pass/fail
//! helpers return the two run counts, and the tests that compare modes
//! assert on those — the searches are the cost of this suite, every
//! execution a few dozen coroutine switches on the test's own thread.

use interleave::corpus::{
    blocking_grant_program, corpus_program, eventcount_wrap_program, spin_then_park_program,
};
use interleave::{DporMode, Explorer, Program, Verdict, VerdictClass};

const MODES: [DporMode; 2] = [DporMode::Sleep, DporMode::Source];

fn pass(_mem: &[kernels::Word]) -> Result<(), String> {
    Ok(())
}

fn explore(program: &Program, mode: DporMode) -> Verdict {
    Explorer::exhaustive()
        .with_dpor(mode)
        .with_max_runs(200_000)
        .check(program, pass)
}

/// Explores a correct program once per mode: it must pass, exhaustively.
/// Returns the `[sleep, source]` run counts.
fn passes_under_every_mode(what: &str, build: impl Fn() -> Program) -> [usize; 2] {
    MODES.map(|mode| {
        let v = explore(&build(), mode);
        v.expect_pass(what);
        assert!(
            v.stats().complete,
            "{what} {mode}: search must be exhaustive"
        );
        v.stats().runs
    })
}

/// Explores a seeded bug once per mode: every mode must end in a lost
/// wakeup. Returns the `[sleep, source]` runs to the bug.
fn loses_a_wakeup_under_every_mode(what: &str, build: impl Fn() -> Program) -> [usize; 2] {
    MODES.map(|mode| {
        let v = explore(&build(), mode);
        assert_eq!(
            VerdictClass::of(&v),
            VerdictClass::LostWakeup,
            "{what} {mode}: the seeded bug must strand a waiter, got {v:?}"
        );
        v.stats().runs
    })
}

/// On a search that runs to completion, source sets must explore strictly
/// fewer executions than sleep sets (EXPERIMENTS.md records the factors).
fn assert_source_beats_sleep(what: &str, [sleep, source]: [usize; 2]) {
    assert!(
        source < sleep,
        "{what}: source must explore strictly fewer runs ({source} vs {sleep})"
    );
}

/// On a buggy program the search stops at the first violation, so the
/// comparison relaxes to "never more" — a two-thread bug both modes hit on
/// run 2 is a tie, not a regression.
fn assert_source_reaches_the_bug_no_later(what: &str, [sleep, source]: [usize; 2]) {
    assert!(
        source <= sleep,
        "{what}: source took more runs to the bug ({source} vs {sleep})"
    );
}

#[test]
fn fixed_blocking_grant_three_threads_passes_and_source_beats_sleep() {
    let runs = passes_under_every_mode("blocking-grant 3x1", || blocking_grant_program(3, 1, true));
    assert_source_beats_sleep("blocking-grant-3-fixed", runs);
    assert_eq!(runs, [29_939, 19_746], "the EXPERIMENTS.md counts moved");
}

#[test]
fn broken_blocking_grant_three_threads_loses_a_wakeup_under_every_mode() {
    let runs = loses_a_wakeup_under_every_mode("blocking-grant 3x1, wake-before-advance", || {
        blocking_grant_program(3, 1, false)
    });
    assert_source_reaches_the_bug_no_later("blocking-grant-3-bug", runs);
}

#[test]
fn broken_blocking_grant_four_threads_loses_a_wakeup_under_every_mode() {
    loses_a_wakeup_under_every_mode("blocking-grant 4x1, wake-before-advance", || {
        blocking_grant_program(4, 1, false)
    });
}

#[test]
fn fixed_eventcount_wrap_three_threads_passes_and_source_beats_sleep() {
    let runs = passes_under_every_mode("eventcount wrap 3t, fixed", || {
        eventcount_wrap_program(3, true)
    });
    assert_source_beats_sleep("eventcount-wrap-3-fixed", runs);
}

/// The flagship scaling result rides on the same two searches: under one
/// shared 8k-run budget the 4-thread eventcount-wraparound search is
/// unfinishable for sleep-set DFS (10 364 runs) while source sets complete
/// it in 5 480. A budgeted search is the full search cut short, so "does
/// not finish within the budget" is exactly "needs more runs than the
/// budget". The same inversion holds on the real blocking QSM lock at
/// sizes no test budget reaches: 3-thread `qsm-block-park` is 47 738 vs
/// 12 720 runs (3.8×), and the 4-thread lock completes under source sets
/// in 11 735 273 runs where sleep sets exhaust a 40-million-run budget
/// (CI's `interleave-dpor` job runs the former).
#[test]
fn fixed_eventcount_wrap_four_threads_completes_under_source_but_not_sleep() {
    const BUDGET: usize = 8_000;
    let runs = passes_under_every_mode("eventcount wrap 4t, fixed", || {
        eventcount_wrap_program(4, true)
    });
    assert_source_beats_sleep("eventcount-wrap-4-fixed", runs);
    let [sleep, source] = runs;
    assert!(
        sleep > BUDGET,
        "sleep-set DFS finishing 4-thread eventcount wrap in {BUDGET} runs would be news ({sleep})"
    );
    assert!(
        source <= BUDGET,
        "source must finish the search within the budget sleep exhausts ({source})"
    );
    assert_eq!(runs, [10_364, 5_480], "the EXPERIMENTS.md counts moved");
}

#[test]
fn broken_eventcount_wrap_loses_a_wakeup_under_every_mode_for_3_and_4_threads() {
    let runs = loses_a_wakeup_under_every_mode("eventcount wrap 3t, missed wake", || {
        eventcount_wrap_program(3, false)
    });
    assert_source_reaches_the_bug_no_later("eventcount-wrap-3-bug", runs);
    loses_a_wakeup_under_every_mode("eventcount wrap 4t, missed wake", || {
        eventcount_wrap_program(4, false)
    });
}

/// The two corpus programs of the mode comparison, both explored under
/// the always-true final check: `check-then-set` within the run budget and
/// strictly cheaper under source sets, `wake-before-publish` up to its
/// lost wakeup.
#[test]
fn corpus_programs_never_cost_source_more_runs_than_sleep() {
    let check_then_set = MODES.map(|mode| {
        let v = explore(&corpus_program("check-then-set").unwrap().0, mode);
        assert!(
            v.stats().complete,
            "check-then-set {mode}: search must finish"
        );
        v.stats().runs
    });
    assert_source_beats_sleep("check-then-set", check_then_set);
    let wake_before_publish = MODES.map(|mode| {
        explore(&corpus_program("wake-before-publish").unwrap().0, mode)
            .stats()
            .runs
    });
    assert_source_reaches_the_bug_no_later("wake-before-publish", wake_before_publish);
}

#[test]
fn fixed_spin_then_park_three_threads_passes_under_source_sets() {
    let v = Explorer::exhaustive()
        .with_dpor(DporMode::Source)
        .with_max_runs(200_000)
        .check(&spin_then_park_program(3, true), |mem| {
            // Every thread ran its critical section, none overlapping.
            match mem[mem.len() - 1] {
                3 => Ok(()),
                c => Err(format!("critical sections lost: counter {c} != 3")),
            }
        });
    v.expect_pass("spin-then-park 3 threads");
    assert!(v.stats().complete, "search must be exhaustive");
    assert_eq!(v.stats().runs, 51_334);
}

/// Every schedule with at most three preemptions (438 executions): enough
/// to reach the seeded bug below at any bound from one up.
#[test]
fn fixed_spin_then_park_three_threads_passes_up_to_three_preemptions() {
    let v = Explorer::bounded(3).check(&spin_then_park_program(3, true), pass);
    v.expect_pass("spin-then-park 3 threads, 3 preemptions");
    assert!(v.stats().complete, "bounded search must finish");
    for bound in 1..=3 {
        let v = Explorer::bounded(bound).check(&spin_then_park_program(3, false), pass);
        assert_eq!(
            VerdictClass::of(&v),
            VerdictClass::LostWakeup,
            "bounded({bound}) must still strand the second waiter, got {v:?}"
        );
    }
}

#[test]
fn respin_as_held_strands_a_parked_waiter_under_every_mode_for_3_and_4_threads() {
    for nthreads in [3, 4] {
        loses_a_wakeup_under_every_mode(
            &format!("spin-then-park {nthreads}t, HELD release wakes nobody"),
            || spin_then_park_program(nthreads, false),
        );
    }
}

/// Prints the run-count table for DESIGN.md / EXPERIMENTS.md. Ignored:
/// run with `-- --ignored --nocapture measure` to refresh the numbers.
#[test]
#[ignore = "measurement helper, prints the mode comparison table"]
fn measure() {
    type Suite = Vec<(&'static str, Box<dyn Fn() -> Program>)>;
    let suite: Suite = vec![
        ("blocking-grant-3-fixed", Box::new(|| blocking_grant_program(3, 1, true))),
        ("blocking-grant-4-fixed", Box::new(|| blocking_grant_program(4, 1, true))),
        ("blocking-grant-3-bug", Box::new(|| blocking_grant_program(3, 1, false))),
        ("blocking-grant-4-bug", Box::new(|| blocking_grant_program(4, 1, false))),
        ("eventcount-wrap-3-fixed", Box::new(|| eventcount_wrap_program(3, true))),
        ("eventcount-wrap-4-fixed", Box::new(|| eventcount_wrap_program(4, true))),
        ("eventcount-wrap-3-bug", Box::new(|| eventcount_wrap_program(3, false))),
        ("eventcount-wrap-4-bug", Box::new(|| eventcount_wrap_program(4, false))),
        ("spin-then-park-3-fixed", Box::new(|| spin_then_park_program(3, true))),
        ("spin-then-park-3-bug", Box::new(|| spin_then_park_program(3, false))),
        (
            "check-then-set",
            Box::new(|| corpus_program("check-then-set").unwrap().0),
        ),
        (
            "wake-before-publish",
            Box::new(|| corpus_program("wake-before-publish").unwrap().0),
        ),
        (
            "lost-update",
            Box::new(|| corpus_program("lost-update").unwrap().0),
        ),
    ];
    println!("program | sleep | source");
    for (name, build) in suite {
        let [sleep, source] = MODES.map(|mode| {
            let s = explore(&build(), mode).stats();
            format!("{}{}", s.runs, if s.complete { "" } else { "+" })
        });
        println!("{name} | {sleep} | {source}");
    }
}
