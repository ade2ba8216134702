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
//!   variant is the largest search here (51 334 runs under source sets or
//!   wakeup trees, about a minute per mode; 77 494 under sleep sets), so
//!   the exhaustive searches are `#[ignore]`d for CI to run by name and
//!   tier-1 runs the preemption-bounded one.
//!
//! Every fixed variant must pass exhaustively and every seeded bug must
//! yield its exact verdict class under all three reduction modes — the
//! park/unpark-aware enabled sets mean `LostWakeup` hangs are maximal
//! executions no reduction may prune. The run-count assertions pin the
//! tentpole's reason to exist: source sets explore strictly fewer runs on
//! every fully-explorable suite program, and the 4-thread eventcount
//! search that exhausts sleep-set DFS's budget completes exhaustively
//! under source sets (numbers in EXPERIMENTS.md).

use interleave::corpus::{
    blocking_grant_program, corpus_program, eventcount_wrap_program, spin_then_park_program,
};
use interleave::{DporMode, Explorer, Verdict, VerdictClass};

const MODES: [DporMode; 3] = [DporMode::Sleep, DporMode::Source, DporMode::Tree];

type Suite = Vec<(&'static str, Box<dyn Fn() -> interleave::Program>)>;

fn pass(_mem: &[kernels::Word]) -> Result<(), String> {
    Ok(())
}

#[test]
fn fixed_blocking_grant_three_threads_passes_under_every_mode() {
    for mode in MODES {
        let v = Explorer::exhaustive()
            .with_dpor(mode)
            .with_max_runs(200_000)
            .check(&blocking_grant_program(3, 1, true), pass);
        v.expect_pass("blocking-grant 3x1");
        assert!(v.stats().complete, "{mode}: search must be exhaustive");
    }
}

#[test]
fn broken_blocking_grant_three_threads_loses_a_wakeup_under_every_mode() {
    for mode in MODES {
        let v = Explorer::exhaustive()
            .with_dpor(mode)
            .with_max_runs(200_000)
            .check(&blocking_grant_program(3, 1, false), pass);
        assert_eq!(
            VerdictClass::of(&v),
            VerdictClass::LostWakeup,
            "{mode}: wake-before-advance must strand a waiter, got {v:?}"
        );
    }
}

#[test]
fn broken_blocking_grant_four_threads_loses_a_wakeup_under_every_mode() {
    for mode in MODES {
        let v = Explorer::exhaustive()
            .with_dpor(mode)
            .with_max_runs(200_000)
            .check(&blocking_grant_program(4, 1, false), pass);
        assert_eq!(
            VerdictClass::of(&v),
            VerdictClass::LostWakeup,
            "{mode}: wake-before-advance must strand a waiter, got {v:?}"
        );
    }
}

#[test]
fn fixed_eventcount_wrap_passes_under_every_mode_for_3_and_4_threads() {
    for nthreads in [3, 4] {
        for mode in MODES {
            let v = Explorer::exhaustive()
                .with_dpor(mode)
                .with_max_runs(200_000)
                .check(&eventcount_wrap_program(nthreads, true), pass);
            v.expect_pass("eventcount wrap, fixed");
            assert!(v.stats().complete, "{nthreads}t {mode}: must be exhaustive");
        }
    }
}

#[test]
fn broken_eventcount_wrap_loses_a_wakeup_under_every_mode_for_3_and_4_threads() {
    for nthreads in [3, 4] {
        for mode in MODES {
            let v = Explorer::exhaustive()
                .with_dpor(mode)
                .with_max_runs(200_000)
                .check(&eventcount_wrap_program(nthreads, false), pass);
            assert_eq!(
                VerdictClass::of(&v),
                VerdictClass::LostWakeup,
                "{nthreads}t {mode}: missed wake must strand the awaiters, got {v:?}"
            );
        }
    }
}

fn fixed_spin_then_park_three_threads_passes(mode: DporMode) {
    let v = Explorer::exhaustive()
        .with_dpor(mode)
        .with_max_runs(200_000)
        .check(&spin_then_park_program(3, true), |mem| {
            // Every thread ran its critical section, none overlapping.
            match mem[mem.len() - 1] {
                3 => Ok(()),
                c => Err(format!("critical sections lost: counter {c} != 3")),
            }
        });
    v.expect_pass("spin-then-park 3 threads");
    assert!(v.stats().complete, "{mode}: search must be exhaustive");
}

// The two exhaustive searches are a minute each (51 334 executions) and
// the model only changes when `corpus.rs` does, so tier-1 runs the
// preemption-bounded search below and CI's `interleave-dpor` job runs
// these two by name (`-- --ignored spin_then_park`).
#[test]
#[ignore = "minute-long exhaustive search; run in CI by name"]
fn fixed_spin_then_park_three_threads_passes_under_source_sets() {
    fixed_spin_then_park_three_threads_passes(DporMode::Source);
}

#[test]
#[ignore = "minute-long exhaustive search; run in CI by name"]
fn fixed_spin_then_park_three_threads_passes_under_wakeup_trees() {
    fixed_spin_then_park_three_threads_passes(DporMode::Tree);
}

/// Every schedule with at most three preemptions (438 executions): enough
/// to reach the seeded bug below at any bound from one up, so a protocol
/// slip of that kind cannot hide from tier-1.
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
        for mode in MODES {
            let v = Explorer::exhaustive()
                .with_dpor(mode)
                .with_max_runs(200_000)
                .check(&spin_then_park_program(nthreads, false), pass);
            assert_eq!(
                VerdictClass::of(&v),
                VerdictClass::LostWakeup,
                "{nthreads}t {mode}: a HELD release wakes nobody, got {v:?}"
            );
        }
    }
}

/// The acceptance benchmark. On every program of the seeded-bug suite
/// whose search runs to completion, source sets explore strictly fewer
/// executions than sleep sets (and so does tree mode); on the buggy
/// variants the search stops at the first violation, so the comparison
/// relaxes to "never more" — a two-thread bug both modes hit on run 2 is
/// a tie, not a regression. EXPERIMENTS.md records the factors.
#[test]
fn source_and_tree_never_explore_more_runs_than_sleep_on_the_suite() {
    let strict: Suite = vec![
        ("blocking-grant-3-fixed", Box::new(|| blocking_grant_program(3, 1, true))),
        ("eventcount-wrap-3-fixed", Box::new(|| eventcount_wrap_program(3, true))),
        ("eventcount-wrap-4-fixed", Box::new(|| eventcount_wrap_program(4, true))),
        (
            "check-then-set",
            Box::new(|| corpus_program("check-then-set").unwrap().0),
        ),
    ];
    let bugs: Suite = vec![
        (
            "wake-before-publish",
            Box::new(|| corpus_program("wake-before-publish").unwrap().0),
        ),
        ("blocking-grant-3-bug", Box::new(|| blocking_grant_program(3, 1, false))),
        ("eventcount-wrap-3-bug", Box::new(|| eventcount_wrap_program(3, false))),
    ];
    let runs = |name: &str, build: &dyn Fn() -> interleave::Program, mode| {
        let v = Explorer::exhaustive()
            .with_dpor(mode)
            .with_max_runs(200_000)
            .check(&build(), pass);
        assert!(v.stats().complete, "{name} {mode}: search must finish");
        v.stats().runs
    };
    for (name, build) in &strict {
        let sleep = runs(name, build, DporMode::Sleep);
        let source = runs(name, build, DporMode::Source);
        let tree = runs(name, build, DporMode::Tree);
        assert!(
            source < sleep,
            "{name}: source must explore strictly fewer runs ({source} vs {sleep})"
        );
        assert!(
            tree < sleep,
            "{name}: tree must explore strictly fewer runs ({tree} vs {sleep})"
        );
    }
    for (name, build) in &bugs {
        let sleep = {
            let v = Explorer::exhaustive()
                .with_dpor(DporMode::Sleep)
                .with_max_runs(200_000)
                .check(&build(), pass);
            v.stats().runs
        };
        for mode in [DporMode::Source, DporMode::Tree] {
            let v = Explorer::exhaustive()
                .with_dpor(mode)
                .with_max_runs(200_000)
                .check(&build(), pass);
            assert!(
                v.stats().runs <= sleep,
                "{name}: {mode} took more runs to the bug ({} vs {sleep})",
                v.stats().runs
            );
        }
    }
}

/// The flagship scaling result: under one shared 8k-run budget, the
/// 4-thread eventcount-wraparound search is unfinishable for sleep-set
/// DFS (it needs 10 364 runs; measured in EXPERIMENTS.md) while source
/// sets and wakeup trees complete the whole search in 5 480. The same
/// inversion holds on the real blocking QSM lock at sizes no test budget
/// reaches: 3-thread `qsm-block-park` is 47 738 vs 3 098 runs (15×), and
/// the 4-thread lock exceeds a 4-minute wall-clock timeout under sleep
/// sets before source mode even becomes the bottleneck.
#[test]
fn four_thread_eventcount_completes_under_source_but_not_sleep() {
    const BUDGET: usize = 8_000;
    let explore = |mode| {
        Explorer::exhaustive()
            .with_dpor(mode)
            .with_max_runs(BUDGET)
            .check(&eventcount_wrap_program(4, true), pass)
    };
    match explore(DporMode::Sleep) {
        Verdict::Passed(s) => assert!(
            !s.complete,
            "sleep-set DFS finishing 4-thread eventcount wrap in {BUDGET} runs would be news"
        ),
        other => panic!("fixed eventcount wrap is correct; got {other:?}"),
    }
    for mode in [DporMode::Source, DporMode::Tree] {
        let v = explore(mode);
        v.expect_pass("eventcount wrap 4t");
        assert!(
            v.stats().complete,
            "{mode} must finish the search within the budget sleep exhausts: {:?}",
            v.stats()
        );
    }
}

/// Prints the run-count table for DESIGN.md / EXPERIMENTS.md. Ignored:
/// run with `-- --ignored --nocapture measure` to refresh the numbers.
#[test]
#[ignore = "measurement helper, prints the mode comparison table"]
fn measure() {
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
    println!("program | sleep | source | tree");
    for (name, build) in suite {
        let run = |mode| {
            let v = Explorer::exhaustive()
                .with_dpor(mode)
                .with_max_runs(200_000)
                .check(&build(), pass);
            let s = v.stats();
            format!(
                "{}{}",
                s.runs,
                if s.complete { "" } else { "+" }
            )
        };
        println!(
            "{name} | {} | {} | {}",
            run(DporMode::Sleep),
            run(DporMode::Source),
            run(DporMode::Tree)
        );
    }
}
