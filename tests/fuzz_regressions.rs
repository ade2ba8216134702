//! Fuzz-layer regressions: seeded bugs the randomized scheduler must
//! rediscover on a fixed budget, plus the cross-backend differential
//! smoke.
//!
//! `tests/analysis_seeded_bugs.rs` proves the *exhaustive* explorer
//! catches each seeded bug; this suite proves the *sampling* path —
//! `interleave::Fuzzer` with PCT priorities — finds the same bugs within
//! a fixed seed and iteration budget, shrinks the failing schedule to (at
//! most) the hand-minimized length, and reproduces byte-identically from
//! the seed. Everything here is deterministic: a failure is a real
//! regression, never flake.

use interleave::corpus::{
    eventcount_staggered_targets_program, eventcount_wrap_program, flag_handshake_program,
    spin_then_park_program, waiting_array_drained, waiting_array_shared_slot_program,
};
use interleave::{Explorer, Failure, Fuzzer, Strategy, VerdictClass};
use workloads::differential::{differential_lock, DiffConfig};

/// The hand-minimized reproduction of the handshake bug: t0 reads the
/// stale flag, t1 fires the wake into the empty queue, t0 parks — three
/// scheduled steps; everything after is forced.
const HANDSHAKE_MINIMAL_LEN: usize = 3;

#[test]
fn pct_finds_wake_before_publish_within_budget() {
    let fuzzer = Fuzzer::new(1991, 200, Strategy::Pct { change_points: 3 });
    let report = fuzzer.run(&flag_handshake_program(false), |_| Ok(()));
    // The waiter sleeps on word 0.
    let hang = Failure::LostWakeup(vec![(0, 0)]);
    assert_eq!(
        report.verdict.failure(),
        Some(&hang),
        "PCT must lose the wakeup within 200 schedules"
    );
    assert!(report.failing_iter.is_some());

    // The shrinker must reach (at most) the hand-minimized schedule, and
    // the shrunk schedule must replay to the same verdict class.
    let shrunk = report
        .shrunk
        .expect("a failed campaign carries its shrunk schedule");
    assert!(
        shrunk.schedule.len() <= HANDSHAKE_MINIMAL_LEN,
        "shrunk schedule {:?} is longer than the hand-minimal {HANDSHAKE_MINIMAL_LEN} steps",
        shrunk.schedule
    );
    let replay = fuzzer
        .explorer()
        .replay(&flag_handshake_program(false), &shrunk.schedule);
    assert_eq!(
        replay.end.failure(&|_| Ok(())),
        Some(hang),
        "shrunk schedule must reproduce the lost wakeup"
    );
}

#[test]
fn uniform_also_finds_wake_before_publish() {
    let fuzzer = Fuzzer::new(7, 500, Strategy::Uniform);
    let report = fuzzer.run(&flag_handshake_program(false), |_| Ok(()));
    assert_eq!(
        VerdictClass::of(&report.verdict),
        VerdictClass::LostWakeup,
        "uniform random walk must also find the bug, got {:?}",
        report.verdict
    );
}

#[test]
fn fuzzing_the_fixed_handshake_passes_its_budget() {
    let fuzzer = Fuzzer::new(1991, 200, Strategy::Pct { change_points: 3 });
    fuzzer
        .run(&flag_handshake_program(true), |_| Ok(()))
        .expect_pass("fixed flag handshake under fuzzing");
}

#[test]
fn pct_finds_the_forgotten_eventcount_wake() {
    let fuzzer = Fuzzer::new(1991, 300, Strategy::Pct { change_points: 3 });
    let report = fuzzer.run(&eventcount_wrap_program(3, false), |_| Ok(()));
    match report.verdict.failure() {
        Some(Failure::LostWakeup(parked)) => {
            // However the schedule fell, every parked thread sleeps on the
            // count word.
            assert!(!parked.is_empty());
            assert!(parked.iter().all(|&(_, addr)| addr == 0));
        }
        other => panic!("forgotten wake must strand the waiters, got {other:?}"),
    }
}

/// The service mutex's slow path at four threads — one more than the
/// exhaustive search in `tests/dpor_blocking.rs` reaches. The fixed lock
/// survives its PCT budget; the seeded bug (post-wake spin acquiring as
/// HELD) strands a parked waiter within it.
#[test]
fn pct_checks_the_service_mutex_slow_path_at_four_threads() {
    let fuzzer = Fuzzer::new(1991, 2_000, Strategy::Pct { change_points: 3 });
    fuzzer
        .run(&spin_then_park_program(4, true), |_| Ok(()))
        .expect_pass("spin-then-park, 4 threads, under PCT");
    let report = fuzzer.run(&spin_then_park_program(4, false), |_| Ok(()));
    match report.verdict.failure() {
        Some(Failure::LostWakeup(parked)) => assert!(!parked.is_empty()),
        other => panic!("respin-as-HELD must strand a waiter, got {other:?}"),
    }
}

/// The eventcount with three awaiters, of counts 1, 2 and 3, and an
/// advancer — four threads, one more than `tests/dpor_blocking.rs` searches
/// exhaustively. `advance`'s wake-all survives its PCT budget; waking only
/// the oldest waiter strands an awaiter whose count has come within it.
#[test]
fn pct_checks_the_eventcounts_staggered_targets_at_four_threads() {
    let fuzzer = Fuzzer::new(1991, 2_000, Strategy::Pct { change_points: 3 });
    fuzzer
        .run(&eventcount_staggered_targets_program(4, true), |_| Ok(()))
        .expect_pass("eventcount, targets 1 to 3, under PCT");
    let report = fuzzer.run(&eventcount_staggered_targets_program(4, false), |_| Ok(()));
    match report.verdict.failure() {
        Some(Failure::LostWakeup(parked)) => assert!(!parked.is_empty()),
        other => panic!("a wake-one advance must strand an awaiter, got {other:?}"),
    }
}

/// The waiting-array semaphore with three acquirers and a releaser — four
/// threads, where the one-slot exhaustive search is still going after five
/// million runs (`tests/dpor_blocking.rs` stops at three threads). On one
/// slot and on two, the fixed
/// semaphore survives its PCT budget; waking a slot's oldest waiter per grant, whatever its ticket, strands
/// a granted waiter within it, and the shrunk schedule still does.
#[test]
fn pct_checks_the_waiting_array_semaphore_at_four_threads() {
    let fuzzer = Fuzzer::new(1991, 2_000, Strategy::Pct { change_points: 3 });
    for slots in [1, 2] {
        let program = |per_ticket| waiting_array_shared_slot_program(3, slots, false, per_ticket);
        fuzzer
            .run(&program(true), waiting_array_drained)
            .expect_pass("waiting array, 4 threads, under PCT");
        let report = fuzzer.run(&program(false), waiting_array_drained);
        assert_eq!(
            VerdictClass::of(&report.verdict),
            VerdictClass::LostWakeup,
            "{slots} slot(s): wake-one must strand a waiter, got {:?}",
            report.verdict
        );
        let shrunk = report
            .shrunk
            .expect("a failed campaign carries its shrunk schedule");
        let replay = fuzzer.explorer().replay(&program(false), &shrunk.schedule);
        assert!(
            matches!(
                replay.end.failure(&waiting_array_drained),
                Some(Failure::LostWakeup(_))
            ),
            "{slots} slot(s): shrunk schedule {:?} must still strand a waiter, got {:?}",
            shrunk.schedule,
            replay.end
        );
    }
}

/// Same seed, same strategy, same program → byte-identical verdict and
/// shrunk schedule. This is what makes a fuzz failure in CI a replayable
/// artifact rather than a flake report.
#[test]
fn fuzz_failures_are_reproducible_from_the_seed() {
    for strategy in [Strategy::Uniform, Strategy::Pct { change_points: 3 }] {
        let run = || {
            let fuzzer = Fuzzer::new(1991, 500, strategy);
            fuzzer.run(&flag_handshake_program(false), |_| Ok(()))
        };
        let (a, b) = (run(), run());
        assert_eq!(
            format!("{:?}", a.verdict),
            format!("{:?}", b.verdict),
            "verdicts diverged under {strategy}"
        );
        assert_eq!(a.failing_iter, b.failing_iter);
        assert_eq!(
            a.shrunk.map(|s| s.schedule),
            b.shrunk.map(|s| s.schedule),
            "shrunk schedules diverged under {strategy}"
        );
    }
}

/// A parked waiter at preemption bound 0 is a lost wakeup, not a deadlock
/// — the end-to-end version of the explorer-level regression. The
/// forgotten-wake program parks its waiters without needing a single
/// preemption (each thread runs to its park voluntarily), so even the
/// strictest bound must reach — and correctly classify — the hang.
#[test]
fn bounded_explorer_classifies_the_park_hang_as_lost_wakeup() {
    for explorer in [
        Explorer::bounded(0),
        Explorer::bounded(0).with_bypass_bound(1),
    ] {
        let verdict = explorer.check(&eventcount_wrap_program(3, false), |_| Ok(()));
        assert_eq!(
            VerdictClass::of(&verdict),
            VerdictClass::LostWakeup,
            "bounded(0) must classify the park hang as a lost wakeup, got {verdict:?}"
        );
    }
}

/// The differential harness agrees across all four backends for healthy
/// registry locks — including a blocking variant, which exercises the
/// futex park/wake accounting on the simulator and real threads.
#[test]
fn differential_backends_agree_on_registry_locks() {
    for name in ["qsm", "mcs", "qsm-block"] {
        let report = differential_lock(name, &DiffConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.all_agree(),
            "{name} backends disagreed:\n{}",
            report.render()
        );
    }
}
