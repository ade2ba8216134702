//! Exhaustive coverage for the blocking programs that were fuzz-only
//! before optimal DPOR (ROADMAP item: "3-4-thread blocking QSM and
//! eventcount programs").
//!
//! Six program families, the first five each in a fixed and a seeded-bug
//! variant. All run the shipped code — `service::protocol`, on the
//! checker's instantiation [`interleave::corpus::Chk`] — and each seeded
//! bug is that context with one operation rewritten
//! ([`interleave::corpus::Mutant`]):
//!
//! * **QSM queue lock** — `qsm::Qsm`'s `protocol::qsm_lock` /
//!   `qsm_unlock` over fresh nodes ([`interleave::corpus::QsmNodes`]),
//!   each poisoned where `Qsm` frees it; the bug is the classic
//!   wake-before-advance hand-off;
//! * **eventcount** — `advance` across `u64::MAX` against
//!   `await_at_least`'s signed-distance compare, where the bug's advance
//!   wakes nobody; and **two targets on one count**, where `advance` wakes
//!   everybody because the oldest waiter need not be the satisfied one, and
//!   the bug wakes one;
//! * **service mutex** — `lock_contended`'s spin → announce → park → woken
//!   → spin again → re-announce, and `unlock`; the bug lets the post-wake
//!   CAS acquire as HELD, which strands a second parked waiter. Exhaustive
//!   under source sets, and once more preemption-bounded;
//! * **barrier** — `barrier_arrive` and its wait loop at three parties; the
//!   bug completes the round with a wake-one. And a cancelled party's
//!   `barrier_unarrive` racing the round's completion, where the bug
//!   decrements without re-reading the round;
//! * **waiting-array semaphore** — waiters sharing a slot against
//!   one-at-a-time releases, where waking the slot's oldest waiter instead
//!   of the granted ticket (the PR 8 bug) strands the granted one, and the
//!   abandoned-ticket protocol against `release_n(2)`, where a stale
//!   re-check grants a ghost. One script run through the service's
//!   semaphore and the checker's instantiation pins what can still drift:
//!   the adapter. The searches that take seconds in a debug build are
//!   ignored there: CI's release run of this suite executes them;
//! * **the table's slot lifecycle** — `protocol::slot_attach` and
//!   `slot_detach` over `kernels::slots::SlotArray`, two keys on one slot:
//!   a fixed program only, exhaustive with no reduction as well.
//!
//! Counts that moved when the hand-written mirrors went (PR 26) say which
//! steps of the shipped code the mirror skipped.
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
    barrier_program, barrier_round_completed, barrier_unarrive_program, corpus_program,
    eventcount_staggered_targets_program, eventcount_wrap_program, qsm_nodes_freed, qsm_program,
    slot_lifecycle_program, slot_rebound, spin_then_park_program, waiting_array_cancel_program,
    waiting_array_drained, waiting_array_one_permit_left, waiting_array_shared_slot_program, Chk,
    WaitingArrayWords,
};
use interleave::{DporMode, Explorer, Program, Verdict, VerdictClass};
use kernels::{SyncCtx, Word};
use service::protocol;
use service::WaitingArraySemaphore;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Waker};

const MODES: [DporMode; 2] = [DporMode::Sleep, DporMode::Source];

/// A final-state check, as the corpus registry types it.
type Check = fn(&[Word]) -> Result<(), String>;

fn pass(_mem: &[Word]) -> Result<(), String> {
    Ok(())
}

/// The budget is above the largest search here (362 700 runs: three
/// waiters on two slots under sleep sets), so every pass is a finished one.
fn explore(program: &Program, mode: DporMode, check: Check) -> Verdict {
    Explorer::exhaustive()
        .with_dpor(mode)
        .with_max_runs(600_000)
        .check(program, check)
}

/// Explores a program under one mode: it must end in `want`, and a pass
/// must be an exhaustive one. Returns the run count (of the whole search,
/// or up to the bug).
fn ends_in(
    what: &str,
    want: VerdictClass,
    check: Check,
    mode: DporMode,
    build: impl Fn() -> Program,
) -> usize {
    let v = explore(&build(), mode, check);
    assert_eq!(VerdictClass::of(&v), want, "{what} {mode}: got {v:?}");
    assert!(
        want != VerdictClass::Pass || v.stats().complete,
        "{what} {mode}: search must be exhaustive"
    );
    v.stats().runs
}

/// [`ends_in`] once per mode; returns the `[sleep, source]` run counts.
fn ends_in_under_every_mode(
    what: &str,
    want: VerdictClass,
    check: Check,
    build: impl Fn() -> Program,
) -> [usize; 2] {
    MODES.map(|mode| ends_in(what, want, check, mode, &build))
}

/// A correct program: it must pass, exhaustively, under every mode.
fn passes_under_every_mode(what: &str, build: impl Fn() -> Program) -> [usize; 2] {
    ends_in_under_every_mode(what, VerdictClass::Pass, pass, build)
}

/// A seeded bug that strands a parked waiter under every mode.
fn loses_a_wakeup_under_every_mode(what: &str, build: impl Fn() -> Program) -> [usize; 2] {
    ends_in_under_every_mode(what, VerdictClass::LostWakeup, pass, build)
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

/// The table's slot lifecycle, two keys on one slot: a detach that frees
/// the slot against an attach that waits for it. Exhaustive with source
/// sets, and with no reduction at all.
#[test]
fn slot_lifecycle_passes_with_source_sets_and_with_no_reduction() {
    let runs = [DporMode::Source, DporMode::None].map(|mode| {
        let what = "slot lifecycle, 2 keys on 1 slot";
        ends_in(
            what,
            VerdictClass::Pass,
            slot_rebound,
            mode,
            slot_lifecycle_program,
        )
    });
    assert_eq!(runs, [912, 24_484], "the run counts moved");
}

/// Three threads through `Qsm`'s queue, thread 0 starting as the holder:
/// every critical section runs and no node is written after its free.
#[test]
fn fixed_qsm_three_threads_passes_and_source_beats_sleep() {
    let runs = ends_in_under_every_mode("qsm 3x1", VerdictClass::Pass, qsm_nodes_freed, || {
        qsm_program(3, 1, true)
    });
    assert_source_beats_sleep("qsm-3-fixed", runs);
    assert_eq!(runs, [58_356, 5_558], "the EXPERIMENTS.md counts moved");
}

/// A hand-off that wakes before it advances strands a waiter that parked
/// in between.
#[test]
fn broken_qsm_three_threads_loses_a_wakeup_under_every_mode() {
    let runs = loses_a_wakeup_under_every_mode("qsm 3x1, wake-before-advance", || {
        qsm_program(3, 1, false)
    });
    assert_source_reaches_the_bug_no_later("qsm-3-bug", runs);
    assert_eq!(runs, [7, 3], "the EXPERIMENTS.md counts moved");
}

#[test]
fn broken_qsm_four_threads_loses_a_wakeup_under_every_mode() {
    loses_a_wakeup_under_every_mode("qsm 4x1, wake-before-advance", || qsm_program(4, 1, false));
}

#[test]
fn fixed_eventcount_wrap_three_threads_passes_and_source_beats_sleep() {
    let runs = passes_under_every_mode("eventcount wrap 3t, fixed", || {
        eventcount_wrap_program(3, true)
    });
    assert_source_beats_sleep("eventcount-wrap-3-fixed", runs);
    assert_eq!(runs, [266, 191], "the EXPERIMENTS.md counts moved");
}

/// The flagship scaling result rides on the same two searches: under one
/// shared 20k-run budget the 4-thread eventcount-wraparound search is
/// unfinishable for sleep-set DFS (35 626 runs) while source sets complete
/// it in 18 350 (the mirror, without the awaiters' spin probe: 10 364 and
/// 5 480 around 8k). A budgeted search is the full search cut short, so
/// "does not finish within the budget" is exactly "needs more runs than the
/// budget". The same inversion holds on the real blocking QSM lock at
/// sizes no test budget reaches: 3-thread `qsm-block-park` is 47 738 vs
/// 12 720 runs (3.8×), and the 4-thread lock completes under source sets
/// in 11 735 273 runs where sleep sets exhaust a 40-million-run budget
/// (CI's `interleave-dpor` job runs the former).
#[test]
fn fixed_eventcount_wrap_four_threads_completes_under_source_but_not_sleep() {
    const BUDGET: usize = 20_000;
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
    assert_eq!(runs, [35_626, 18_350], "the EXPERIMENTS.md counts moved");
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

/// One advancer advancing twice, awaiters of 1 and of 2 on the one count —
/// the program `protocol::advance`'s wake-all exists for. A wake-one
/// advance hands the first wake to whichever awaiter parked first; when
/// that is the awaiter of 2 it parks again on count 1, and the second wake
/// goes to only one of the two sleepers. Re-pinned: each awaiter's spin
/// probe is a load the mirror skipped.
#[test]
fn eventcount_two_targets_pass_with_wake_all_and_lose_a_wakeup_with_wake_one() {
    let runs = passes_under_every_mode("eventcount, targets 1 and 2, wake-all", || {
        eventcount_staggered_targets_program(3, true)
    });
    assert_source_beats_sleep("eventcount-two-targets-fixed", runs);
    assert_eq!(runs, [9_681, 8_081], "the EXPERIMENTS.md counts moved");
    let runs = loses_a_wakeup_under_every_mode("eventcount, targets 1 and 2, wake-one", || {
        eventcount_staggered_targets_program(3, false)
    });
    assert_source_reaches_the_bug_no_later("eventcount-two-targets-bug", runs);
    assert_eq!(runs, [902, 725], "the EXPERIMENTS.md counts moved");
}

/// The two corpus programs of the mode comparison, both explored under
/// the always-true final check: `check-then-set` within the run budget and
/// strictly cheaper under source sets, `wake-before-publish` up to its
/// lost wakeup.
#[test]
fn corpus_programs_never_cost_source_more_runs_than_sleep() {
    let check_then_set = MODES.map(|mode| {
        let v = explore(&corpus_program("check-then-set").unwrap().0, mode, pass);
        assert!(
            v.stats().complete,
            "check-then-set {mode}: search must finish"
        );
        v.stats().runs
    });
    assert_source_beats_sleep("check-then-set", check_then_set);
    assert_eq!(check_then_set, [5, 3], "the EXPERIMENTS.md counts moved");
    let wake_before_publish = MODES.map(|mode| {
        let program = corpus_program("wake-before-publish").unwrap().0;
        explore(&program, mode, pass).stats().runs
    });
    assert_source_reaches_the_bug_no_later("wake-before-publish", wake_before_publish);
}

/// Every one of three threads ran its critical section, none overlapping.
fn three_critical_sections(mem: &[Word]) -> Result<(), String> {
    match mem[mem.len() - 1] {
        3 => Ok(()),
        c => Err(format!("critical sections lost: counter {c} != 3")),
    }
}

/// Re-pinned (51 334 before): the shipped code loads before each CAS.
#[test]
fn fixed_spin_then_park_three_threads_passes_under_source_sets() {
    let v = Explorer::exhaustive()
        .with_dpor(DporMode::Source)
        .with_max_runs(200_000)
        .check(&spin_then_park_program(3, true), three_critical_sections);
    v.expect_pass("spin-then-park 3 threads");
    assert!(v.stats().complete, "search must be exhaustive");
    assert_eq!(v.stats().runs, 90_310);
}

/// Every schedule with at most three preemptions (502 executions): enough
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
    let runs = [3, 4].map(|nthreads| {
        loses_a_wakeup_under_every_mode(
            &format!("spin-then-park {nthreads}t, HELD release wakes nobody"),
            || spin_then_park_program(nthreads, false),
        )
    });
    assert_eq!(runs[0], [362, 260], "the EXPERIMENTS.md counts moved");
}

/// The same search under sleep sets: about half as many runs again.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "1 s in release, ten times that in debug: CI's interleave-dpor job runs it"
)]
fn fixed_spin_then_park_three_threads_passes_under_sleep_sets() {
    let runs = ends_in(
        "spin-then-park 3t",
        VerdictClass::Pass,
        three_critical_sections,
        DporMode::Sleep,
        || spin_then_park_program(3, true),
    );
    assert_eq!(runs, 130_954, "the EXPERIMENTS.md count moved");
}

/// One pinned search: what it is, the program, its final-state check and
/// the verdict it must end in. The tests below pin the `[sleep, source]`
/// run counts of each array in its order (EXPERIMENTS.md quotes them).
type Search = (&'static str, fn() -> Program, Check, VerdictClass);

/// Two waiters holding tickets 0 and 1, released one at a time. On one
/// slot, waking the slot's oldest waiter per grant ("wake-one": by address,
/// whatever its ticket) dequeues the sharer whose grant is
/// still pending and strands the granted waiter (the PR 8 bug); on two
/// slots nobody shares and the same release passes — the bug *is* slot
/// sharing. And a waiter cancelling against `release_n(2)`: a canceller
/// whose re-check under the abandoned set's lock is stale grants a ghost, a
/// final-state violation rather than a hang. Re-pinned here and below: the
/// shipped wait's spin probe is a load of the slot the mirror skipped.
const SEM_SEEDED_BUGS_AND_CONTROL: [Search; 3] = [
    (
        "waiting array 2 waiters / 1 slot, wake-one",
        || waiting_array_shared_slot_program(2, 1, true, false),
        waiting_array_drained,
        VerdictClass::LostWakeup,
    ),
    (
        "waiting array 2 waiters / 2 slots, wake-one",
        || waiting_array_shared_slot_program(2, 2, true, false),
        waiting_array_drained,
        VerdictClass::Pass,
    ),
    (
        "waiting array cancel vs release_n(2), stale re-check",
        || waiting_array_cancel_program(false),
        waiting_array_one_permit_left,
        VerdictClass::Violation,
    ),
];

/// The semaphore as the service ships it — a grant wakes the waiter parked
/// under its ticket — on the two programs above: every waiter gets through
/// a shared slot, and whichever side recycles a cancelled ticket, exactly
/// one permit is left.
const SEM_FIXED: [Search; 2] = [
    (
        "waiting array 2 waiters / 1 slot",
        || waiting_array_shared_slot_program(2, 1, true, true),
        waiting_array_drained,
        VerdictClass::Pass,
    ),
    (
        "waiting array cancel vs release_n(2)",
        || waiting_array_cancel_program(true),
        waiting_array_one_permit_left,
        VerdictClass::Pass,
    ),
];

/// The shared slot with the waiters taking their own tickets, so that a
/// release may overtake an acquirer; and three ticketed waiters on two
/// slots, where tickets 0 and 2 share and ticket 1 does not.
const SEM_LARGER: [Search; 4] = [
    (
        "waiting array 2 acquirers / 1 slot",
        || waiting_array_shared_slot_program(2, 1, false, true),
        waiting_array_drained,
        VerdictClass::Pass,
    ),
    (
        "waiting array 2 acquirers / 1 slot, wake-one",
        || waiting_array_shared_slot_program(2, 1, false, false),
        waiting_array_drained,
        VerdictClass::LostWakeup,
    ),
    (
        "waiting array 3 waiters / 2 slots",
        || waiting_array_shared_slot_program(3, 2, true, true),
        waiting_array_drained,
        VerdictClass::Pass,
    ),
    (
        "waiting array 3 waiters / 2 slots, wake-one",
        || waiting_array_shared_slot_program(3, 2, true, false),
        waiting_array_drained,
        VerdictClass::LostWakeup,
    ),
];

/// Runs a search under both modes and returns its `[sleep, source]` run
/// counts, after holding source sets to their claim: strictly fewer runs
/// than sleep sets on a finished search, never more to a bug.
fn runs_of((what, build, check, want): Search) -> [usize; 2] {
    let got = ends_in_under_every_mode(what, want, check, build);
    if want == VerdictClass::Pass {
        assert_source_beats_sleep(what, got);
    } else {
        assert_source_reaches_the_bug_no_later(what, got);
    }
    got
}

/// Three parties at the barrier, thread 0 already arrived: the round
/// completes for all of them, and a round completed with a wake-one
/// strands a parked party.
#[test]
fn barrier_three_parties_pass_and_a_wake_one_round_loses_a_wakeup() {
    let runs = ends_in_under_every_mode(
        "barrier 3",
        VerdictClass::Pass,
        barrier_round_completed,
        || barrier_program(3, true),
    );
    assert_source_beats_sleep("barrier-3-fixed", runs);
    assert_eq!(runs, [8_844, 6_308], "the EXPERIMENTS.md counts moved");
    let runs =
        loses_a_wakeup_under_every_mode("barrier 3, round wakes one", || barrier_program(3, false));
    assert_eq!(runs, [1, 1], "the EXPERIMENTS.md counts moved");
}

/// A party that arrives, un-arrives and arrives again against one that
/// arrives once: one round completes whichever side the un-arrive lands
/// on, and an un-arrive that does not re-read the round takes an arrival
/// from the round after the one it left. Two threads, so source sets have
/// nothing to prune that sleep sets keep: the fixed search is a tie.
#[test]
fn barrier_unarrive_passes_and_a_blind_unarrive_is_caught() {
    let runs = ends_in_under_every_mode(
        "barrier un-arrive",
        VerdictClass::Pass,
        barrier_round_completed,
        || barrier_unarrive_program(true),
    );
    assert_eq!(runs, [420, 420], "the EXPERIMENTS.md counts moved");
    let runs = ends_in_under_every_mode(
        "barrier un-arrive, round not re-read",
        VerdictClass::Violation,
        barrier_round_completed,
        || barrier_unarrive_program(false),
    );
    assert_source_reaches_the_bug_no_later("barrier-unarrive-bug", runs);
    assert_eq!(runs, [41, 41], "the EXPERIMENTS.md counts moved");
}

/// Tier-1's share: the seeded bugs and the control under both modes, the
/// shipped protocol under source sets.
#[test]
fn waiting_array_protocols_pass_and_their_seeded_bugs_are_found() {
    let runs = SEM_SEEDED_BUGS_AND_CONTROL.map(runs_of);
    assert_eq!(runs, [[2_946, 1_372], [474, 87], [7, 4]]);
    let source = SEM_FIXED
        .map(|(what, build, check, want)| ends_in(what, want, check, DporMode::Source, build));
    assert_eq!(source, [8_694, 6_045]);
}

/// The shipped protocol under sleep sets too (two to three times the runs),
/// and the larger programs.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "10 s in release, minutes in debug: CI's interleave-dpor job runs it"
)]
fn waiting_array_larger_searches_pass_under_every_mode() {
    assert_eq!(SEM_FIXED.map(runs_of), [[18_884, 8_694], [20_899, 6_045]]);
    let [acquirers, acquirers_bug, three_on_two, three_on_two_bug] = SEM_LARGER.map(runs_of);
    assert_eq!(acquirers, [152_117, 69_596]);
    assert_eq!(acquirers_bug, [5_906, 2_737]);
    assert_eq!(three_on_two, [362_700, 84_800]);
    assert_eq!(three_on_two_bug, [55_575, 13_222]);
}

/// One step of the drift script below; each compares what it returns.
#[derive(Debug, Clone, Copy)]
enum SemStep {
    /// `try_acquire`.
    Try,
    /// First poll of a new acquirer, which joins the pending list unless
    /// admitted at once.
    Acquire,
    /// Polls every pending acquirer.
    Poll,
    /// `release_n`.
    Release(usize),
    /// Drops the nth pending acquirer unadmitted.
    Cancel(usize),
}

/// One poll with a waker nobody listens to; true once admitted.
fn poll<F: Future>(fut: &mut Pin<Box<F>>) -> bool {
    let mut cx = Context::from_waker(Waker::noop());
    fut.as_mut().poll(&mut cx).is_ready()
}

/// Adapter drift pin: one single-threaded script through the service's
/// semaphore and through the checker's instantiation of the same code,
/// `permits()` compared after every step along with whatever the step
/// returns — what can differ is the adapter (the abandoned set's encoding,
/// one tagged wake per grant), not the protocol. It walks the fast path, slot
/// sharing (three tickets on two slots), an abandoned ticket recycled
/// mid-batch and a cancel that finds its grant already published, at
/// ticket origin 0 and across the `u64` wrap.
#[test]
fn waiting_array_model_tracks_the_service_semaphore_step_by_step() {
    use SemStep::*;
    #[rustfmt::skip]
    const SCRIPT: [SemStep; 17] = [
        Try, Try, Acquire, Acquire, Acquire, Release(1), Poll, Cancel(0), Release(2), Poll,
        Acquire, Acquire, Release(1), Cancel(0), Try, Release(3), Try,
    ];
    for origin in [0, u64::MAX - 3] {
        let sem = WaitingArrayWords::new(2, origin);
        let program = Program::new(1, sem.words(), move |ctx| {
            let c = &mut Chk::new(ctx, None);
            let real = WaitingArraySemaphore::with_ticket_origin(1, 2, origin);
            // Acquirers not yet admitted: the future, and the checked ticket.
            let mut pending = Vec::new();
            for (n, step) in SCRIPT.into_iter().enumerate() {
                let at = format!("origin {origin:#x}, step {n} ({step:?})");
                match step {
                    Try => assert_eq!(protocol::try_acquire(c, &sem), real.try_acquire(), "{at}"),
                    Acquire => {
                        let mut fut = Box::pin(real.acquire_async());
                        let ticket = protocol::take_ticket(c, &sem);
                        assert_eq!(ticket.is_none(), poll(&mut fut), "{at}");
                        pending.extend(ticket.map(|ticket| (fut, ticket)));
                    }
                    Poll => pending.retain_mut(|(fut, ticket)| {
                        let granted = protocol::granted(c, &sem, *ticket);
                        assert_eq!(granted, poll(fut), "{at}");
                        !granted
                    }),
                    Release(k) => {
                        assert_eq!(protocol::release_n(c, &sem, k), real.release_n(k), "{at}")
                    }
                    Cancel(nth) => {
                        let (fut, ticket) = pending.remove(nth);
                        drop(fut);
                        protocol::cancel_ticket(c, &sem, ticket);
                    }
                }
                let permits = c.load(WaitingArrayWords::PERMITS) as i64;
                assert_eq!(permits, real.permits(), "{at}");
            }
            assert!(pending.is_empty());
            assert_eq!(real.permits(), 2, "the script's own arithmetic");
        })
        .with_init(sem.init(1, 0));
        explore(&program, DporMode::Source, pass).expect_pass("adapter drift script");
    }
}

/// Prints the run-count table for DESIGN.md / EXPERIMENTS.md. Ignored:
/// run with `-- --ignored --nocapture measure` to refresh the numbers.
#[test]
#[ignore = "measurement helper, prints the mode comparison table"]
fn measure() {
    type Suite = Vec<(&'static str, Box<dyn Fn() -> Program>)>;
    let suite: Suite = vec![
        ("qsm-3-fixed", Box::new(|| qsm_program(3, 1, true))),
        ("qsm-4-fixed", Box::new(|| qsm_program(4, 1, true))),
        ("qsm-3-bug", Box::new(|| qsm_program(3, 1, false))),
        ("qsm-4-bug", Box::new(|| qsm_program(4, 1, false))),
        (
            "eventcount-wrap-3-fixed",
            Box::new(|| eventcount_wrap_program(3, true)),
        ),
        (
            "eventcount-wrap-4-fixed",
            Box::new(|| eventcount_wrap_program(4, true)),
        ),
        (
            "eventcount-wrap-3-bug",
            Box::new(|| eventcount_wrap_program(3, false)),
        ),
        (
            "eventcount-wrap-4-bug",
            Box::new(|| eventcount_wrap_program(4, false)),
        ),
        (
            "eventcount-two-targets-fixed",
            Box::new(|| eventcount_staggered_targets_program(3, true)),
        ),
        (
            "eventcount-two-targets-bug",
            Box::new(|| eventcount_staggered_targets_program(3, false)),
        ),
        (
            "spin-then-park-3-fixed",
            Box::new(|| spin_then_park_program(3, true)),
        ),
        (
            "spin-then-park-3-bug",
            Box::new(|| spin_then_park_program(3, false)),
        ),
        ("barrier-3-fixed", Box::new(|| barrier_program(3, true))),
        ("barrier-3-bug", Box::new(|| barrier_program(3, false))),
        (
            "barrier-unarrive-fixed",
            Box::new(|| barrier_unarrive_program(true)),
        ),
        (
            "barrier-unarrive-bug",
            Box::new(|| barrier_unarrive_program(false)),
        ),
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
    let row = |name: &str, build: &dyn Fn() -> Program, check: Check| {
        let mut source_search = (0, std::time::Duration::ZERO);
        let [sleep, source] = MODES.map(|mode| {
            let started = std::time::Instant::now();
            let s = explore(&build(), mode, check).stats();
            source_search = (s.max_depth, started.elapsed());
            format!("{}{}", s.runs, if s.complete { "" } else { "+" })
        });
        let (depth, wall) = source_search;
        println!("{name} | {sleep} | {source} | {depth} | {wall:.1?}");
    };
    println!("program | sleep | source | max depth (source) | wall (source)");
    for (name, build) in suite {
        row(name, &build, pass);
    }
    let searches = SEM_SEEDED_BUGS_AND_CONTROL
        .into_iter()
        .chain(SEM_FIXED)
        .chain(SEM_LARGER);
    for (what, build, check, ..) in searches {
        row(what, &build, check);
    }
}
