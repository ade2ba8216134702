//! What an `EventKey::await_at_least` costs against one `advance`: nothing
//! but CPU when the advance lands inside the spin budget — the table lot's
//! `park_cost()` — and exactly one park when it does not.
//!
//! Every test has a `LockService`, hence a lot and a ledger, of its own, so
//! the deltas below are equalities. They are serialised all the same,
//! because they are about timing: each is two threads, and a neighbour test
//! taking a core turns "inside the budget" into a preemption.
//!
//! The payload the advancer publishes is a plain word, not an atomic one:
//! ThreadSanitizer reports nothing about atomics, and here it is asked to
//! judge the happens-before edge from `advance` to the `await_at_least` it
//! satisfies, on the spin path and on the park path.

use parking::futex::{FutexTotals, PARK_COST_CEIL, PARK_COST_FLOOR};
use service::LockService;
use std::cell::UnsafeCell;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Serialises the tests of this file.
fn alone() -> MutexGuard<'static, ()> {
    static HOST: Mutex<()> = Mutex::new(());
    HOST.lock().unwrap_or_else(|e| e.into_inner())
}

/// `n` parks, each ended by one wake and one resume.
fn balanced_at(n: u64) -> FutexTotals {
    FutexTotals {
        parks: n,
        wakes: n,
        resumes: n,
    }
}

fn park_cost(svc: &LockService) -> Duration {
    Duration::from_nanos(
        svc.metrics_snapshot()
            .park_cost_ns
            .expect("service snapshot"),
    )
}

/// A word written and read with plain accesses; the eventcount is what
/// orders them.
struct Plain(UnsafeCell<u64>);

// SAFETY: `one_wait` writes it before `advance` and reads it after the
// `await_at_least` that advance satisfied — the ordering under test.
unsafe impl Sync for Plain {}

impl Plain {
    fn write(&self, value: u64) {
        // SAFETY: see the `Sync` impl.
        unsafe { *self.0.get() = value }
    }

    fn read(&self) -> u64 {
        // SAFETY: see the `Sync` impl.
        unsafe { *self.0.get() }
    }
}

const PUBLISHED: u64 = 0x1991;

/// What one wait came to.
struct Waited {
    /// The count `await_at_least(1)` returned.
    seen: u64,
    /// The payload as the awaiter read it afterwards.
    payload: u64,
    /// From just before the awaiter's call to just after `advance` returned.
    advanced_after: Duration,
    /// From just before the awaiter's call to this thread first seeing a
    /// park on the ledger, if it saw one before it advanced.
    parked_after: Option<Duration>,
    /// The lot's ledger across the wait.
    ledger: FutexTotals,
}

/// One thread awaits count 1 on a fresh eventcount; this thread publishes
/// the payload and advances once `hold_off` — given the ledger so far and
/// the time since the awaiter entered — says so.
fn one_wait(svc: &LockService, hold_off: impl Fn(FutexTotals, Duration) -> bool) -> Waited {
    let count = svc.eventcount(7);
    let payload = Plain(UnsafeCell::new(0));
    let entered = OnceLock::new();
    let before = svc.futex_totals();
    thread::scope(|s| {
        let awaiter = s.spawn(|| {
            entered.set(Instant::now()).unwrap();
            let seen = count.await_at_least(1);
            (seen, payload.read())
        });
        let entered = loop {
            match entered.get() {
                Some(at) => break *at,
                None => std::hint::spin_loop(),
            }
        };
        let mut parked_after = None;
        loop {
            let (ledger, since) = (svc.futex_totals().since(&before), entered.elapsed());
            if ledger.parks > 0 {
                parked_after.get_or_insert(since);
            }
            if !hold_off(ledger, since) {
                break;
            }
            std::hint::spin_loop();
        }
        payload.write(PUBLISHED);
        assert_eq!(count.advance(), 1);
        let advanced_after = entered.elapsed();
        let (seen, payload) = awaiter.join().unwrap();
        Waited {
            seen,
            payload,
            advanced_after,
            parked_after,
            ledger: svc.futex_totals().since(&before),
        }
    })
}

/// An advance that has returned before even the smallest budget is up is
/// seen by the awaiter's spin, or at the latest by the read that follows
/// it: no park, no wake, whatever the scheduler did in between. (Parking at
/// once, the awaiter is asleep well inside the two microseconds the
/// advancer gives it.)
#[test]
fn an_advance_inside_the_budget_is_taken_without_a_park() {
    let _alone = alone();
    let svc = LockService::with_shards(4);
    let mut inside = 0;
    for _ in 0..2_000 {
        let waited = one_wait(&svc, |_, since| since < Duration::from_micros(2));
        assert_eq!((waited.seen, waited.payload), (1, PUBLISHED));
        // Later than the floor means this thread lost its core on the way.
        if waited.advanced_after < PARK_COST_FLOOR {
            assert_eq!(waited.ledger, balanced_at(0), "parked inside its budget");
            inside += 1;
            if inside == 16 {
                break;
            }
        }
    }
    assert!(inside > 0, "no advance ever landed inside the budget");
    assert_eq!(svc.stats().live, 0);
}

/// An awaiter nobody advances watches the count for the lot's `park_cost()`
/// — seeded at the floor, then the clamped average of this very test's
/// parks — before it blocks, and the advance that comes well past the
/// ceiling then costs exactly one park.
#[test]
fn an_advance_past_the_budget_costs_exactly_one_park() {
    let _alone = alone();
    let svc = LockService::with_shards(4);
    for _ in 0..16 {
        // Nothing parks in the lot between this read and the awaiter's own.
        let budget = park_cost(&svc);
        assert!(
            (PARK_COST_FLOOR..=PARK_COST_CEIL).contains(&budget),
            "{budget:?}"
        );
        let waited = one_wait(&svc, |ledger, since| {
            ledger.parks == 0 || since < 2 * PARK_COST_CEIL
        });
        let spun = waited.parked_after.unwrap();
        assert!(
            spun >= budget,
            "parked after {spun:?} of a {budget:?} budget"
        );
        assert_eq!((waited.seen, waited.payload), (1, PUBLISHED));
        assert_eq!(
            waited.ledger,
            balanced_at(1),
            "a missed budget costs one park"
        );
    }
    assert_eq!(svc.stats().live, 0);
}

/// Two threads, each waiting for the other's count and then advancing its
/// own, `steps` steps each; returns how often one of them parked.
fn two_thread_ring_parks(steps: u64) -> u64 {
    let svc = LockService::with_shards(4);
    let counts = [svc.eventcount(1), svc.eventcount(2)];
    thread::scope(|s| {
        for tid in 0..2 {
            let (own, other) = (&counts[tid], &counts[1 - tid]);
            s.spawn(move || {
                for step in 0..steps {
                    let seen = other.await_at_least(step);
                    assert!(seen == step || seen == step + 1, "{seen} at step {step}");
                    own.advance();
                }
            });
        }
    });
    let ledger = svc.futex_totals();
    assert!(ledger.balanced(), "{ledger:?}");
    ledger.parks
}

/// With a core apiece the awaited advance of a two-thread ring is a cache
/// miss away, so hardly any step should leave the processor. A ring that
/// loses a core to another process parks at every step, and so does one
/// that falls into step with its own wake-ups — a woken thread is one park
/// cost from running, which is all the budget its partner has — so one
/// quiet ring in five is asked for. (Parking at once, every ring parks at
/// about every step.) On one core the partner cannot run while the waiter
/// spins, and there is nothing to measure.
#[test]
fn a_two_thread_ring_rarely_parks() {
    const STEPS: u64 = 10_000;
    let _alone = alone();
    if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("a_two_thread_ring_rarely_parks: skipped, needs two cores");
        return;
    }
    let mut parks = Vec::new();
    let quiet = (0..5).any(|_| {
        parks.push(two_thread_ring_parks(STEPS));
        parks.last().is_some_and(|&parks| parks < STEPS / 4)
    });
    assert!(quiet, "rings of {STEPS} steps parked {parks:?} times");
}
