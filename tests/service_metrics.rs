//! Integration tests for the service telemetry subsystem: snapshot
//! readers racing live writers, exact accounting at quiescence, the
//! exporters round-tripping through their own validators, a traced lot
//! recording exactly its ledger, the stall watchdog firing exactly once on
//! a genuine stall while staying silent on a slow-but-live workload, and
//! (ignored, wall-clock) what `counters` mode costs against `off`.
//!
//! Everything here builds its *own* `LockService` with an explicit
//! metrics mode, so other tests' counters and parks never leak in.

use parking::futex::{mix64, FutexTotals};
use service::{LockService, MetricsMode};
use simcore::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{EventClass, Tracer};
use workloads::service_load::Zipf;

/// `threads` closed-loop workers on `svc`, each locking `ops` keys drawn
/// from Zipf 1.1 over 4 096 keys (ranks hashed apart, so shard load
/// follows the hash) and spinning 64 iterations inside each hold. Returns
/// the wall-clock of the whole run.
fn zipf_load(svc: &LockService, threads: u64, ops: usize) -> Duration {
    let zipf = Zipf::new(4096, 1.1);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let zipf = &zipf;
            s.spawn(move || {
                let mut rng = Rng::new(0xC0FFEE).fork(0x1000 + t);
                for _ in 0..ops {
                    let _g = svc.lock(mix64(zipf.sample(&mut rng)));
                    for _ in 0..64 {
                        std::hint::spin_loop();
                    }
                }
            });
        }
    });
    start.elapsed()
}

/// 8 writer threads hammer a small hot key band while 2 readers snapshot
/// continuously: every snapshot must be monotone over the previous one,
/// and at quiescence the counters must account for every acquisition and
/// the lot-local futex ledger must balance exactly.
#[test]
fn snapshots_stay_monotone_under_writers_and_exact_at_quiesce() {
    let threads = 8u64;
    let rounds = 4_000u64;
    // Sample every contended wait: on a small host the hammer phase may
    // contend rarely (threads serialize), and the point here is the
    // concurrent-snapshot machinery, not the sampling rate.
    let svc = Arc::new(service::LockService::with_metrics_mode(
        64,
        service::MetricsMode::Sampled(1),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let snapshots_taken = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for _ in 0..2 {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            let snapshots_taken = Arc::clone(&snapshots_taken);
            s.spawn(move || {
                let mut prev = svc.metrics_snapshot();
                while !stop.load(Ordering::Relaxed) {
                    let cur = svc.metrics_snapshot();
                    assert!(
                        cur.monotone_since(&prev),
                        "snapshot went backwards: {} acquires after {}",
                        cur.acquires,
                        prev.acquires
                    );
                    snapshots_taken.fetch_add(1, Ordering::Relaxed);
                    prev = cur;
                }
            });
        }
        for id in 0..threads {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                for i in 0..rounds {
                    // 16 hot keys shared by all writers force real
                    // contention (spins, parks, CAS retries).
                    let key = parking::futex::mix64(i.wrapping_mul(id + 1) % 16);
                    let g = svc.lock(key);
                    std::hint::black_box(&g);
                }
                // A private tail so the fast path is represented too.
                for i in 0..rounds {
                    let _g = svc.lock(parking::futex::mix64(0x1000 + id * rounds + i));
                }
            });
        }
        // Writers all joined when the scope's non-reader threads finish;
        // we can't observe that from inside, so writers signal by count:
        // the last spawned thread group joining is what `scope` waits
        // for — readers need an explicit stop, set after writers are
        // done via a monitor thread.
        let svc2 = Arc::clone(&svc);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let total = threads * rounds * 2;
            while svc2.metrics_snapshot().acquires < total {
                std::thread::yield_now();
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });

    assert!(
        snapshots_taken.load(Ordering::Relaxed) > 0,
        "readers never snapshotted"
    );

    // One guaranteed-contended acquisition: a single host core can
    // serialize the hammer phase into pure fast-path wins, but a waiter
    // blocked behind a held guard *must* park, sample its wait, and note
    // the hot key.
    let parks_before = svc.futex_totals().parks;
    let key = parking::futex::mix64(0xBEEF);
    let guard = svc.lock(key);
    let victim = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            let _g = svc.lock(key);
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.futex_totals().parks == parks_before {
        assert!(Instant::now() < deadline, "contended victim never parked");
        std::thread::yield_now();
    }
    drop(guard);
    victim.join().unwrap();

    let snap = svc.metrics_snapshot();
    let total = threads * rounds * 2 + 2;
    assert_eq!(snap.acquires, total, "telemetry lost acquisitions");
    assert!(snap.fast_path + snap.parked <= snap.acquires);
    assert!(snap.wait_samples() > 0, "sampled mode never sampled");
    assert!(!snap.hot_keys.is_empty(), "hot-key sketch stayed empty");

    let futex = snap.futex.expect("service snapshot carries its lot totals");
    assert!(
        futex.balanced(),
        "lot ledger unbalanced at quiesce: parks {} wakes {} resumes {}",
        futex.parks,
        futex.wakes,
        futex.resumes
    );
}

/// The exporters must round-trip a snapshot of a real contended run
/// through their own validators, and both must carry the table and lot
/// sections a service-level snapshot includes.
#[test]
fn exporters_validate_after_a_real_run() {
    let svc = Arc::new(service::LockService::with_metrics_mode(
        32,
        service::MetricsMode::Sampled(8),
    ));
    std::thread::scope(|s| {
        for id in 0..4u64 {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                for i in 0..2_000u64 {
                    let _g = svc.lock(parking::futex::mix64(i.wrapping_mul(id + 1) % 8));
                }
            });
        }
    });
    let snap = svc.metrics_snapshot();
    assert!(snap.table.is_some() && snap.futex.is_some());

    let prom = service::telemetry::prometheus(&snap);
    let pstats = service::telemetry::validate_prometheus(&prom)
        .unwrap_or_else(|e| panic!("prometheus export invalid: {e}\n{prom}"));
    assert!(pstats.families >= 10, "families missing: {}", pstats.families);
    assert!(prom.contains("syncmech_service_acquires_total 8000"));
    assert!(prom.contains("syncmech_service_table{stat=\"live\"} 0"));

    let json = service::telemetry::json(&snap);
    let jstats = service::telemetry::validate_json(&json)
        .unwrap_or_else(|e| panic!("json export invalid: {e}\n{json}"));
    assert!(jstats.fields >= 17, "fields missing: {}", jstats.fields);
    assert!(json.contains("\"acquires\": 8000"));
}

/// A service built on a tracer of its own records exactly what its lot's
/// ledger counts: after a contended real-thread load, the tracer's
/// park/wake/resume totals are `futex_totals()`, that ledger balances, the
/// table drains, and the tracer's Chrome export validates.
#[test]
fn a_traced_service_records_its_ledger_and_exports_a_valid_trace() {
    // Eight rings cover every thread that records here at once (the four
    // workers, then this thread and one waiter), so no event goes
    // unleased.
    let tracer = Arc::new(Tracer::new(8, 4096));
    let svc = LockService::with_tracer(64, MetricsMode::Sampled(64), Arc::clone(&tracer));
    zipf_load(&svc, 4, 2_000);

    // One guaranteed park: on a small host the load may serialize into
    // fast-path wins, but a waiter behind a held guard parks.
    let key = mix64(0xBEEF);
    let guard = svc.lock(key);
    let parks_before = svc.futex_totals().parks;
    std::thread::scope(|s| {
        s.spawn(|| drop(svc.lock(key)));
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.futex_totals().parks == parks_before && Instant::now() < deadline {
            std::thread::yield_now();
        }
        drop(guard);
    });
    assert!(
        svc.futex_totals().parks > parks_before,
        "contended waiter never parked"
    );

    let lot = svc.futex_totals();
    let traced = FutexTotals {
        parks: tracer.class_total(EventClass::FutexPark),
        wakes: tracer.class_total(EventClass::FutexWake),
        resumes: tracer.class_total(EventClass::FutexResume),
    };
    assert_eq!(tracer.unleased(), 0, "a thread found every ring leased");
    assert_eq!(traced, lot, "the tracer's totals are not the lot's ledger");
    assert!(lot.balanced(), "lot ledger unbalanced: {lot:?}");
    assert_eq!(svc.stats().live, 0, "keys left attached after drain");

    let json = trace::chrome::export_tracer(&tracer, "traced service");
    let stats = trace::chrome::validate(&json)
        .unwrap_or_else(|e| panic!("trace export invalid: {e}\n{json}"));
    assert!(stats.spans > 0, "no park span exported");
}

/// A waiter deliberately parked past the threshold must trip the
/// watchdog exactly once, and the report must carry the stall roster and
/// the flight-recorder tail ending in the victim's park. One victim waits
/// for a held mutex and parks untagged; the other waits for a semaphore
/// permit and parks in the same lot under its ticket, 0.
#[test]
fn watchdog_fires_once_on_a_genuine_stall() {
    for (victim, tag) in [("mutex", " tag=- "), ("semaphore", " tag=0 ")] {
        let svc = service::LockService::with_metrics_mode(8, service::MetricsMode::Counters);
        let key = parking::futex::mix64(0xDEAD);
        let guard = svc.lock(key);
        let sem = svc.semaphore(0, 2);
        let released = AtomicBool::new(false);
        let threshold = Duration::from_millis(10);
        let dog = service::StallWatchdog::new(threshold);

        // The watchdog is read while the victim is stalled and judged once
        // it is released, so a failed check cannot leave it parked.
        let (fired, report, early) = std::thread::scope(|s| {
            s.spawn(|| {
                // Parks until the main thread drops the guard or releases
                // a permit; this is the deliberate stall.
                if victim == "mutex" {
                    drop(svc.lock(key));
                } else {
                    sem.acquire();
                }
                released.store(true, Ordering::Relaxed);
            });

            // Wait until the victim is really parked in the service's lot
            // (not merely spawned), then let it age past the threshold.
            let deadline = Instant::now() + Duration::from_secs(10);
            while svc.futex_totals().parks == 0 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            std::thread::sleep(threshold * 4);
            let fired = [dog.fired(), dog.check(&svc), dog.fired(), dog.check(&svc)];
            let report = dog.report(&svc, threshold * 4);
            let early = released.load(Ordering::Relaxed);
            drop(guard);
            sem.release();
            (fired, report, early)
        });

        assert!(svc.futex_totals().parks > 0, "{victim} victim never parked");
        assert!(!early, "{victim} victim resumed early");
        assert_eq!(
            fired,
            [false, true, true, false],
            "the {victim} stall must trip the watchdog, and exactly once"
        );
        assert!(report.contains("stall"), "no stall line:\n{report}");
        assert!(report.contains("parked: addr="), "no roster:\n{report}");
        assert!(
            report.contains(tag),
            "the {victim} waiter's roster line lacks{tag}:\n{report}"
        );
        assert!(report.contains("futex"), "no lot ledger:\n{report}");
        // The tail is the lot's newest events, and the newest is the
        // victim's park, on the word the roster names.
        let addr = report
            .lines()
            .find_map(|l| l.trim().strip_prefix("parked: addr="))
            .and_then(|rest| rest.split(' ').next())
            .expect("roster line carries the address");
        let park = format!("futex-park addr={addr}");
        let newest = report.lines().rfind(|l| l.contains("recent["));
        assert!(
            newest.is_some_and(|l| l.ends_with(&park)),
            "the tail does not end with the victim's park ({park}):\n{report}"
        );

        assert!(
            released.load(Ordering::Relaxed),
            "{victim} victim never resumed"
        );
        assert_eq!(svc.stats().live, 0);
    }
}

/// A workload that parks constantly but keeps making progress must never
/// trip a watchdog whose threshold exceeds any single wait: parked age
/// resets on every grant, so only a *stuck* waiter can age past it.
#[test]
fn watchdog_stays_silent_on_a_slow_but_live_workload() {
    let svc = Arc::new(service::LockService::with_metrics_mode(
        8,
        service::MetricsMode::Counters,
    ));
    let dog = service::StallWatchdog::new(Duration::from_secs(30));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let svc = Arc::clone(&svc);
            s.spawn(move || {
                for _ in 0..3_000 {
                    // One hot key: every acquisition queues, parks, and
                    // is handed on — slow, but always live.
                    let g = svc.lock(parking::futex::mix64(7));
                    std::hint::black_box(&g);
                }
            });
        }
        for _ in 0..50 {
            assert!(!dog.check(&svc), "watchdog false-positived on live load");
            std::thread::yield_now();
        }
    });
    assert!(!dog.fired());
    let snap = svc.metrics_snapshot();
    assert_eq!(snap.acquires, 12_000);
}

/// `counters` telemetry against `off` on the same real-thread Zipf load:
/// best of three runs per mode, interleaved with `off` first each round so
/// neither owns the warm caches. The budget is what a shared CI runner can
/// hold: it catches an always-on histogram or a shared counter line, not a
/// few percent. Wall-clock, hence ignored by default; CI runs it with
/// `--ignored`.
#[test]
#[ignore = "wall-clock timing; run with --ignored"]
fn counters_telemetry_costs_at_most_its_budget_over_off() {
    const BUDGET_PCT: f64 = 20.0;
    let (mut off, mut counters) = (Duration::MAX, Duration::MAX);
    for _ in 0..3 {
        for (mode, best) in [
            (MetricsMode::Off, &mut off),
            (MetricsMode::Counters, &mut counters),
        ] {
            let svc = LockService::with_metrics_mode(service::DEFAULT_SHARDS, mode);
            *best = (*best).min(zipf_load(&svc, 4, 20_000));
        }
    }
    let pct = (counters.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
    println!("off {off:.1?}, counters {counters:.1?}: {pct:+.2}% (budget {BUDGET_PCT}%)");
    assert!(
        pct <= BUDGET_PCT,
        "counters telemetry costs {pct:.2}% over off, past the {BUDGET_PCT}% budget"
    );
}
