//! CI smoke driver for the sharded lock service: runs the *real-thread*
//! load generator (`workloads::service_load::run_real`) against a live
//! `service::LockService`, prints a wall-clock summary, and verifies the
//! teardown invariants (no keys left attached, the service lot's futex
//! ledger balanced).
//!
//! With `--metrics-out PATH` it also harvests the service's telemetry
//! snapshot periodically while the load runs (asserting every harvest is
//! monotone over the previous one), then writes the final snapshot as
//! Prometheus text to `PATH` and as JSON to `PATH.json`, validating both
//! through the exporters' own checkers (the JSON one parses the snapshot
//! first) before reporting OK.
//!
//! With `--trace-out PATH` the service's lot records into a tracer of the
//! run's own, and the run fails unless that tracer's park/wake/resume
//! totals equal the lot's ledger; the export is validated
//! (`trace::chrome::validate`) before it is written.
//!
//! With `--overhead-check` it instead times the identical workload with
//! telemetry `off` and with `counters` and fails if the counters run
//! costs more than the budget (default 3%) in throughput — the
//! wall-clock half of the table7 claim.
//!
//! This binary is intentionally **not** in the figure registry: its
//! numbers are host wall-clock. The deterministic counterparts are
//! `fig11_service_throughput`, `table6_service_tail`, and
//! `table7_metrics_overhead`.

use parking::futex::FutexTotals;
use service::{LockService, MetricsMode, ServiceThreads};
use simcore::knob;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use trace::{EventClass, Tracer};
use workloads::service_load::{run_real, RealServiceConfig};

const USAGE: &str = "\
usage: service_load [--quick] [--trace-out PATH] [--metrics-out PATH]
                    [--overhead-check] [--overhead-budget PCT] [--help]

  --quick            reduced request count (CI smoke)
  --trace-out PATH   record the run's park/wake events and write a Chrome
                     trace-event JSON to PATH
  --metrics-out PATH harvest telemetry during the run, then write the
                     final snapshot as Prometheus text to PATH and JSON
                     to PATH.json (both validated before reporting OK)
  --overhead-check   time the workload with metrics off vs counters and
                     fail if counters costs more than the budget
  --overhead-budget PCT  allowed counters overhead percent (default: 3)
  --help             show this help

environment (a malformed value is an error):
  SYNCMECH_SERVICE_THREADS=N  worker threads (default: host parallelism;
                              clamped to 8x that, with a warning)
  SYNCMECH_SERVICE_METRICS=off|counters|sampled:<N>  telemetry mode
                              (default: counters)";

/// The environment knobs this binary offers, read once at start-up.
struct Knobs {
    threads: usize,
    metrics: MetricsMode,
}

impl Knobs {
    fn read() -> Result<Knobs, String> {
        let host = simcore::host_parallelism();
        let threads = ServiceThreads::resolve(knob::SERVICE_THREADS.read(knob::positive)?, host);
        if let Some(requested) = threads.clamped_from {
            eprintln!(
                "warning: {}={requested} exceeds {}x the host parallelism of {host}; \
                 clamped to {} workers",
                knob::SERVICE_THREADS.name,
                service::MAX_THREAD_OVERSUB,
                threads.threads
            );
        }
        Ok(Knobs {
            threads: threads.threads,
            metrics: knob::SERVICE_METRICS
                .read(MetricsMode::parse)?
                .unwrap_or_default(),
        })
    }
}

/// Times one `run_real` of `cfg` on a fresh service at the given
/// telemetry mode and returns (elapsed ns, completed requests).
fn timed_run(cfg: &RealServiceConfig, mode: MetricsMode) -> (u64, u64) {
    let svc = LockService::with_metrics_mode(service::DEFAULT_SHARDS, mode);
    let r = run_real(&svc, cfg);
    (r.elapsed_ns, r.completed)
}

/// The `--overhead-check` path: best-of-three runs per mode
/// (interleaved, off first each round so neither mode owns the warm
/// caches; best-of damps scheduler noise), then the relative slowdown of
/// `counters` over `off` against the budget.
fn overhead_check(cfg: &RealServiceConfig, budget_pct: f64) -> ExitCode {
    let mut off_ns = u64::MAX;
    let mut on_ns = u64::MAX;
    for _ in 0..3 {
        off_ns = off_ns.min(timed_run(cfg, MetricsMode::Off).0);
        on_ns = on_ns.min(timed_run(cfg, MetricsMode::Counters).0);
    }
    let pct = (on_ns as f64 / off_ns.max(1) as f64 - 1.0) * 100.0;
    println!(
        "overhead check: off {:.1} ms, counters {:.1} ms, {pct:+.2}% (budget {budget_pct}%)",
        off_ns as f64 / 1e6,
        on_ns as f64 / 1e6
    );
    if pct > budget_pct {
        eprintln!("FAIL: counters telemetry exceeds the {budget_pct}% overhead budget");
        return ExitCode::FAILURE;
    }
    println!("  OK: counters overhead within budget");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut check_overhead = false;
    let mut budget_pct = 3.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--trace-out" => match args.next() {
                Some(path) => trace_out = Some(path),
                None => {
                    eprintln!("--trace-out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => {
                    eprintln!("--metrics-out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--overhead-check" => check_overhead = true,
            "--overhead-budget" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => budget_pct = pct,
                _ => {
                    eprintln!("--overhead-budget needs a positive percent\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let knobs = match Knobs::read() {
        Ok(knobs) => knobs,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let threads = knobs.threads;
    let requests_per_thread = if quick { 2_000 } else { 20_000 };
    let cfg = RealServiceConfig::smoke(threads, requests_per_thread);

    if check_overhead {
        return overhead_check(&cfg, budget_pct);
    }

    let tracer = trace_out
        .is_some()
        .then(|| Tracer::shared(trace::THREAD_SLOTS));
    let shards = service::DEFAULT_SHARDS;
    let svc = match &tracer {
        Some(tracer) => LockService::with_tracer(shards, knobs.metrics, Arc::clone(tracer)),
        None => LockService::with_metrics_mode(shards, knobs.metrics),
    };

    // Run the load; when harvesting, a sidecar thread snapshots the live
    // metrics every few milliseconds and asserts each snapshot is
    // monotone over the previous — the lock-free aggregation must never
    // show a counter going backwards mid-flight.
    let stop = AtomicBool::new(false);
    let mut harvests = 0u64;
    let r = std::thread::scope(|s| {
        let harvester = metrics_out.as_ref().map(|_| {
            let (svc, stop) = (&svc, &stop);
            s.spawn(move || {
                let mut prev = svc.metrics_snapshot();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    let cur = svc.metrics_snapshot();
                    assert!(cur.monotone_since(&prev), "harvested counters went backwards");
                    prev = cur;
                    n += 1;
                }
                n
            })
        });
        let r = run_real(&svc, &cfg);
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = harvester {
            harvests = h.join().expect("harvester never panics");
        }
        r
    });

    let ms = r.elapsed_ns as f64 / 1e6;
    println!("service_load: real-thread smoke (wall-clock; not a figure)");
    println!(
        "  workers {threads}, requests {} ({} keys, Zipf {}), elapsed {ms:.1} ms, {:.0} ops/ms",
        r.completed,
        cfg.keys,
        cfg.zipf_s,
        r.completed as f64 / ms
    );
    println!(
        "  wait ns p50 {} p99 {} p999 {} max {}",
        r.wait_ns.quantile(0.5),
        r.wait_ns.quantile(0.99),
        r.wait_ns.quantile(0.999),
        r.wait_ns.max()
    );
    println!(
        "  table: shards {}, live {}, peak live {}, capacity {}, reuses {}",
        r.stats.shards, r.stats.live, r.stats.peak_live, r.stats.capacity, r.stats.reuses
    );
    println!(
        "  futex: parks {} wakes {} resumes {}",
        r.futex.parks, r.futex.wakes, r.futex.resumes
    );

    if let Some(path) = &metrics_out {
        let snap = svc.metrics_snapshot();
        let prom = service::telemetry::prometheus(&snap);
        let pstats = match service::telemetry::validate_prometheus(&prom) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL: prometheus export invalid: {e}");
                return ExitCode::FAILURE;
            }
        };
        let json = service::telemetry::json(&snap);
        let jstats = match service::telemetry::validate_json(&json) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("FAIL: json export invalid: {e}");
                return ExitCode::FAILURE;
            }
        };
        let json_path = format!("{path}.json");
        if let Err(e) = std::fs::write(path, &prom).and_then(|()| std::fs::write(&json_path, &json))
        {
            eprintln!("writing metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "  metrics OK: mode {}, {} harvests monotone, {} families / {} samples -> {path}, {} json fields -> {json_path}",
            snap.mode.label(),
            harvests,
            pstats.families,
            pstats.samples,
            jstats.fields
        );
    }

    if let (Some(tracer), Some(out)) = (&tracer, &trace_out) {
        if let Err(e) = check_trace(tracer, svc.futex_totals(), out) {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
    }

    if r.stats.live != 0 {
        eprintln!("FAIL: {} keys still attached after drain", r.stats.live);
        return ExitCode::FAILURE;
    }
    if !r.futex.balanced() {
        eprintln!(
            "FAIL: futex accounting unbalanced at teardown: parks {} wakes {} resumes {}",
            r.futex.parks, r.futex.wakes, r.futex.resumes
        );
        return ExitCode::FAILURE;
    }
    println!("  OK: table drained, parks == wakes == resumes");
    ExitCode::SUCCESS
}

/// Holds the run's tracer to the lot it recorded: its park/wake/resume
/// totals must be the lot's ledger, and its export must validate before
/// it is written to `out`.
fn check_trace(tracer: &Tracer, lot: FutexTotals, out: &str) -> Result<(), String> {
    let traced = FutexTotals {
        parks: tracer.class_total(EventClass::FutexPark),
        wakes: tracer.class_total(EventClass::FutexWake),
        resumes: tracer.class_total(EventClass::FutexResume),
    };
    if traced != lot {
        return Err(format!(
            "trace totals {traced:?} are not the lot's {lot:?} \
             ({} events of threads past the tracer's rings went unrecorded)",
            tracer.unleased()
        ));
    }
    let json = trace::chrome::export_tracer(tracer, "syncmech service_load smoke");
    let stats = trace::chrome::validate(&json).map_err(|e| format!("trace export: {e}"))?;
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "  trace OK: parks {} wakes {} resumes {} == lot ledger, {} spans -> {out}",
        traced.parks, traced.wakes, traced.resumes, stats.spans
    );
    Ok(())
}
