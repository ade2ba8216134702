//! One run of one workload in this process: the untraced run that yields
//! the end-to-end metrics, or the traced run that yields the per-layer ones.

use crate::json::Value;
use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER};
use crate::workload::{Rep, Workload};
use crate::{host, probes, spans, stats};
use std::path::Path;
use std::time::{Duration, Instant};

/// The arguments of a single run — the protocol the driver speaks.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One repetition and one set-up instead of five: the CI smoke.
    pub quick: bool,
}

/// The result of a single run, printed as the last line of stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            (
                "metrics".into(),
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let entry = vec![
                                ("value".to_string(), Value::Num(*value)),
                                ("unit".to_string(), Value::Str(unit.clone())),
                            ];
                            (name.clone(), Value::Obj(entry))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Outcome, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result lacks {k:?}"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("result lacks \"metrics\"")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                let unit = m.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric {name:?} lacks a value or a unit")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Outcome {
            correct: v
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("result lacks \"correct\"")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// Tallies operations and violations across set-ups, warm-ups and
/// repetitions; every one of them runs the workload's checks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, rep: &Rep) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
        self.notes.extend(rep.notes.iter().cloned());
    }

    /// A teardown violation cannot be pinned on single operations, so it
    /// fails them all.
    fn teardown(&mut self, violations: Vec<String>) {
        if !violations.is_empty() {
            self.failed = self.attempted.max(1);
            self.notes.extend(violations);
        }
    }

    fn outcome(self, table: &[MetricSpec], values: &[(&str, f64)]) -> Outcome {
        for note in &self.notes {
            eprintln!("VIOLATION: {note}");
        }
        for (name, _) in values {
            assert!(
                table.iter().any(|spec| spec.name == *name),
                "{name} is not a metric of this table"
            );
        }
        let metrics = table
            .iter()
            .map(|spec| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == spec.name)
                    .map_or(0.0, |(_, v)| *v);
                (spec.name.to_string(), value, spec.unit.to_string())
            })
            .collect();
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// Builds the workload and runs the warm-up repetition: one set-up.
fn set_up(args: &RunArgs, tally: &mut Tally) -> Result<Box<dyn Workload>, String> {
    let mut w = crate::build(&args.workload, args.seed, host::client_threads())
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    tally.absorb(&w.rep(Duration::from_millis(spec::WARMUP_MS), false));
    Ok(w)
}

/// Quantile of sorted integer-nanosecond samples, interpolated inside the
/// 1 ns cell the clock rounds to: a tied value `v` is taken as spread
/// evenly over `[v - 0.5, v + 0.5)`. Without this a median of a few dozen
/// nanoseconds would read exactly the same on run after run.
fn quantile_ns(sorted: &[u32], q: f64) -> f64 {
    let Some(v) = stats::quantile_sorted(sorted, q) else {
        return 0.0;
    };
    let below = sorted.partition_point(|&x| x < v);
    let equal = sorted.partition_point(|&x| x <= v) - below;
    let into = (q * sorted.len() as f64 - below as f64) / equal as f64;
    f64::from(v) - 0.5 + into.clamp(0.0, 1.0)
}

/// Mean of sorted samples without the slowest 0.1 %, so that one
/// preemption of a millisecond cannot carry the mean of a repetition.
fn trimmed_mean_ns(sorted: &[u32]) -> f64 {
    let keep = sorted.len() - sorted.len() / 1000;
    if keep == 0 {
        return 0.0;
    }
    sorted[..keep].iter().map(|&x| f64::from(x)).sum::<f64>() / keep as f64
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The untraced run: set up several times, repeat the timed region, and
/// report each end-to-end metric as the median over repetitions.
pub fn end_to_end(args: &RunArgs, process_start: Instant) -> Result<Outcome, String> {
    let (trials, reps) = if args.quick {
        (1, 1)
    } else {
        (spec::SETUP_TRIALS, spec::REPS)
    };
    if spec::WORKLOADS
        .iter()
        .any(|w| w.name == args.workload && w.one_cpu)
    {
        match host::pin_to_one_cpu() {
            Ok(cpu) => eprintln!("{}: confined to cpu {cpu}", args.workload),
            Err(e) => eprintln!(
                "{}: could not confine to one cpu ({e}); running unconfined",
                args.workload
            ),
        }
    }
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(trials);
    let mut current: Option<Box<dyn Workload>> = None;
    for trial in 0..trials {
        if let Some(previous) = current.take() {
            tally.teardown(previous.finish());
        }
        // The first set-up is timed from process start, as a user pays it.
        let t0 = if trial == 0 {
            process_start
        } else {
            Instant::now()
        };
        current = Some(set_up(args, &mut tally)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = current.expect("at least one set-up");

    let dur = Duration::from_secs_f64(args.seconds / reps as f64);
    if !args.quick {
        // The host needs about a second of all threads running before it
        // spreads the virtual CPUs over cores; until then every rate reads
        // up to twofold low. Run, check, and discard that second.
        tally.absorb(&workload.rep(Duration::from_millis(spec::SETTLE_MS), false));
    }
    let done: Vec<Rep> = (0..reps).map(|_| workload.rep(dur, false)).collect();
    for rep in &done {
        tally.absorb(rep);
    }
    tally.teardown(workload.finish());

    let samples = done.iter().map(|r| r.waits.len()).min().unwrap_or(0);
    // Quantiles are diagnostics here (the traced run reports them as
    // per-layer metrics): on the reference host they do not repeat well
    // enough between runs to carry a regression bound.
    eprintln!(
        "{}: {} repetition(s) of {:.2} s, {} thread(s); wait p50 {:.1} ns, p99 {:.1} ns over {} samples per repetition ({} beyond p99)",
        args.workload,
        reps,
        dur.as_secs_f64(),
        host::client_threads(),
        median_of(&done, |r| quantile_ns(&r.waits, 0.50)),
        median_of(&done, |r| quantile_ns(&r.waits, 0.99)),
        samples,
        stats::samples_beyond(samples, 0.99)
    );
    let values = [
        ("ops_per_s", median_of(&done, Rep::ops_per_s)),
        (
            "wait_mean_ns",
            median_of(&done, |r| trimmed_mean_ns(&r.waits)),
        ),
        (
            "cpu_ns_per_op",
            median_of(&done, |r| r.cpu_ns as f64 / r.ops.max(1) as f64),
        ),
        ("peak_rss_mb", host::peak_rss_mib()),
        ("setup_s", stats::median(&setups)),
    ];
    Ok(tally.outcome(&END_TO_END, &values))
}

/// Where run artefacts go: `benchmark/out/` under the current directory,
/// which `run.sh` makes the repo root.
pub const OUT_DIR: &str = "benchmark/out";

/// The traced run: alternate untraced and traced repetitions of the
/// workload, write the spans as a Chrome trace, run the isolated layer
/// probes, and report every per-layer metric.
pub fn per_layer(args: &RunArgs) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut workload = set_up(args, &mut tally)?;
    // About half the run's seconds go to the workload (one to settle the
    // host, as in the untraced run), the rest to the probes.
    let pairs = if args.quick { 1 } else { 4 };
    let dur = Duration::from_secs_f64(args.seconds / 20.0);
    if !args.quick {
        tally.absorb(&workload.rep(Duration::from_millis(spec::SETTLE_MS), false));
    }
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        plain.push(workload.rep(dur, false));
        traced.push(workload.rep(dur, true));
    }
    for rep in plain.iter().chain(&traced) {
        tally.absorb(rep);
    }
    let children = workload.children();
    tally.teardown(workload.finish());

    let last = traced.last().expect("at least one traced repetition");
    let json = spans::chrome_json(&args.workload, children, &last.tracks);
    match trace::chrome::validate(&json) {
        Ok(stats) => eprintln!(
            "{}: trace has {} spans on {} track(s)",
            args.workload, stats.spans, stats.tracks
        ),
        Err(e) => tally.teardown(vec![format!("chrome trace does not validate: {e}")]),
    }
    let path = Path::new(OUT_DIR).join(format!("trace_{}.json", args.workload));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mut values: Vec<(&str, f64)> = Vec::new();
    // Boundary counts: the median over the traced repetitions.
    for (name, _) in &last.layers {
        let per_rep: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        values.push((name, stats::median(&per_rep)));
    }
    let (self_ns, op_ns) = traced
        .iter()
        .flat_map(|r| &r.tracks)
        .fold((0u64, 0u64), |(s, o), t| (s + t.self_ns, o + t.op_ns));
    values.extend([
        (
            "lock.release_p50_ns",
            median_of(&traced, |r| quantile_ns(&r.releases, 0.50)),
        ),
        (
            "lock.release_p99_ns",
            median_of(&traced, |r| quantile_ns(&r.releases, 0.99)),
        ),
        // The untraced repetitions give the undistorted quantiles; the
        // traced ones time every operation and so see further into the tail.
        (
            "lock.wait_p50_ns",
            median_of(&plain, |r| quantile_ns(&r.waits, 0.50)),
        ),
        (
            "lock.wait_p99_ns",
            median_of(&plain, |r| quantile_ns(&r.waits, 0.99)),
        ),
        (
            "lock.wait_p999_ns",
            median_of(&traced, |r| quantile_ns(&r.waits, 0.999)),
        ),
        (
            "lock.wait_max_ns",
            median_of(&traced, |r| f64::from(r.waits.last().copied().unwrap_or(0))),
        ),
        ("driver.self_share", self_ns as f64 / op_ns.max(1) as f64),
        (
            "trace_overhead_share",
            1.0 - median_of(&traced, Rep::ops_per_s) / median_of(&plain, Rep::ops_per_s),
        ),
    ]);
    values.extend(probes::run_all(
        args.seed,
        (args.seconds / 10.0).clamp(0.02, 1.0),
    ));
    Ok(tally.outcome(&PER_LAYER, &values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_stays_within_half_a_nanosecond_of_nearest_rank() {
        let mut rng = simcore::Rng::new(3);
        let mut data: Vec<u32> = (0..5000).map(|_| 60 + rng.next_below(12) as u32).collect();
        data.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
            let exact = f64::from(stats::quantile_sorted(&data, q).unwrap());
            let smooth = quantile_ns(&data, q);
            assert!((smooth - exact).abs() <= 0.5, "q={q}: {smooth} vs {exact}");
        }
        assert_eq!(quantile_ns(&[], 0.5), 0.0);
        // A constant sample still yields a value inside its 1 ns cell.
        assert!((quantile_ns(&[70; 100], 0.5) - 70.0).abs() <= 0.5);
    }

    #[test]
    fn trimmed_mean_drops_only_the_slowest_thousandth() {
        let mut data = vec![100u32; 1999];
        data.push(3_000_000);
        assert_eq!(trimmed_mean_ns(&data), 100.0);
        assert_eq!(trimmed_mean_ns(&[10, 20, 30]), 20.0);
        assert_eq!(trimmed_mean_ns(&[]), 0.0);
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("ops_per_s".into(), 9_123_456.789, "1/s".into()),
                ("setup_s".into(), 0.0812, "s".into()),
            ],
        };
        let line = outcome.to_json().render();
        assert!(!line.contains('\n'));
        let back = Outcome::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, outcome);
    }
}
