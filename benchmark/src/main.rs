//! The repo benchmark: real-thread lock-service workloads and a simulator
//! sweep, measured end to end and layer by layer. See `benchmark/README.md`.
//!
//! Invoked through `benchmark/run.sh`, which builds this crate and runs it
//! from the repo root. Three ways in:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload in this process; the last line of stdout is the result.
//! - no `--seconds` — a set: every workload (or the one named), each run in
//!   a child process of its own speaking the protocol above, results
//!   printed and written to `benchmark/out/results.json`.
//! - `compare A.json B.json`, `--selfcheck` — judging one set by another.

mod async_mix;
mod compare;
mod coord;
mod host;
mod json;
mod keys;
mod layers;
mod mutex;
mod probes;
mod run;
mod sim;
mod spans;
mod spec;
mod stats;
mod workload;

use json::Value;
use run::{Outcome, RunArgs};
use spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::Workload;

/// Builds a workload by name: this *is* its set-up.
pub fn build(name: &str, seed: u64, threads: usize) -> Option<Box<dyn Workload>> {
    if let Some(spec) = spec::mutex_spec(name) {
        return Some(Box::new(mutex::MutexWorkload::new(spec, seed, threads)));
    }
    match name {
        "coord_mix" => Some(Box::new(coord::CoordMix::new(seed, threads))),
        "async_mix" => Some(Box::new(async_mix::AsyncMix::new(seed))),
        "sim_sweep" => Some(Box::new(sim::SimSweep::new(seed))),
        _ => None,
    }
}

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--runs N] [--quick] [--trace]
       benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1     (one run; the driver's protocol)
       benchmark/run.sh --selfcheck [--seed N] [--runs N]
       benchmark/run.sh compare A.json B.json
       benchmark/run.sh --bless-sim";

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: Option<usize>,
    selfcheck: bool,
    bless_sim: bool,
    compare: Option<(String, String)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        ..Cli::default()
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "compare" => {
                let a = value(&mut i, "compare")?;
                let b = value(&mut i, "compare")?;
                cli.compare = Some((a, b));
            }
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                let raw = value(&mut i, "--seed")?;
                cli.seed = raw
                    .parse()
                    .map_err(|_| format!("--seed {raw:?} is not a whole number"))?;
            }
            "--seconds" => {
                let raw = value(&mut i, "--seconds")?;
                let s: f64 = raw
                    .parse()
                    .map_err(|_| format!("--seconds {raw:?} is not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {raw} is out of range"));
                }
                cli.seconds = Some(s);
            }
            "--runs" => {
                let raw = value(&mut i, "--runs")?;
                let n: usize = raw
                    .parse()
                    .map_err(|_| format!("--runs {raw:?} is not a whole number"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--runs {raw} is out of range"));
                }
                cli.runs = Some(n);
            }
            // `--trace` alone asks for the traced set; the driver passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            "--bless-sim" => cli.bless_sim = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|spec| spec.name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload {w:?}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(cli)
}

/// The lines a person reads for one run: every metric by name with its
/// unit, then the failure count.
fn outcome_lines(workload: &str, outcome: &Outcome) -> Vec<String> {
    let mut lines: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("{workload:<15} {name:<38} {value:>18.4} {unit}"))
        .collect();
    lines.push(format!(
        "{workload:<15} {:<38} {:>18} of {} attempted{}",
        "failed",
        outcome.failed,
        outcome.attempted,
        if outcome.correct {
            ""
        } else {
            "   <-- INCORRECT"
        }
    ));
    lines
}

/// One run in a child process, so that peak memory, the process-global
/// parking lot and the simulator's thread pool start fresh for each.
fn child(args: &RunArgs) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run of {} ended with {}",
            args.workload, out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or("the child run printed nothing")?;
    Outcome::from_json(&json::parse(last)?)
}

/// A set: `runs` runs of each selected workload, interleaved round-robin
/// so that drift of the host hits every workload alike.
fn run_set(cli: &Cli, seed: u64, runs: usize, out_name: &str) -> Result<(bool, String), String> {
    let seconds = if cli.quick {
        spec::QUICK_SECONDS
    } else {
        spec::RUN_SECONDS
    };
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| cli.workload.as_deref().is_none_or(|w| w == *name))
        .collect();
    let host_line = host::describe();
    println!("host: {host_line}");
    println!(
        "set: seed={seed} runs={runs} seconds={seconds} threads={} reps={} trace={}",
        host::client_threads(),
        if cli.quick { 1 } else { spec::REPS },
        cli.trace
    );
    for w in WORKLOADS.iter().filter(|w| selected.contains(&w.name)) {
        println!("workload {}: {}", w.name, w.why);
    }
    let mut all_correct = true;
    let mut records = Vec::new();
    for r in 0..runs {
        for &workload in &selected {
            let args = RunArgs {
                workload: workload.to_string(),
                seed: seed + r as u64,
                seconds,
                trace: cli.trace,
                quick: cli.quick,
            };
            let t0 = Instant::now();
            let outcome = child(&args)?;
            println!(
                "-- {workload} run {} of {runs} (seed {}, {:.1} s)",
                r + 1,
                args.seed,
                t0.elapsed().as_secs_f64()
            );
            for line in outcome_lines(workload, &outcome) {
                println!("{line}");
            }
            all_correct &= outcome.correct;
            records.push(Value::Obj(vec![
                ("workload".into(), Value::Str(workload.to_string())),
                ("seed".into(), Value::Num(args.seed as f64)),
                ("trace".into(), Value::Bool(cli.trace)),
                ("result".into(), outcome.to_json()),
            ]));
        }
    }
    let doc = Value::Obj(vec![
        ("host".into(), Value::Str(host_line)),
        ("seed".into(), Value::Num(seed as f64)),
        ("threads".into(), Value::Num(host::client_threads() as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("runs".into(), Value::Arr(records)),
    ]);
    let path = std::path::Path::new(run::OUT_DIR).join(out_name);
    // One run per line keeps the file diffable.
    let text = doc.render().replace("{\"workload\"", "\n{\"workload\"") + "\n";
    std::fs::create_dir_all(run::OUT_DIR)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok((all_correct, path.display().to_string()))
}

fn real_main(process_start: Instant) -> Result<bool, String> {
    // Results must not depend on knobs left in the caller's environment;
    // every service and machine here is configured explicitly.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SYNCMECH_"))
        .collect();
    for knob in knobs {
        std::env::remove_var(knob);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args)?;

    if let Some((a, b)) = &cli.compare {
        let bounds = compare::load_bounds("BENCHMARK.json")?;
        let verdicts = compare::report(&compare::load(a)?, &compare::load(b)?, &bounds);
        return Ok(!verdicts.contains(&compare::Verdict::Regressed));
    }
    if cli.bless_sim {
        return sim::bless().map(|()| true);
    }
    if cli.selfcheck {
        let runs = cli.runs.unwrap_or(5);
        let (ok_a, path_a) = run_set(&cli, cli.seed, runs, "selfcheck_a.json")?;
        let (ok_b, path_b) = run_set(&cli, cli.seed + runs as u64, runs, "selfcheck_b.json")?;
        let bounds = compare::load_bounds("BENCHMARK.json")?;
        let verdicts = compare::report(&compare::load(&path_a)?, &compare::load(&path_b)?, &bounds);
        let steady = verdicts.iter().all(|v| *v == compare::Verdict::Unchanged);
        println!(
            "selfcheck: {}",
            if steady {
                "every row unchanged"
            } else {
                "NOT steady"
            }
        );
        return Ok(ok_a && ok_b && steady);
    }
    match (&cli.workload, cli.seconds) {
        (Some(workload), Some(seconds)) => {
            let args = RunArgs {
                workload: workload.clone(),
                seed: cli.seed,
                seconds,
                trace: cli.trace,
                quick: cli.quick,
            };
            let outcome = if args.trace {
                run::per_layer(&args)?
            } else {
                run::end_to_end(&args, process_start)?
            };
            let table = if args.trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            debug_assert_eq!(outcome.metrics.len(), table.len());
            for line in outcome_lines(&args.workload, &outcome) {
                eprintln!("{line}");
            }
            println!("{}", outcome.to_json().render());
            // An incorrect run is still a result: the driver reads `correct`.
            Ok(true)
        }
        (None, Some(_)) => Err("--seconds needs --workload".into()),
        (_, None) => run_set(
            &cli,
            cli.seed,
            cli.runs.unwrap_or(1),
            if cli.trace {
                "results_trace.json"
            } else {
                "results.json"
            },
        )
        .map(|(ok, _)| ok),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match real_main(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
