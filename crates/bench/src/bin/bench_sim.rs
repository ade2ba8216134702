//! bench_sim — regenerates every figure **in one process** and records the
//! wall-clock cost per figure in a machine-readable `BENCH_sim.json`.
//!
//! This is the measurement the tentpole perf work is judged by: rendering
//! all figures in a single process is exactly what a full regeneration
//! does, minus per-binary process spawns, and it shares one warm worker
//! pool across every simulation. Per-figure progress goes to stderr;
//! stdout reports only where the JSON landed.
//!
//! Since schema v2 every deterministic figure is rendered **twice** — once
//! serially (one sweep thread, no fragment replay) and once with both
//! parallelism axes enabled (cross-cell sweep threads × intra-run fragment
//! replay) — from two `Opts` values that differ only in their `run`
//! configuration, and the two outputs are compared byte for byte before
//! the speedup is reported. A mismatch is a determinism bug and fails the
//! run.
//!
//! Schema v3 adds the resolved `service_metrics` mode to the report
//! header: the table7 rows prove telemetry never perturbs the virtual
//! schedule, but a perf report should still say what mode the service
//! figures ran under.
//!
//! ```text
//! cargo run -p bench --release --bin bench_sim [-- --quick|--full] [--out PATH]
//! ```

use bench::figures::FIGURES;
use bench::Opts;
use simcore::knob;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::sweeps::RunConfig;

const USAGE: &str = "\
usage: bench_sim [--quick | --full] [--only IDS] [--out PATH] [--fragments K]
                 [--trace-out PATH] [--trace-workload bus|oversub] [--help]

  --fragments K          fragment length in simulated cycles for the
                         fragment-parallel pass (positive; overrides
                         SYNCMECH_REPLAY_FRAGMENT; default 100000)
  --trace-out PATH       also export a Chrome trace-event JSON timeline of
                         one traced workload (validated before writing);
                         the export runs fragment-parallel and stitches the
                         per-fragment rings
  --trace-workload KIND  which workload to trace: `bus` (dedicated bus
                         machine, qsm) or `oversub` (the fig9
                         oversubscription machine, qsm-block-park; default)
  --quick     reduced sweeps (the CI perf-smoke configuration)
  --full      full sweeps (default; the publication figures)
  --only IDS  comma-separated figure ids to run (default: all)
  --out PATH  where to write the JSON report (default BENCH_sim.json)
  --help      show this help

environment (a malformed value is an error):
  SYNCMECH_SWEEP_THREADS=N    host threads for the cross-cell sweep fan-out
  SYNCMECH_REPLAY_FRAGMENT=K  fragment length in simulated cycles
  SYNCMECH_REPLAY_WORKERS=N   host threads for the fragment replay fan-out
  SYNCMECH_SERVICE_METRICS=off|counters|sampled:<N>
                              telemetry mode of the service figures";

struct Args {
    quick: bool,
    only: Option<Vec<String>>,
    out: String,
    fragments: Option<u64>,
    trace_out: Option<String>,
    trace_workload: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        only: None,
        out: "BENCH_sim.json".to_string(),
        fragments: None,
        trace_out: None,
        trace_workload: "oversub".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--full" => args.quick = false,
            "--only" => match it.next() {
                Some(ids) => {
                    args.only = Some(ids.split(',').map(str::to_string).collect());
                }
                None => {
                    eprintln!("error: --only needs a comma-separated id list");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(path) => args.out = path,
                None => {
                    eprintln!("error: --out needs a path");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--fragments" => match it.next().map(|v| knob::positive::<u64>(&v)) {
                Some(Ok(k)) => args.fragments = Some(k),
                _ => {
                    eprintln!("error: --fragments needs a positive cycle count");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--trace-out" => match it.next() {
                Some(path) => args.trace_out = Some(path),
                None => {
                    eprintln!("error: --trace-out needs a path");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--trace-workload" => match it.next() {
                Some(kind) if kind == "bus" || kind == "oversub" => args.trace_workload = kind,
                _ => {
                    eprintln!("error: --trace-workload must be `bus` or `oversub`");
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("error: unrecognized argument `{other}`");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Default fragment length. Snapshot capture clones the full machine
/// state (P caches + memory + engine queues), so short fragments are
/// dominated by cloning — 25k cycles costs ~4x on the P = 64 figures,
/// 100k cycles ~1.3x — while the large figure cells still split into
/// enough fragments to load a small host's cores.
const DEFAULT_FRAGMENT: u64 = 100_000;

fn main() {
    let args = parse_args();
    // Resolve (and strictly validate) every knob up front: a bad value
    // must abort before an hour of rendering, not when the first figure
    // that uses it starts.
    let knobs = Opts::knobs().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let mode = if args.quick { "quick" } else { "full" };
    let host_cores = simcore::host_parallelism();
    let threads = knobs.run.threads;
    let replay_workers = knobs.run.replay_workers;
    // Fragment length: CLI flag, then the environment knob, then the
    // default.
    let fragment = args
        .fragments
        .or(knobs.run.fragment)
        .unwrap_or(DEFAULT_FRAGMENT);
    let service_metrics = knobs.metrics.label();

    // The two passes: identical but for how they use the host.
    let serial = Opts {
        quick: args.quick,
        run: RunConfig::SERIAL,
        ..knobs
    };
    let parallel = Opts {
        run: RunConfig {
            fragment: Some(fragment),
            ..knobs.run
        },
        ..serial
    };

    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|f| args.only.as_ref().is_none_or(|ids| ids.iter().any(|i| i == f.id)))
        .collect();
    if selected.is_empty() {
        eprintln!("error: --only matched no figure ids");
        std::process::exit(2);
    }

    let mut figure_entries = String::new();
    let mut serial_ms = 0.0f64;
    let mut fragment_ms = 0.0f64;
    let total_start = Instant::now();
    for (i, figure) in selected.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        if figure.deterministic {
            let start = Instant::now();
            let serial_out = (figure.render)(&serial);
            let serial_wall = start.elapsed().as_secs_f64() * 1e3;

            let start = Instant::now();
            let parallel_out = (figure.render)(&parallel);
            let fragment_wall = start.elapsed().as_secs_f64() * 1e3;

            if serial_out != parallel_out {
                eprintln!(
                    "error: {} diverged between the serial and fragment-parallel \
                     renders — fragment replay is not byte-identical",
                    figure.id
                );
                std::process::exit(1);
            }
            serial_ms += serial_wall;
            fragment_ms += fragment_wall;
            let speedup = serial_wall / fragment_wall.max(1e-9);
            eprintln!(
                "{:<8} serial {:>9.1} ms   fragments {:>9.1} ms   {speedup:>5.2}x",
                figure.id, serial_wall, fragment_wall
            );
            let _ = write!(
                figure_entries,
                "{sep}    {{\"id\":\"{}\",\"binary\":\"{}\",\"deterministic\":true,\
                 \"serial_wall_ms\":{serial_wall:.1},\"fragment_wall_ms\":{fragment_wall:.1},\
                 \"speedup\":{speedup:.2}}}",
                figure.id, figure.binary
            );
        } else {
            // Real-hardware figures are not a pure function of Opts; they
            // get one plain render and a single wall-clock number.
            let start = Instant::now();
            let rendered = (figure.render)(&serial);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(rendered.len());
            eprintln!("{:<8} {:>9.1} ms (nondeterministic)", figure.id, wall_ms);
            let _ = write!(
                figure_entries,
                "{sep}    {{\"id\":\"{}\",\"binary\":\"{}\",\"deterministic\":false,\
                 \"wall_ms\":{wall_ms:.1}}}",
                figure.id, figure.binary
            );
        }
    }
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;

    let json = format!(
        "{{\n  \"schema\": \"syncmech-bench-sim/v3\",\n  \"mode\": \"{mode}\",\n  \
         \"host_cores\": {host_cores},\n  \"sweep_threads\": {threads},\n  \
         \"replay_workers\": {replay_workers},\n  \"fragment_cycles\": {fragment},\n  \
         \"service_metrics\": \"{service_metrics}\",\n  \
         \"figures\": [\n{figure_entries}\n  ],\n  \
         \"deterministic_serial_wall_ms\": {serial_ms:.1},\n  \
         \"deterministic_fragment_wall_ms\": {fragment_ms:.1},\n  \
         \"total_wall_ms\": {total_ms:.1}\n}}\n"
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: writing {}: {e}", args.out);
        std::process::exit(1);
    }
    println!(
        "wrote {} ({mode} mode, {} figures, {:.1} ms total)",
        args.out,
        selected.len(),
        total_ms
    );

    if let Some(trace_out) = &args.trace_out {
        // The export runs with fragment replay on: the machine records
        // once, replays fragments concurrently, and stitches the
        // per-fragment rings — byte-identical to a sequential traced run
        // (pinned by the golden-trace tests).
        let trace_json = bench::trace_export::export_trace(&args.trace_workload, &parallel);
        let stats = trace::chrome::validate(&trace_json)
            .unwrap_or_else(|e| panic!("exported trace failed validation: {e}"));
        if let Err(e) = std::fs::write(trace_out, &trace_json) {
            eprintln!("error: writing {trace_out}: {e}");
            std::process::exit(1);
        }
        println!(
            "trace OK: wrote {trace_out} ({} workload, {} events, {} tracks, {} spans)",
            args.trace_workload, stats.events, stats.tracks, stats.spans
        );
    }
}
