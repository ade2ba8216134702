//! bench_sim — regenerates every figure **in one process** and records the
//! wall-clock cost per figure in a machine-readable `BENCH_sim.json`.
//!
//! Rendering all figures in a single process is exactly what a full
//! regeneration does, minus one `figure` process per id. Per-figure progress
//! goes to stderr; stdout reports only where the JSON landed.
//!
//! Every figure is rendered once, on this thread, and timed; the report
//! (schema v7) gives one `wall_ms` per figure, the deterministic figures'
//! total and the host's core count. A figure that renders differently
//! twice in one process is caught by `tests/golden_figures.rs`, not here.
//! Before it is written, the report is parsed back and checked against
//! the figure registry (`bench::figures::check_report`); a report that
//! fails the check is not written and the run exits non-zero.
//!
//! ```text
//! cargo run -p bench --release --bin bench_sim [-- --quick] [--out PATH]
//! ```

use bench::figures::FIGURES;
use bench::Opts;
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "\
usage: bench_sim [--quick] [--only IDS] [--out PATH]
                 [--trace-out PATH] [--trace-workload bus|oversub] [--help]

  --trace-out PATH       also export a Chrome trace-event JSON timeline of
                         one traced workload (validated before writing)
  --trace-workload KIND  which workload to trace: `bus` (dedicated bus
                         machine, qsm) or `oversub` (the fig9
                         oversubscription machine, qsm-block-park; default)
  --quick     reduced sweeps (the CI perf-smoke configuration; without
              it, the full sweeps of the publication figures)
  --only IDS  comma-separated figure ids to run (default: all)
  --out PATH  where to write the JSON report (default BENCH_sim.json)
  --help      show this help";

struct Args {
    quick: bool,
    only: Option<Vec<String>>,
    out: String,
    trace_out: Option<String>,
    trace_workload: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        only: None,
        out: "BENCH_sim.json".to_string(),
        trace_out: None,
        trace_workload: "oversub".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
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

fn main() {
    let args = parse_args();
    let mode = if args.quick { "quick" } else { "full" };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts { quick: args.quick };

    let selected: Vec<_> = FIGURES
        .iter()
        .filter(|f| {
            args.only
                .as_ref()
                .is_none_or(|ids| ids.iter().any(|i| i == f.id))
        })
        .collect();
    if selected.is_empty() {
        eprintln!("error: --only matched no figure ids");
        std::process::exit(2);
    }

    let mut figure_entries = String::new();
    let mut deterministic_ms = 0.0f64;
    let total_start = Instant::now();
    for (i, figure) in selected.iter().enumerate() {
        let start = Instant::now();
        let rendered = (figure.render)(&opts);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(rendered.len());
        let kind = if figure.deterministic {
            deterministic_ms += wall_ms;
            ""
        } else {
            " (nondeterministic)"
        };
        eprintln!("{:<8} {wall_ms:>9.1} ms{kind}", figure.id);
        let _ = write!(
            figure_entries,
            "{}    {{\"id\":\"{}\",\"deterministic\":{},\"wall_ms\":{wall_ms:.1}}}",
            if i == 0 { "" } else { ",\n" },
            figure.id,
            figure.deterministic
        );
    }
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;

    let json = format!(
        "{{\n  \"schema\": \"syncmech-bench-sim/v7\",\n  \"mode\": \"{mode}\",\n  \
         \"host_cores\": {host_cores},\n  \
         \"figures\": [\n{figure_entries}\n  ],\n  \
         \"deterministic_wall_ms\": {deterministic_ms:.1},\n  \
         \"total_wall_ms\": {total_ms:.1}\n}}\n"
    );
    if let Err(e) = bench::figures::check_report(&json, &selected) {
        eprintln!("error: the report fails its check: {e}");
        std::process::exit(1);
    }
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
        let trace_json = bench::trace_export::export_trace(&args.trace_workload, &opts);
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
