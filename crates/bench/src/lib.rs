//! The evaluation's figures and tables, and their regeneration.
//!
//! Every table and figure of the reconstructed evaluation is one render
//! function in [`figures::FIGURES`], named by its id (`fig1`, `table1`,
//! …; see DESIGN.md's per-experiment index). The `figure` binary prints
//! one of them, `figure <id> [--quick]`, where `--quick` runs a reduced
//! sweep (fewer processors and iterations) so tests can smoke-run every
//! figure quickly; the `bench_sim` binary runs the whole registry in one
//! process to measure regeneration wall-clock. An unknown id or argument
//! is an error: the binary prints usage and exits nonzero rather than
//! silently measuring something other than what was asked for. No binary
//! reads the environment: a figure is a function of its arguments alone.

use simcore::stats::LinearFit;
use simcore::Series;
use std::fmt::Write as _;

pub mod figures;

/// The traced reference workloads behind `bench_sim --trace-out` and the
/// trace-determinism golden test.
pub mod trace_export {
    use kernels::locks::{lock_by_name, InstrumentedLock, LockKernel};
    use std::sync::Arc;
    use workloads::csbench::{self, CsConfig};

    /// The workloads [`export_trace`] accepts.
    pub const WORKLOADS: &[&str] = &["bus", "oversub"];

    /// Runs one traced workload and returns its Chrome trace-event JSON.
    ///
    /// `bus` is the dedicated-machine csbench with the stock QSM lock;
    /// `oversub` is the fig9 configuration (4-core scheduled bus machine,
    /// 2 threads per core, always-park QSM), whose timeline shows parks,
    /// wake flow arrows and context switches. Both are deterministic: the
    /// tracer is attached explicitly and the simulator's cycle stream is
    /// independent of it.
    ///
    /// # Panics
    ///
    /// On an unknown workload name or a simulator error.
    pub fn export_trace(workload: &str, opts: &crate::Opts) -> String {
        let iters = if opts.quick { 4 } else { 8 };
        let (machine, lock_name, nprocs) = match workload {
            "bus" => {
                let nprocs = if opts.quick { 4 } else { 8 };
                let machine = memsim::Machine::new(memsim::MachineParams::bus_1991(nprocs));
                (machine, "qsm", nprocs)
            }
            "oversub" => {
                let cores = 4;
                let nprocs = 2 * cores;
                (
                    workloads::oversub::oversub_machine(nprocs, cores),
                    "qsm-block-park",
                    nprocs,
                )
            }
            other => panic!("unknown trace workload {other:?} (expected one of {WORKLOADS:?})"),
        };
        let tracer = trace::Tracer::shared(nprocs);
        let machine = machine.with_tracer(Arc::clone(&tracer));
        let lock: Arc<dyn LockKernel + Send + Sync> =
            Arc::from(lock_by_name(lock_name).expect("registry lock"));
        let instrumented = InstrumentedLock::new(lock, 0);
        let cfg = CsConfig::new(nprocs, iters);
        csbench::run(&machine, &instrumented, &cfg)
            .unwrap_or_else(|e| panic!("trace workload {workload}: {e}"));
        trace::chrome::export_tracer(&tracer, &format!("syncmech {workload} {lock_name}"))
    }
}

/// The options every figure renders under; the default is full mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct Opts {
    /// Reduced sweep for smoke tests.
    pub quick: bool,
}

impl Opts {
    /// The processor axis for scaling figures under this mode.
    pub(crate) fn procs(&self) -> Vec<usize> {
        if self.quick {
            vec![1, 2, 4]
        } else {
            workloads::sweeps::default_procs()
        }
    }

    /// Critical sections per processor under this mode.
    pub(crate) fn iters(&self) -> usize {
        if self.quick {
            4
        } else {
            8
        }
    }

    /// Barrier episodes under this mode.
    pub(crate) fn episodes(&self) -> u64 {
        if self.quick {
            4
        } else {
            50
        }
    }
}

/// Renders a series as a table, followed by the per-curve power-law
/// scaling exponents (`y ~ P^e`) that EXPERIMENTS.md records.
pub(crate) fn series_block(title: &str, series: &Series) -> String {
    let mut out = series.to_table(title).render();
    out.push('\n');
    out.push_str("scaling exponents (log-log fit y ~ x^e):\n");
    for name in series.curve_names() {
        match series.scaling_exponent(name) {
            Some(LinearFit { slope, r2, .. }) => {
                let _ = writeln!(out, "  {name:<22} e = {slope:+.2}  (r² = {r2:.2})");
            }
            None => {
                let _ = writeln!(out, "  {name:<22} e = n/a");
            }
        }
    }
    out
}

/// Renders the headline "who wins by what factor" line for a figure
/// (empty string when the curves don't share a final point).
pub(crate) fn final_ratio_block(series: &Series, loser: &str, winner: &str) -> String {
    match series.final_ratio(loser, winner) {
        Some(ratio) => format!("\nat the largest shared P: {loser} / {winner} = {ratio:.1}x\n"),
        None => String::new(),
    }
}

/// Minimal wall-clock measurement for the `benches/` targets.
///
/// The workspace builds offline, so instead of criterion the bench targets
/// use this hand-rolled harness: warm up, run batches until a time budget
/// is spent, and report both the fastest batch (the standard
/// "best observed" estimator, robust to scheduler noise in one direction)
/// and the median batch (robust in both).
pub mod timing {
    use std::time::{Duration, Instant};

    /// One benchmark's results, in nanoseconds per iteration.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct Measurement {
        /// Fastest batch observed.
        pub(crate) best_ns: f64,
        /// Median across batches.
        pub(crate) median_ns: f64,
    }

    /// Measures `f` over a ~50 ms budget of ~1 ms batches.
    pub(crate) fn bench_stats(mut f: impl FnMut()) -> Measurement {
        // Warm-up: pull code and data into cache, trigger lazy init.
        for _ in 0..10 {
            f();
        }
        // Calibrate a batch size that runs for roughly 1 ms.
        let mut batch: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let budget = Duration::from_millis(50);
        let start = Instant::now();
        let mut per_iter = Vec::new();
        while start.elapsed() < budget || per_iter.is_empty() {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            per_iter.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        Measurement {
            best_ns: per_iter[0],
            median_ns: per_iter[per_iter.len() / 2],
        }
    }

    /// Runs and prints one named measurement in a `cargo bench`-like
    /// format.
    pub fn report(name: &str, f: impl FnMut()) {
        let m = bench_stats(f);
        println!(
            "{name:<40} {:>12.1} ns/iter (median {:.1})",
            m.best_ns, m.median_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_shrinks_sweeps() {
        let quick = Opts { quick: true };
        let full = Opts::default();
        assert!(quick.procs().len() < full.procs().len());
        assert!(quick.iters() <= full.iters());
        assert!(quick.episodes() < full.episodes());
    }

    #[test]
    fn timing_measurement_is_sane() {
        let m = timing::bench_stats(|| {
            std::hint::black_box(1 + 1);
        });
        assert!(m.best_ns > 0.0);
        assert!(m.median_ns >= m.best_ns);
    }
}
