//! The figure registry: every table and figure of the reconstructed
//! evaluation as a string-returning render function.
//!
//! The `src/bin/` binaries are one-line wrappers over [`run_main`]; the
//! `bench_sim` binary walks [`FIGURES`] in one process to measure full
//! regeneration wall-clock; the golden-output regression test renders
//! every deterministic figure in quick mode and diffs the bytes against
//! committed files. Keeping rendering as `fn(&Opts) -> String` is what
//! lets all three share one definition of "the figure".

use crate::{final_ratio_block, series_block, Opts};
use kernels::locks::{qsm::QsmLock, LockKernel};
use kernels::{ProcCtx, Region};
use service::protocol::{self, QsmQueue};
use simcore::table::{fmt_cell, Table};
use simcore::Series;
use workloads::csbench::{self, CsConfig};
use workloads::oversub::{blocking_latency_table, oversubscription_sweep};
use workloads::rwbench::{run_mutex, run_rwlock, RwConfig};
use workloads::service_load::{self, LockPolicy, ServiceLoadConfig};
use workloads::waitdist::{distribution_sweep, CDF_PERCENTILES};
use workloads::sweeps::{
    backoff_ablation, barrier_scaling, contention_sweep, lock_scaling, lock_traffic,
    uncontended_table, MachineKind,
};

/// One entry of the evaluation: a figure or table binary.
pub struct Figure {
    /// Short id (`fig1` … `fig8`, `table1` … `table3`).
    pub id: &'static str,
    /// Binary name — also the stem of the committed `results/` file.
    pub binary: &'static str,
    /// True when the output is a pure function of `Opts` (everything but
    /// the real-hardware fig8): these are the byte-identity goldens.
    pub deterministic: bool,
    /// Renders the figure under the given options.
    pub render: fn(&Opts) -> String,
}

/// Every figure, in publication order.
pub static FIGURES: &[Figure] = &[
    Figure {
        id: "fig1",
        binary: "fig1_lock_scaling_bus",
        deterministic: true,
        render: fig1,
    },
    Figure {
        id: "fig2",
        binary: "fig2_lock_scaling_numa",
        deterministic: true,
        render: fig2,
    },
    Figure {
        id: "fig3",
        binary: "fig3_traffic",
        deterministic: true,
        render: fig3,
    },
    Figure {
        id: "fig4",
        binary: "fig4_contention_sweep",
        deterministic: true,
        render: fig4,
    },
    Figure {
        id: "fig5",
        binary: "fig5_barrier_bus",
        deterministic: true,
        render: fig5,
    },
    Figure {
        id: "fig6",
        binary: "fig6_barrier_numa",
        deterministic: true,
        render: fig6,
    },
    Figure {
        id: "fig7",
        binary: "fig7_backoff_ablation",
        deterministic: true,
        render: fig7,
    },
    Figure {
        id: "fig8",
        binary: "fig8_realhw",
        deterministic: false,
        render: fig8,
    },
    Figure {
        id: "fig9",
        binary: "fig9_oversubscription",
        deterministic: true,
        render: fig9,
    },
    Figure {
        id: "table1",
        binary: "table1_latency",
        deterministic: true,
        render: table1,
    },
    Figure {
        id: "table2",
        binary: "table2_fairness",
        deterministic: true,
        render: table2,
    },
    Figure {
        id: "table3",
        binary: "table3_rwlock",
        deterministic: true,
        render: table3,
    },
    Figure {
        id: "table4",
        binary: "table4_blocking_latency",
        deterministic: true,
        render: table4,
    },
    Figure {
        id: "fig10",
        binary: "fig10_wait_cdf",
        deterministic: true,
        render: fig10,
    },
    Figure {
        id: "table5",
        binary: "table5_wait_distribution",
        deterministic: true,
        render: table5,
    },
    Figure {
        id: "fig11",
        binary: "fig11_service_throughput",
        deterministic: true,
        render: fig11,
    },
    Figure {
        id: "table6",
        binary: "table6_service_tail",
        deterministic: true,
        render: table6,
    },
    Figure {
        id: "fig12",
        binary: "fig12_async_service",
        deterministic: true,
        render: fig12,
    },
    Figure {
        id: "table7",
        binary: "table7_metrics_overhead",
        deterministic: true,
        render: table7,
    },
];

/// Looks a figure up by its short id.
pub(crate) fn by_id(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// The shared `main` of the thin figure binaries: parse options, render,
/// print.
pub fn run_main(id: &str) {
    let figure = by_id(id).unwrap_or_else(|| panic!("unknown figure id {id}"));
    let opts = Opts::from_env();
    print!("{}", (figure.render)(&opts));
}

/// Checks a `bench_sim` report, after parsing it ([`trace::json::parse`]):
/// schema v4, then one entry per figure of `figures` in that order, each
/// naming its figure and carrying the wall-clocks of its kind (serial,
/// parallel and speedup when deterministic, one otherwise). `bench_sim`
/// runs it on every report before writing it.
///
/// # Errors
///
/// The first part of the report that does not match.
pub fn check_report(text: &str, figures: &[&Figure]) -> Result<(), String> {
    use trace::json::Value;
    let doc = trace::json::parse(text)?;
    let is = |v: &Value, key, want: &str| v.get(key) == Some(&Value::Str(want.to_string()));
    if !is(&doc, "schema", "syncmech-bench-sim/v4") {
        return Err("the schema is not syncmech-bench-sim/v4".to_string());
    }
    let Some(Value::Arr(entries)) = doc.get("figures") else {
        return Err("no \"figures\" array".to_string());
    };
    if entries.len() != figures.len() {
        return Err(format!(
            "{} entries for {} figures",
            entries.len(),
            figures.len()
        ));
    }
    for (entry, fig) in entries.iter().zip(figures) {
        if !is(entry, "id", fig.id)
            || !is(entry, "binary", fig.binary)
            || entry.get("deterministic") != Some(&Value::Bool(fig.deterministic))
        {
            return Err(format!("entry {:?} is not {}'s", entry.get("id"), fig.id));
        }
        let keys: &[&str] = match fig.deterministic {
            true => &["serial_wall_ms", "parallel_wall_ms", "speedup"],
            false => &["wall_ms"],
        };
        let bad = |key: &&&str| match entry.get(key) {
            Some(Value::Int(_)) => false,
            Some(Value::Num(x)) => *x < 0.0,
            _ => true,
        };
        if let Some(key) = keys.iter().find(bad) {
            return Err(format!("{}: {key:?} is not a non-negative number", fig.id));
        }
    }
    Ok(())
}

/// fig1 — lock passing time vs processor count on the bus machine.
pub(crate) fn fig1(opts: &Opts) -> String {
    let series = lock_scaling(opts.run, MachineKind::Bus, &opts.procs(), opts.iters());
    let mut out = series_block(opts, "Fig 1: lock passing time vs P (bus machine)", &series);
    if !opts.csv {
        out.push_str(&final_ratio_block(&series, "tas", "qsm"));
        out.push_str(&final_ratio_block(&series, "ttas", "qsm"));
    }
    out
}

/// fig2 — lock passing time vs processor count on the NUMA machine.
pub(crate) fn fig2(opts: &Opts) -> String {
    let series = lock_scaling(opts.run, MachineKind::Numa, &opts.procs(), opts.iters());
    let mut out = series_block(opts, "Fig 2: lock passing time vs P (NUMA machine)", &series);
    if !opts.csv {
        out.push_str(&final_ratio_block(&series, "tas", "qsm"));
    }
    out
}

/// fig3 — interconnect transactions per critical section vs P (bus).
pub(crate) fn fig3(opts: &Opts) -> String {
    let series = lock_traffic(opts.run, MachineKind::Bus, &opts.procs(), opts.iters());
    let mut out = series_block(
        opts,
        "Fig 3: interconnect transactions per critical section vs P (bus)",
        &series,
    );
    if !opts.csv {
        out.push_str(&final_ratio_block(&series, "tas", "qsm"));
    }
    out
}

/// fig4 — throughput vs critical-section length at fixed P.
pub(crate) fn fig4(opts: &Opts) -> String {
    let holds: Vec<u64> = if opts.quick {
        vec![0, 64, 256]
    } else {
        vec![0, 8, 16, 32, 64, 128, 256, 512]
    };
    let nprocs = if opts.quick { 4 } else { 16 };
    let iters = if opts.quick { 4 } else { 10 };
    let series = contention_sweep(opts.run, MachineKind::Bus, nprocs, &holds, iters);
    series_block(
        opts,
        &format!("Fig 4: throughput vs critical-section hold time (bus, P = {nprocs})"),
        &series,
    )
}

/// fig5 — barrier episode time vs P on the bus machine.
pub(crate) fn fig5(opts: &Opts) -> String {
    let series = barrier_scaling(opts.run, MachineKind::Bus, &opts.procs(), opts.episodes());
    let mut out = series_block(opts, "Fig 5: barrier episode time vs P (bus machine)", &series);
    if !opts.csv {
        out.push_str(&final_ratio_block(&series, "central", "qsm-tree"));
    }
    out
}

/// fig6 — barrier episode time vs P on the NUMA machine.
pub(crate) fn fig6(opts: &Opts) -> String {
    let series = barrier_scaling(opts.run, MachineKind::Numa, &opts.procs(), opts.episodes());
    let mut out = series_block(opts, "Fig 6: barrier episode time vs P (NUMA machine)", &series);
    if !opts.csv {
        out.push_str(&final_ratio_block(&series, "central", "qsm-tree"));
    }
    out
}

/// QSM with the fast path removed: every acquire enqueues via swap.
/// Used only by the fig7 ablation.
#[derive(Debug, Clone, Copy, Default)]
struct QsmNoFastPath;

impl LockKernel for QsmNoFastPath {
    fn name(&self) -> &'static str {
        "qsm-no-fastpath"
    }
    fn lines_needed(&self, nprocs: usize) -> usize {
        QsmLock::spin().lines_needed(nprocs)
    }
    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        let mut queue = QsmLock::spin().queue(ctx.pid(), region, ps);
        let (me, recorded) = queue.node(ctx);
        protocol::qsm_enqueue(ctx, &mut queue, me, recorded);
        0
    }
    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, token: u64) {
        QsmLock::spin().release(ctx, region, ps, token);
    }
}

/// fig7 — backoff-parameter sensitivity plus the QSM fast-path ablation.
pub(crate) fn fig7(opts: &Opts) -> String {
    let nprocs = if opts.quick { 4 } else { 16 };
    let iters = if opts.quick { 4 } else { 10 };

    let series = backoff_ablation(opts.run, MachineKind::Bus, nprocs, iters);
    let mut out = series_block(
        opts,
        &format!("Fig 7a/7b: backoff parameter sensitivity (bus, P = {nprocs})"),
        &series,
    );

    // Panel 3: fast-path ablation, contended and uncontended.
    let mut fp = Series::new("P", "cycles per critical section");
    for &p in &[1usize, nprocs] {
        let machine = MachineKind::Bus.machine(p);
        let cfg = CsConfig {
            think: 0,
            jitter: false,
            hold: 20,
            ..CsConfig::new(p, iters)
        };
        let stock = csbench::run(&machine, &QsmLock::spin(), &cfg).expect("qsm");
        let ablated = csbench::run(&machine, &QsmNoFastPath, &cfg).expect("qsm-no-fastpath");
        fp.push("qsm", p as u64, stock.passing_time);
        fp.push("qsm-no-fastpath", p as u64, ablated.passing_time);
    }
    out.push('\n');
    out.push_str(&series_block(opts, "Fig 7c: QSM fast-path ablation", &fp));
    out
}

/// fig8 — the `kernels` lock registry on real threads (wall-clock; the one
/// nondeterministic figure).
pub(crate) fn fig8(opts: &Opts) -> String {
    let threads = if opts.quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4]
    };
    let iters = if opts.quick { 20_000 } else { 200_000 };
    let rows = workloads::realhw::sweep(&threads, iters);
    let mut header = vec!["lock".to_string(), "uncontended ns/op".to_string()];
    for t in &threads {
        header.push(format!("CS/ms @{t}T"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs).with_title(format!(
        "Fig 8: real hardware ({} host cores), {iters} iterations",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    for row in rows {
        let mut cells = vec![row.name.to_string(), format!("{:.0}", row.uncontended_ns)];
        for (_, thr) in &row.throughput {
            cells.push(format!("{thr:.0}"));
        }
        table.row_owned(cells);
    }
    if opts.csv {
        table.render_csv()
    } else {
        table.render()
    }
}

/// The core count fig9 and table4 oversubscribe. Four is the smallest
/// machine where a descheduled lock holder reliably strands a full spinner
/// cohort, so the spin collapse is visible even in quick mode.
const OVERSUB_CORES: usize = 4;

/// fig9 — the spin-vs-block axis: lock passing time vs threads-per-core
/// ratio on the scheduled bus machine, for pure spin (`qsm`),
/// spin-then-park (`qsm-block`) and always-park (`qsm-block-park`).
pub(crate) fn fig9(opts: &Opts) -> String {
    let ratios: Vec<usize> = if opts.quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    };
    let series = oversubscription_sweep(opts.run, OVERSUB_CORES, &ratios, opts.iters());
    let mut out = series_block(
        opts,
        &format!(
            "Fig 9: lock passing time vs threads per core (bus machine, {OVERSUB_CORES} cores, oversubscribed)"
        ),
        &series,
    );
    if !opts.csv {
        out.push_str(&final_ratio_block(&series, "qsm", "qsm-block"));
    }
    out
}

/// table1 — uncontended latency (cycles) of every primitive.
pub(crate) fn table1(opts: &Opts) -> String {
    let mut table = Table::new(&["primitive", "bus cycles", "numa cycles"])
        .with_title("Table 1: uncontended latency per operation (P = 1)");
    let bus = uncontended_table(opts.run, MachineKind::Bus);
    let numa = uncontended_table(opts.run, MachineKind::Numa);
    for ((name, b), (name2, n)) in bus.into_iter().zip(numa) {
        assert_eq!(name, name2);
        table.row_owned(vec![name, fmt_cell(b), fmt_cell(n)]);
    }
    if opts.csv {
        table.render_csv()
    } else {
        let mut out = table.render();
        out.push('\n');
        out.push_str(
            "(lock rows: one acquire+release; barrier rows: one episode net of work.\n\
             Log-round barriers cost 0 at P = 1 — they have no work to do.)\n",
        );
        out
    }
}

/// table2 — fairness at P = 32: per-processor service distribution.
pub(crate) fn table2(opts: &Opts) -> String {
    use kernels::locks::all_locks;
    use workloads::fairness::{run, FairnessConfig};
    use workloads::sweeps::parallel_cells;

    let nprocs = if opts.quick { 4 } else { 32 };
    let cfg = FairnessConfig {
        nprocs,
        total_cs: nprocs * if opts.quick { 8 } else { 64 },
        hold: 30,
    };
    let mut table = Table::new(&[
        "lock",
        "cv(counts)",
        "jain",
        "max denial (hand-offs)",
        "min/max count",
    ])
    .with_title(format!(
        "Table 2: fairness under continuous contention (bus, P = {nprocs}, {} CS)",
        cfg.total_cs
    ));
    let locks = all_locks();
    let results = parallel_cells(locks.len(), opts.run.threads, |i| {
        let machine = MachineKind::Bus.machine(nprocs);
        run(&machine, locks[i].as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", locks[i].name()))
    });
    for (lock, r) in locks.iter().zip(&results) {
        let min = r.counts.iter().min().copied().unwrap_or(0);
        let max = r.counts.iter().max().copied().unwrap_or(0);
        table.row_owned(vec![
            lock.name().to_string(),
            format!("{:.3}", r.cv),
            format!("{:.3}", r.jain),
            r.max_denial.to_string(),
            format!("{}/{}", fmt_cell(min as f64), fmt_cell(max as f64)),
        ]);
    }
    if opts.csv {
        table.render_csv()
    } else {
        table.render()
    }
}

/// table3 (extension experiment) — reader/writer mix sweep.
pub(crate) fn table3(opts: &Opts) -> String {
    use workloads::sweeps::parallel_cells;

    let nprocs = if opts.quick { 4 } else { 16 };
    let iters = if opts.quick { 8 } else { 16 };
    let fractions: &[f64] = if opts.quick {
        &[0.0, 0.9]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 0.9, 0.99]
    };
    let mut table = Table::new(&[
        "read fraction",
        "rwlock ops/kcyc",
        "mutex ops/kcyc",
        "speedup",
    ])
    .with_title(format!(
        "Table 3 (extension): reader/writer mix, bus machine, P = {nprocs}"
    ));
    let results = parallel_cells(fractions.len(), opts.run.threads, |i| {
        let cfg = RwConfig {
            nprocs,
            iters,
            read_fraction: fractions[i],
            read_hold: 400,
            write_hold: 60,
            seed: 0x7777,
        };
        let machine = MachineKind::Bus.machine(nprocs);
        let rw = run_rwlock(&machine, &cfg).expect("rwlock trial");
        let mx = run_mutex(&machine, &cfg).expect("mutex trial");
        (rw, mx)
    });
    for (&f, (rw, mx)) in fractions.iter().zip(&results) {
        table.row_owned(vec![
            format!("{:.0}%", f * 100.0),
            format!("{:.2}", rw.throughput),
            format!("{:.2}", mx.throughput),
            format!("{:.2}x", rw.throughput / mx.throughput),
        ]);
    }
    if opts.csv {
        table.render_csv()
    } else {
        table.render()
    }
}

/// table4 — blocking-lock latency: what the park path costs when idle
/// (uncontended) and what it buys when oversubscribed, per wait policy.
pub(crate) fn table4(opts: &Opts) -> String {
    let ratio = if opts.quick { 2 } else { 4 };
    let rows = blocking_latency_table(opts.run, OVERSUB_CORES, ratio, opts.iters());
    let passing_col = format!("passing @{ratio}x threads/core");
    let mut table = Table::new(&[
        "lock",
        "uncontended cycles",
        passing_col.as_str(),
        "parks per CS",
    ])
    .with_title(format!(
        "Table 4: blocking-lock latency (bus machine, {OVERSUB_CORES} cores)"
    ));
    for row in rows {
        table.row_owned(vec![
            row.name,
            fmt_cell(row.uncontended),
            fmt_cell(row.oversub_passing),
            format!("{:.2}", row.parks_per_cs),
        ]);
    }
    if opts.csv {
        table.render_csv()
    } else {
        let mut out = table.render();
        out.push('\n');
        out.push_str(
            "(uncontended: acquire+release on a dedicated machine — the cost of having\n\
             a park path without using it. parks per CS: futex parks per critical\n\
             section in the oversubscribed trial; pure spin is always 0.)\n",
        );
        out
    }
}

/// The wait/hold distribution trials behind fig10 and table5 share one
/// sweep shape per mode.
fn waitdist_sweep(opts: &Opts) -> (usize, Vec<workloads::waitdist::WaitDistResult>) {
    let nprocs = if opts.quick { 4 } else { 16 };
    (nprocs, distribution_sweep(opts.run, nprocs, opts.iters()))
}

/// fig10 — the lock wait-time CDF: for each lock, the wait-time quantile
/// (cycles, log2-bucketed) at fixed percentiles of the acquisition
/// population. Flat curves mean uniform service; a long p99 tail is the
/// signature of collapse or unfairness under contention.
pub(crate) fn fig10(opts: &Opts) -> String {
    let (nprocs, sweep) = waitdist_sweep(opts);
    let mut series = Series::new("percentile", "wait cycles");
    for r in &sweep {
        for &pct in CDF_PERCENTILES {
            series.push(&r.name, pct, r.wait_q(pct as f64 / 100.0) as f64);
        }
    }
    series_block(
        opts,
        &format!("Fig 10: lock wait-time CDF (bus machine, P = {nprocs})"),
        &series,
    )
}

/// table5 — wait- and hold-time distribution summary per lock word:
/// p50/p90/p99/max of both, from the same traced trials as fig10.
pub(crate) fn table5(opts: &Opts) -> String {
    let (nprocs, sweep) = waitdist_sweep(opts);
    let mut table = Table::new(&[
        "lock",
        "wait p50",
        "wait p90",
        "wait p99",
        "wait max",
        "hold p50",
        "hold p90",
        "hold p99",
        "hold max",
    ])
    .with_title(format!(
        "Table 5: wait/hold-time distribution per lock word (bus, P = {nprocs}, cycles)"
    ));
    for r in &sweep {
        table.row_owned(vec![
            r.name.clone(),
            r.wait_q(0.5).to_string(),
            r.wait_q(0.9).to_string(),
            r.wait_q(0.99).to_string(),
            r.dist.wait.max().to_string(),
            r.hold_q(0.5).to_string(),
            r.hold_q(0.9).to_string(),
            r.hold_q(0.99).to_string(),
            r.dist.hold.max().to_string(),
        ]);
    }
    if opts.csv {
        table.render_csv()
    } else {
        let mut out = table.render();
        out.push('\n');
        out.push_str(
            "(from the event trace of an instrumented csbench run: wait is\n\
             acquire-start to acquired, hold is acquired to released. Quantiles\n\
             are log2-bucket upper bounds, clamped to the observed maximum.)\n",
        );
        out
    }
}

/// fig11 — lock-service throughput vs worker-pool size under the bursty
/// Zipf-skewed load, per per-key lock policy (the queueing model in
/// `workloads::service_load`; the real service on real threads is timed
/// by the repo benchmark, not a figure).
pub(crate) fn fig11(opts: &Opts) -> String {
    let threads: Vec<usize> = if opts.quick {
        vec![4, 16, 64]
    } else {
        vec![4, 16, 64, 256]
    };
    let requests = if opts.quick { 2_000 } else { 12_000 };
    let results = service_load::service_sweep(opts.run, &threads, requests);
    let mut series = Series::new("workers", "requests per kcycle");
    for r in &results {
        series.push(r.policy.name(), r.threads as u64, r.throughput());
    }
    let mut out = series_block(
        opts,
        &format!(
            "Fig 11: service throughput vs worker pool ({requests} requests, Zipf 1.1, bursty open loop)"
        ),
        &series,
    );
    if !opts.csv {
        out.push_str(&final_ratio_block(&series, "qsm", "tas"));
        out.push_str(&final_ratio_block(&series, "qsm", "ticket"));
    }
    out
}

/// table6 — service tail latency at a fixed worker pool: wait-time
/// p50/p99/p999/max per policy from the same queueing model as fig11.
/// The mean barely moves across policies; the tail is where the grant
/// discipline shows.
pub(crate) fn table6(opts: &Opts) -> String {
    use workloads::sweeps::parallel_cells;

    let threads = if opts.quick { 32 } else { 64 };
    let requests = if opts.quick { 4_000 } else { 16_000 };
    let mut table = Table::new(&[
        "policy",
        "req/kcyc",
        "wait p50",
        "wait p99",
        "wait p999",
        "wait max",
    ])
    .with_title(format!(
        "Table 6: service wait-latency tail (workers = {threads}, {requests} requests, Zipf 1.1, cycles)"
    ));
    let results = parallel_cells(LockPolicy::ALL.len(), opts.run.threads, |i| {
        // Moderate load, unlike fig11's saturating one: near saturation
        // every wait is backlog and all policies pin the top histogram
        // buckets; at ~50% hot-key utilization the p50 stays small and
        // the tail isolates the grant discipline itself.
        let mut cfg = ServiceLoadConfig::new(threads, requests);
        cfg.mean_gap = 256;
        service_load::sim_load(LockPolicy::ALL[i], &cfg)
    });
    for r in &results {
        table.row_owned(vec![
            r.policy.name().to_string(),
            format!("{:.2}", r.throughput()),
            r.wait_q(0.5).to_string(),
            r.wait_q(0.99).to_string(),
            r.wait_q(0.999).to_string(),
            r.wait.max().to_string(),
        ]);
    }
    if opts.csv {
        table.render_csv()
    } else {
        let mut out = table.render();
        out.push('\n');
        out.push_str(
            "(arrival-to-grant wait under fig11's key/hold mix at a moderated\n\
             arrival rate and fixed worker pool. FIFO grant with constant handoff\n\
             (qsm) holds the p999 tail; broadcast handoff (ticket) pays per-waiter\n\
             on every release; random grant (tas) starves unlucky requests and\n\
             collapses — the classic tail blowup.)\n",
        );
        out
    }
}

/// fig12 — sync vs async grant latency under the Zipf/bursty mix: the
/// QSM queueing model ([`service_load::sim_load`]) against the *real*
/// `service::AsyncLockService` futures run on the deterministic
/// virtual-clock executor ([`service_load::async_load_with_metrics`]), both serving
/// the identical request schedule with the same constant futex-wake
/// cost. The async rows are real protocol executions — waker
/// registration, slot parking, cancellation-safe futures — not a model,
/// which is what makes the comparison interesting: the two columns
/// agreeing says the model's constant-handoff assumption survives
/// contact with the actual sharded-table code path.
pub(crate) fn fig12(opts: &Opts) -> String {
    use workloads::sweeps::parallel_cells;

    let threads: Vec<usize> = if opts.quick {
        vec![4, 16, 64]
    } else {
        vec![4, 16, 64, 256]
    };
    let requests = if opts.quick { 2_000 } else { 12_000 };
    // The executor's wake cost = the model's QSM handoff cost, so the
    // only degrees of freedom left are the protocols themselves.
    let wake_cost = 40;
    let cells = parallel_cells(threads.len(), opts.run.threads, |i| {
        let cfg = ServiceLoadConfig::new(threads[i], requests);
        let sim = service_load::sim_load(LockPolicy::Qsm, &cfg);
        let real = service_load::async_load_with_metrics(&cfg, wake_cost, opts.metrics).result;
        (sim, real)
    });
    let mut table = Table::new(&[
        "workers",
        "sync req/kcyc",
        "async req/kcyc",
        "sync p50",
        "async p50",
        "sync p999",
        "async p999",
    ])
    .with_title(format!(
        "Fig 12: sync model vs async futures, grant latency ({requests} requests, Zipf 1.1, bursty open loop, wake cost {wake_cost})"
    ));
    for (t, (sim, real)) in threads.iter().zip(&cells) {
        table.row_owned(vec![
            t.to_string(),
            format!("{:.2}", sim.throughput()),
            format!("{:.2}", real.throughput()),
            sim.wait_q(0.5).to_string(),
            real.wait_q(0.5).to_string(),
            sim.wait_q(0.999).to_string(),
            real.wait_q(0.999).to_string(),
        ]);
    }
    if opts.csv {
        table.render_csv()
    } else {
        let mut out = table.render();
        out.push('\n');
        out.push_str(
            "(sync = the fig11 QSM discrete-event model; async = the same request\n\
             schedule through real AsyncLockService futures — waker slots, parked\n\
             tasks, a waiting-array semaphore as the worker pool — on the\n\
             deterministic virtual-clock executor. Waits are arrival-to-grant in\n\
             cycles; both charge the same constant cost per futex wake.)\n",
        );
        out
    }
}

/// table7 — telemetry overhead on the fig11-shaped async workload: the
/// identical 256-worker request schedule served with metrics `off`,
/// `counters`, and `sampled:64`, one row per mode. Every column is a
/// pure function of the schedule — virtual makespan and throughput, the
/// service counters, the executor's poll count, the number of latency
/// samples taken — so the table is figure-safe even though the snapshot
/// also carries wall-clock histogram values (those go to the exporters,
/// not here). The `off` row proving all-zero counters and all three rows
/// sharing one makespan **is the claim**: disabled telemetry is exactly
/// free, and enabled telemetry never perturbs the virtual schedule. The
/// wall-clock throughput cost is timed separately, on real threads, by
/// the ignored test `counters_telemetry_costs_at_most_its_budget_over_off`
/// in `tests/service_metrics.rs`.
pub(crate) fn table7(opts: &Opts) -> String {
    use workloads::sweeps::parallel_cells;

    let threads = if opts.quick { 64 } else { 256 };
    let requests = if opts.quick { 2_000 } else { 12_000 };
    let wake_cost = 40;
    let modes = [
        service::MetricsMode::Off,
        service::MetricsMode::Counters,
        service::MetricsMode::Sampled(64),
    ];
    let reports = parallel_cells(modes.len(), opts.run.threads, |i| {
        let cfg = ServiceLoadConfig::new(threads, requests);
        service_load::async_load_with_metrics(&cfg, wake_cost, modes[i])
    });
    let mut table = Table::new(&[
        "mode",
        "completed",
        "makespan",
        "req/kcyc",
        "acquires",
        "fast",
        "parked",
        "polls",
        "wait samples",
    ])
    .with_title(format!(
        "Table 7: telemetry overhead on the async service (workers = {threads}, {requests} requests, Zipf 1.1, wake cost {wake_cost})"
    ));
    for (mode, rep) in modes.iter().zip(&reports) {
        table.row_owned(vec![
            mode.label(),
            rep.result.completed.to_string(),
            rep.result.makespan.to_string(),
            format!("{:.2}", rep.result.throughput()),
            rep.snapshot.acquires.to_string(),
            rep.snapshot.fast_path.to_string(),
            rep.snapshot.parked.to_string(),
            rep.polls.to_string(),
            rep.snapshot.wait_samples().to_string(),
        ]);
    }
    if opts.csv {
        table.render_csv()
    } else {
        let mut out = table.render();
        out.push('\n');
        out.push_str(
            "(one fig11-shaped async run per metrics mode, identical request\n\
             schedule. The off row counts nothing — disabled telemetry is exactly\n\
             free — and every row lands the same makespan, so enabled telemetry\n\
             never perturbs the virtual schedule. Wall-clock overhead of the\n\
             counters mode is timed by an ignored test in tests/service_metrics.rs.)\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_resolve() {
        for f in FIGURES {
            assert!(std::ptr::eq(by_id(f.id).unwrap(), f));
        }
        assert!(by_id("fig99").is_none());
    }

    #[test]
    fn deterministic_figures_render_identically_twice() {
        let opts = Opts {
            quick: true,
            ..Opts::default()
        };
        // table1 exercises the P=1 inline engine path end to end; fig4
        // exercises jittered critical sections. Both must be pure
        // functions of Opts.
        for id in ["table1", "fig4"] {
            let f = by_id(id).unwrap();
            assert_eq!((f.render)(&opts), (f.render)(&opts), "{id} not deterministic");
        }
    }
}
