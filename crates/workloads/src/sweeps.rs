//! Parameter sweeps: each function assembles the [`Series`] behind one
//! figure of the reproduction, over the lock/barrier registries.
//!
//! Every sweep is a grid of independent *cells* — one `(kernel, parameter)`
//! simulation each. Cells are deterministic in isolation (the simulator's
//! schedule does not depend on host timing), so the sweep functions fan
//! them out across host threads via [`parallel_cells`] and reassemble the
//! series in grid order: the output is bit-for-bit identical whether the
//! cells ran sequentially, interleaved, or on different machines.
//!
//! The one parallelism axis is across cells: [`parallel_cells`] on the
//! `threads` host threads every sweep takes as its first argument. Any
//! thread count produces bit-identical output, so it never changes a
//! figure, only how long it takes to render.

use crate::barrierbench::{self, BarrierConfig};
use crate::csbench::{self, CsConfig};
use kernels::barriers::all_barriers;
use kernels::locks::{all_locks, tas_backoff::TasBackoffLock, ticket_prop::TicketPropLock};
use memsim::{Machine, MachineParams};
use simcore::Series;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which machine a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// Bus-based cache-coherent multiprocessor.
    Bus,
    /// Distributed NUMA multiprocessor.
    Numa,
}

impl MachineKind {
    /// Builds the machine for `nprocs`.
    pub fn machine(self, nprocs: usize) -> Machine {
        match self {
            MachineKind::Bus => Machine::new(MachineParams::bus_1991(nprocs)),
            MachineKind::Numa => Machine::new(MachineParams::numa_1991(nprocs)),
        }
    }
}

/// Runs `cell(0..n)` across up to `threads` host threads and returns the
/// results **in index order**, regardless of completion order.
///
/// Work is distributed by an atomic grab counter, so long cells (high
/// processor counts) don't convoy behind a fixed pre-partition. With
/// `threads <= 1` (or a single cell) this is exactly a sequential map —
/// same code path the deterministic-output guarantee is tested against.
///
/// A panicking cell propagates out of the scope, preserving the sweep
/// functions' panic-with-context error reporting.
pub fn parallel_cells<R, F>(n: usize, threads: usize, cell: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(cell).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = cell(i);
                *slots[i].lock().expect("cell slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("cell slot poisoned")
                .expect("cell never ran")
        })
        .collect()
}

/// The default processor-count axis of the scaling figures.
pub fn default_procs() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 48, 64]
}

/// The saturated critical-section configuration of fig1–fig3 (no think
/// time, fixed 20-cycle hold: the 1991 measurement conditions).
fn saturated_cfg(nprocs: usize, iters: usize) -> CsConfig {
    CsConfig {
        think: 0,
        jitter: false,
        hold: 20,
        ..CsConfig::new(nprocs, iters)
    }
}

/// Shared shape of fig1/fig2/fig3: a `(lock, P)` grid under the saturated
/// workload, differing only in which [`csbench::CsResult`] metric a figure
/// plots.
fn cs_over_procs(
    threads: usize,
    kind: MachineKind,
    procs: &[usize],
    iters: usize,
    ylabel: &str,
    metric: fn(&csbench::CsResult) -> f64,
) -> Series {
    let locks = all_locks();
    let cells: Vec<(usize, usize)> = (0..locks.len())
        .flat_map(|li| procs.iter().map(move |&p| (li, p)))
        .collect();
    let results = parallel_cells(cells.len(), threads, |i| {
        let (li, p) = cells[i];
        let machine = kind.machine(p);
        csbench::run(&machine, locks[li].as_ref(), &saturated_cfg(p, iters))
            .unwrap_or_else(|e| panic!("{} P={p}: {e}", locks[li].name()))
    });
    let mut series = Series::new("P", ylabel);
    for (&(li, p), r) in cells.iter().zip(&results) {
        series.push(locks[li].name(), p as u64, metric(r));
    }
    series
}

/// fig1/fig2 — lock passing time vs processor count, every lock.
///
/// `iters` critical sections per processor, saturated workload (no think
/// time): the configuration under which the 1991 curves were produced.
pub fn lock_scaling(threads: usize, kind: MachineKind, procs: &[usize], iters: usize) -> Series {
    cs_over_procs(
        threads,
        kind,
        procs,
        iters,
        "cycles per critical section",
        |r| r.passing_time,
    )
}

/// fig3 — interconnect transactions per critical section vs P (bus).
pub fn lock_traffic(threads: usize, kind: MachineKind, procs: &[usize], iters: usize) -> Series {
    cs_over_procs(
        threads,
        kind,
        procs,
        iters,
        "interconnect transactions per critical section",
        |r| r.transactions_per_cs,
    )
}

/// fig4 — throughput (critical sections per kilocycle) vs critical-section
/// hold time at fixed P: the contention crossover figure.
pub fn contention_sweep(
    threads: usize,
    kind: MachineKind,
    nprocs: usize,
    holds: &[u64],
    iters: usize,
) -> Series {
    let locks = all_locks();
    let cells: Vec<(usize, u64)> = (0..locks.len())
        .flat_map(|li| holds.iter().map(move |&h| (li, h)))
        .collect();
    let results = parallel_cells(cells.len(), threads, |i| {
        let (li, hold) = cells[i];
        let machine = kind.machine(nprocs);
        let cfg = CsConfig {
            hold,
            think: 100,
            jitter: true,
            ..CsConfig::new(nprocs, iters)
        };
        csbench::run(&machine, locks[li].as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{} hold={hold}: {e}", locks[li].name()))
    });
    let mut series = Series::new("hold", "critical sections per kilocycle");
    for (&(li, hold), r) in cells.iter().zip(&results) {
        series.push(locks[li].name(), hold, r.throughput);
    }
    series
}

/// fig5/fig6 — barrier episode time vs P, every barrier.
pub fn barrier_scaling(
    threads: usize,
    kind: MachineKind,
    procs: &[usize],
    episodes: u64,
) -> Series {
    let barriers = all_barriers();
    let cells: Vec<(usize, usize)> = (0..barriers.len())
        .flat_map(|bi| procs.iter().map(move |&p| (bi, p)))
        .collect();
    let results = parallel_cells(cells.len(), threads, |i| {
        let (bi, p) = cells[i];
        let machine = kind.machine(p);
        let cfg = BarrierConfig {
            nprocs: p,
            episodes,
            work: 50,
        };
        barrierbench::run(&machine, barriers[bi].as_ref(), &cfg)
            .unwrap_or_else(|e| panic!("{} P={p}: {e}", barriers[bi].name()))
    });
    let mut series = Series::new("P", "cycles per episode");
    for (&(bi, p), r) in cells.iter().zip(&results) {
        series.push(barriers[bi].name(), p as u64, r.episode_time);
    }
    series
}

/// fig7 — backoff ablation: lock passing time at fixed P as the backoff
/// parameters sweep, for the two parameterized algorithms.
pub fn backoff_ablation(threads: usize, kind: MachineKind, nprocs: usize, iters: usize) -> Series {
    let caps = [0u64, 64, 256, 1024, 4096, 16384];
    let factors = [1u64, 10, 30, 60, 120, 300, 1000];
    let results = parallel_cells(caps.len() + factors.len(), threads, |i| {
        let machine = kind.machine(nprocs);
        let cfg = saturated_cfg(nprocs, iters);
        if i < caps.len() {
            // TAS backoff: sweep the cap with a fixed base.
            let lock = TasBackoffLock {
                base: 16,
                cap: caps[i],
            };
            csbench::run(&machine, &lock, &cfg)
                .expect("tas-backoff sweep")
                .passing_time
        } else {
            // Proportional ticket: sweep the per-position factor.
            let lock = TicketPropLock {
                factor: factors[i - caps.len()],
            };
            csbench::run(&machine, &lock, &cfg)
                .expect("ticket-prop sweep")
                .passing_time
        }
    });
    let mut series = Series::new("parameter", "cycles per critical section");
    for (i, &cap) in caps.iter().enumerate() {
        series.push("tas-backoff(cap)", cap, results[i]);
    }
    for (j, &factor) in factors.iter().enumerate() {
        series.push("ticket-prop(factor)", factor, results[caps.len() + j]);
    }
    series
}

/// table1 — uncontended latency of every lock and every barrier (P = 1).
pub fn uncontended_table(threads: usize, kind: MachineKind) -> Vec<(String, f64)> {
    let locks = all_locks();
    let barriers = all_barriers();
    let results = parallel_cells(locks.len() + barriers.len(), threads, |i| {
        let machine = kind.machine(1);
        if i < locks.len() {
            (
                format!("lock/{}", locks[i].name()),
                csbench::uncontended_latency(&machine, locks[i].as_ref(), 500),
            )
        } else {
            let barrier = barriers[i - locks.len()].as_ref();
            let r = barrierbench::run(
                &machine,
                barrier,
                &BarrierConfig {
                    nprocs: 1,
                    episodes: 200,
                    work: 0,
                },
            )
            .expect("single-processor barrier");
            (format!("barrier/{}", barrier.name()), r.episode_time)
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_kind_builds_both_topologies() {
        let _ = MachineKind::Bus.machine(4);
        let _ = MachineKind::Numa.machine(4);
    }

    #[test]
    fn small_lock_scaling_has_all_curves() {
        let s = lock_scaling(simcore::host_parallelism(), MachineKind::Bus, &[1, 4], 4);
        assert_eq!(s.curve_names().len(), 10);
        assert_eq!(s.xs(), vec![1, 4]);
    }

    #[test]
    fn small_barrier_scaling_has_all_curves() {
        let s = barrier_scaling(simcore::host_parallelism(), MachineKind::Bus, &[2, 4], 4);
        assert_eq!(s.curve_names().len(), 6);
    }

    #[test]
    fn uncontended_table_covers_registry() {
        let rows = uncontended_table(simcore::host_parallelism(), MachineKind::Bus);
        assert_eq!(rows.len(), 16);
        // Locks always cost something; a P=1 episode of the log-round
        // barriers (dissemination, tournament) is legitimately free.
        for (name, v) in &rows {
            if name.starts_with("lock/") {
                assert!(*v > 0.0, "{name} has zero latency");
            } else {
                assert!(*v >= 0.0, "{name} negative latency");
            }
        }
    }

    #[test]
    fn backoff_ablation_produces_two_curves() {
        let s = backoff_ablation(simcore::host_parallelism(), MachineKind::Bus, 4, 4);
        assert_eq!(s.curve_names().len(), 2);
    }

    #[test]
    fn parallel_cells_preserves_index_order() {
        let seq = parallel_cells(17, 1, |i| i * i);
        let par = parallel_cells(17, 4, |i| i * i);
        assert_eq!(seq, par);
    }

    #[test]
    fn threaded_cells_match_sequential_simulation() {
        // Force the threaded path even on a single-core host: each cell is
        // a full simulation, and the fan-out must not perturb its result.
        let procs = [1usize, 2, 4];
        let run_cell = |i: usize| {
            let p = procs[i];
            let machine = MachineKind::Bus.machine(p);
            let locks = all_locks();
            csbench::run(&machine, locks[0].as_ref(), &saturated_cfg(p, 3))
                .expect("cell")
                .total_cycles
        };
        let seq = parallel_cells(procs.len(), 1, run_cell);
        let par = parallel_cells(procs.len(), procs.len(), run_cell);
        assert_eq!(seq, par);
    }
}
