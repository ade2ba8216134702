//! Parameter sweeps: each function assembles the [`Series`] behind one
//! figure of the reproduction, over the lock/barrier registries.
//!
//! Every sweep is a grid of independent *cells* — one `(kernel, parameter)`
//! simulation each — run in grid order on the calling thread. A cell is a
//! pure function of its parameters (the simulator's schedule does not
//! depend on host timing), so a figure is a pure function of its sweep's
//! arguments; none of them is a host-thread count.

use crate::barrierbench::{self, BarrierConfig};
use crate::csbench::{self, CsConfig};
use kernels::barriers::all_barriers;
use kernels::locks::LockKernel;
use kernels::locks::{all_locks, tas_backoff::TasBackoffLock, ticket_prop::TicketPropLock};
use memsim::{Machine, MachineParams};
use simcore::Series;

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

/// The default processor-count axis of the scaling figures.
pub fn default_procs() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32, 48, 64]
}

/// The saturated critical-section configuration of fig1–fig3 (no think
/// time, fixed 20-cycle hold: the 1991 measurement conditions), also
/// fig9's and table4's contended trial.
pub(crate) fn saturated_cfg(nprocs: usize, iters: usize) -> CsConfig {
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
    kind: MachineKind,
    procs: &[usize],
    iters: usize,
    ylabel: &str,
    metric: fn(&csbench::CsResult) -> f64,
) -> Series {
    let mut series = Series::new("P", ylabel);
    for lock in all_locks() {
        for &p in procs {
            let r = csbench::run(&kind.machine(p), lock.as_ref(), &saturated_cfg(p, iters))
                .unwrap_or_else(|e| panic!("{} P={p}: {e}", lock.name()));
            series.push(lock.name(), p as u64, metric(&r));
        }
    }
    series
}

/// fig1/fig2 — lock passing time vs processor count, every lock.
///
/// `iters` critical sections per processor, saturated workload (no think
/// time): the configuration under which the 1991 curves were produced.
pub fn lock_scaling(kind: MachineKind, procs: &[usize], iters: usize) -> Series {
    cs_over_procs(kind, procs, iters, "cycles per critical section", |r| {
        r.passing_time
    })
}

/// fig3 — interconnect transactions per critical section vs P (bus).
pub fn lock_traffic(kind: MachineKind, procs: &[usize], iters: usize) -> Series {
    cs_over_procs(
        kind,
        procs,
        iters,
        "interconnect transactions per critical section",
        |r| r.transactions_per_cs,
    )
}

/// fig4 — throughput (critical sections per kilocycle) vs critical-section
/// hold time at fixed P: the contention crossover figure.
pub fn contention_sweep(kind: MachineKind, nprocs: usize, holds: &[u64], iters: usize) -> Series {
    let machine = kind.machine(nprocs);
    let mut series = Series::new("hold", "critical sections per kilocycle");
    for lock in all_locks() {
        for &hold in holds {
            let cfg = CsConfig {
                hold,
                think: 100,
                jitter: true,
                ..CsConfig::new(nprocs, iters)
            };
            let r = csbench::run(&machine, lock.as_ref(), &cfg)
                .unwrap_or_else(|e| panic!("{} hold={hold}: {e}", lock.name()));
            series.push(lock.name(), hold, r.throughput);
        }
    }
    series
}

/// fig5/fig6 — barrier episode time vs P, every barrier.
pub fn barrier_scaling(kind: MachineKind, procs: &[usize], episodes: u64) -> Series {
    let mut series = Series::new("P", "cycles per episode");
    for barrier in all_barriers() {
        for &p in procs {
            let cfg = BarrierConfig {
                nprocs: p,
                episodes,
                work: 50,
            };
            let r = barrierbench::run(&kind.machine(p), barrier.as_ref(), &cfg)
                .unwrap_or_else(|e| panic!("{} P={p}: {e}", barrier.name()));
            series.push(barrier.name(), p as u64, r.episode_time);
        }
    }
    series
}

/// fig7 — backoff ablation: lock passing time at fixed P as the backoff
/// parameters sweep, for the two parameterized algorithms.
pub fn backoff_ablation(kind: MachineKind, nprocs: usize, iters: usize) -> Series {
    let machine = kind.machine(nprocs);
    let passing = |lock: &dyn LockKernel, what: &str| {
        csbench::run(&machine, lock, &saturated_cfg(nprocs, iters))
            .expect(what)
            .passing_time
    };
    let mut series = Series::new("parameter", "cycles per critical section");
    // TAS backoff: sweep the cap with a fixed base.
    for cap in [0u64, 64, 256, 1024, 4096, 16384] {
        let lock = TasBackoffLock { base: 16, cap };
        series.push("tas-backoff(cap)", cap, passing(&lock, "tas-backoff sweep"));
    }
    // Proportional ticket: sweep the per-position factor.
    for factor in [1u64, 10, 30, 60, 120, 300, 1000] {
        let lock = TicketPropLock { factor };
        series.push(
            "ticket-prop(factor)",
            factor,
            passing(&lock, "ticket-prop sweep"),
        );
    }
    series
}

/// table1 — uncontended latency of every lock and every barrier (P = 1).
pub fn uncontended_table(kind: MachineKind) -> Vec<(String, f64)> {
    let machine = kind.machine(1);
    let locks = all_locks().into_iter().map(|lock| {
        (
            format!("lock/{}", lock.name()),
            csbench::uncontended_latency(&machine, lock.as_ref(), 500),
        )
    });
    let barriers = all_barriers().into_iter().map(|barrier| {
        let cfg = BarrierConfig {
            nprocs: 1,
            episodes: 200,
            work: 0,
        };
        let r =
            barrierbench::run(&machine, barrier.as_ref(), &cfg).expect("single-processor barrier");
        (format!("barrier/{}", barrier.name()), r.episode_time)
    });
    locks.chain(barriers).collect()
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
        let s = lock_scaling(MachineKind::Bus, &[1, 4], 4);
        assert_eq!(s.curve_names().len(), 10);
        assert_eq!(s.xs(), vec![1, 4]);
    }

    #[test]
    fn small_barrier_scaling_has_all_curves() {
        let s = barrier_scaling(MachineKind::Bus, &[2, 4], 4);
        assert_eq!(s.curve_names().len(), 6);
    }

    #[test]
    fn uncontended_table_covers_registry() {
        let rows = uncontended_table(MachineKind::Bus);
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
        let s = backoff_ablation(MachineKind::Bus, 4, 4);
        assert_eq!(s.curve_names().len(), 2);
    }
}
