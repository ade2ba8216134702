//! The oversubscription workload — fig9 and table4's spin-vs-block axis.
//!
//! Every other experiment in the suite runs one processor per simulated
//! core. This one deliberately does not: the machine gets a fixed core
//! count and a scheduler ([`memsim::SchedParams`]), and the processor
//! count sweeps from 1x to 8x the cores. Three wait policies contend:
//!
//! * **pure spin** — the plain QSM lock. A waiting processor burns its
//!   whole quantum polling; past 1x threads/core the lock holder is
//!   regularly descheduled while spinners occupy every core, and passing
//!   time degrades superlinearly.
//! * **spin-then-park** — [`QsmLock::spin_then_park`]: a bounded
//!   adaptive probe budget, then a futex park that frees the core.
//! * **always-park** — [`QsmLock::always_park`]: straight to the
//!   futex, paying a wake on every contended hand-off.
//!
//! fig9 plots passing time against the threads-per-core ratio; the
//! crossover between the spin and park curves is the figure's point.
//! table4 complements it with uncontended latency (where parking buys
//! nothing and must cost little) and parks per critical section.

use crate::csbench;
use crate::sweeps::saturated_cfg;
use kernels::locks::{qsm::QsmLock, LockKernel};
use memsim::{Machine, MachineParams, SchedParams};
use simcore::Series;

/// The three wait policies fig9 compares, in curve order.
pub(crate) fn wait_policies() -> Vec<Box<dyn LockKernel + Send + Sync>> {
    vec![
        Box::new(QsmLock::spin()),
        Box::new(QsmLock::spin_then_park()),
        Box::new(QsmLock::always_park()),
    ]
}

/// The oversubscribed bus machine: `nprocs` processors multiplexed onto
/// `cores` cores by the 1991-flavored scheduler. The cycle limit is finite
/// because polling spinners never block — an unsatisfiable wait shows up
/// as a time limit, not a deadlock — but generous enough that every
/// healthy trial in the suite finishes far below it.
pub fn oversub_machine(nprocs: usize, cores: usize) -> Machine {
    let mut params = MachineParams::bus_1991(nprocs);
    params.sched = Some(SchedParams::oversub_1991(cores));
    params.max_cycles = 50_000_000;
    Machine::new(params)
}

/// fig9 — lock passing time vs threads-per-core ratio at a fixed core
/// count, for the three wait policies. `ratios` are multipliers over
/// `cores` (ratio 1 = a dedicated machine's load on a scheduled machine).
pub fn oversubscription_sweep(cores: usize, ratios: &[usize], iters: usize) -> Series {
    let mut series = Series::new("threads per core", "cycles per critical section");
    for lock in wait_policies() {
        for &ratio in ratios {
            let nprocs = ratio * cores;
            let machine = oversub_machine(nprocs, cores);
            let r = csbench::run(&machine, lock.as_ref(), &saturated_cfg(nprocs, iters))
                .unwrap_or_else(|e| panic!("{} ratio={ratio}: {e}", lock.name()));
            series.push(lock.name(), ratio as u64, r.passing_time);
        }
    }
    series
}

/// One row of table4: a wait policy's latency profile.
#[derive(Debug, Clone)]
pub struct BlockingLatencyRow {
    /// The lock's registry name.
    pub name: String,
    /// Uncontended acquire/release latency on a dedicated machine, in
    /// cycles — the cost of *having* a park path without using it.
    pub uncontended: f64,
    /// Passing time under contention at `ratio` threads per core.
    pub oversub_passing: f64,
    /// Futex parks per critical section in the oversubscribed trial.
    pub parks_per_cs: f64,
}

/// table4 — blocking-lock latency: uncontended cost next to oversubscribed
/// passing time and park rate, one row per wait policy.
pub fn blocking_latency_table(cores: usize, ratio: usize, iters: usize) -> Vec<BlockingLatencyRow> {
    let dedicated = Machine::new(MachineParams::bus_1991(1));
    let nprocs = ratio * cores;
    wait_policies()
        .iter()
        .map(|lock| {
            let machine = oversub_machine(nprocs, cores);
            let r = csbench::run(&machine, lock.as_ref(), &saturated_cfg(nprocs, iters))
                .unwrap_or_else(|e| panic!("{} table4: {e}", lock.name()));
            BlockingLatencyRow {
                name: lock.name().to_string(),
                uncontended: csbench::uncontended_latency(&dedicated, lock.as_ref(), 500),
                oversub_passing: r.passing_time,
                parks_per_cs: r.metrics.futex_parks() as f64 / (nprocs * iters) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_have_distinct_names() {
        let names: Vec<&str> = wait_policies().iter().map(|l| l.name()).collect();
        assert_eq!(names, vec!["qsm", "qsm-block", "qsm-block-park"]);
    }

    #[test]
    fn sweep_produces_all_curves_and_ratios() {
        let s = oversubscription_sweep(2, &[1, 2], 3);
        assert_eq!(s.curve_names().len(), 3);
        assert_eq!(s.xs(), vec![1, 2]);
    }

    #[test]
    fn oversubscription_shows_the_crossover() {
        // The figure's claim in miniature: pure spin degrades superlinearly
        // past 1x threads/core while spin-then-park stays near-flat. Four
        // cores is the smallest machine where a descheduled lock holder
        // reliably strands a full spinner cohort; at two cores the convoy
        // is too short to measure.
        let s = oversubscription_sweep(4, &[1, 4], 5);
        let at = |curve: &str, x: u64| {
            s.get(curve, x)
                .unwrap_or_else(|| panic!("missing point {curve}@{x}"))
        };
        let spin_1 = at("qsm", 1);
        let spin_4 = at("qsm", 4);
        let park_1 = at("qsm-block", 1);
        let park_4 = at("qsm-block", 4);
        assert!(
            spin_4 > 3.0 * spin_1,
            "pure spin should collapse: {spin_1:.0} -> {spin_4:.0}"
        );
        assert!(
            park_4 < 3.0 * park_1,
            "spin-then-park should stay near-flat: {park_1:.0} -> {park_4:.0}"
        );
        assert!(
            park_4 < spin_4,
            "parking must win oversubscribed: park {park_4:.0} vs spin {spin_4:.0}"
        );
    }

    #[test]
    fn latency_table_rows_are_coherent() {
        let rows = blocking_latency_table(2, 2, 4);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.uncontended > 0.0, "{} free uncontended", row.name);
            assert!(row.oversub_passing > 0.0);
        }
        // Always-park parks on essentially every contended hand-off;
        // pure spin never parks.
        assert_eq!(rows[0].parks_per_cs, 0.0, "qsm cannot park");
        assert!(
            rows[2].parks_per_cs > rows[1].parks_per_cs,
            "always-park must park more than spin-then-park"
        );
        assert!(rows[2].parks_per_cs > 0.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = oversubscription_sweep(2, &[1, 2], 3);
        let b = oversubscription_sweep(2, &[1, 2], 3);
        assert_eq!(a.to_table("fig9").render(), b.to_table("fig9").render());
    }
}
