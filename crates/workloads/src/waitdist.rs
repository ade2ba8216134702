//! Wait/hold-time distribution workload — the data behind table5 and fig10.
//!
//! Runs the [`csbench`] critical-section workload with the
//! lock wrapped in [`InstrumentedLock`] and a full [`trace::Tracer`]
//! attached to the machine, then reduces the per-processor event streams
//! to per-lock wait (`AcquireStart → Acquired`) and hold
//! (`Acquired → Released`) distributions. The tracer is attached
//! explicitly, so the figures are pure functions of their configuration
//! and golden-testable; tracing is
//! also timing-invisible by construction, so the `CsResult` here is
//! byte-identical to an untraced run of the same configuration.

use crate::csbench::{self, CsConfig, CsResult};
use kernels::locks::{lock_by_name, InstrumentedLock, LockKernel};
use memsim::{Machine, MachineParams, SimError};
use std::sync::Arc;
use trace::histo::{lock_distributions, LockDist};
use trace::Tracer;

/// The stable lock id the instrumented trial records under.
pub const TRACE_LOCK_ID: usize = 0;

/// The locks table5/fig10 profile: the classic spectrum from collapse-prone
/// to scalable, in figure order.
pub const DIST_LOCKS: &[&str] = &["tas", "ttas", "ticket", "mcs", "qsm"];

/// The percentiles fig10 plots the wait-time CDF at.
pub const CDF_PERCENTILES: &[u64] = &[10, 25, 50, 75, 90, 95, 99, 100];

/// One lock's traced trial: benchmark result plus its wait/hold
/// distributions.
#[derive(Debug, Clone)]
pub struct WaitDistResult {
    /// The lock's registry name.
    pub name: String,
    /// Wait/hold histograms and raw wait samples for [`TRACE_LOCK_ID`].
    pub dist: LockDist,
    /// The underlying critical-section trial result.
    pub result: CsResult,
}

impl WaitDistResult {
    /// Wait-time quantile `q` in `[0, 1]`, in cycles.
    pub fn wait_q(&self, q: f64) -> u64 {
        self.dist.wait.quantile(q)
    }

    /// Hold-time quantile `q` in `[0, 1]`, in cycles.
    pub fn hold_q(&self, q: f64) -> u64 {
        self.dist.hold.quantile(q)
    }
}

/// Runs the traced critical-section trial for one registry lock on the bus
/// machine and extracts its wait/hold distributions.
///
/// # Errors
///
/// Propagates simulator errors from the underlying trial.
///
/// # Panics
///
/// On an unknown lock name, or if a ring dropped events (the distributions
/// would silently miss samples: the lock outran the rings' per-trial bound).
pub fn run_lock(name: &str, cfg: &CsConfig) -> Result<WaitDistResult, SimError> {
    let lock: Arc<dyn LockKernel + Send + Sync> =
        Arc::from(lock_by_name(name).unwrap_or_else(|| panic!("unknown lock '{name}'")));
    let instrumented = InstrumentedLock::new(lock, TRACE_LOCK_ID);
    let tracer = Arc::new(Tracer::new(cfg.nprocs, ring_events(cfg)));
    let machine =
        Machine::new(MachineParams::bus_1991(cfg.nprocs)).with_tracer(Arc::clone(&tracer));
    let result = csbench::run(&machine, &instrumented, cfg)?;
    for pid in 0..cfg.nprocs {
        assert_eq!(
            tracer.dropped(pid),
            0,
            "{name}: p{pid} overflowed the trace ring; distributions would be truncated"
        );
    }
    let dist = lock_distributions(&tracer)
        .remove(&TRACE_LOCK_ID)
        .unwrap_or_default();
    Ok(WaitDistResult {
        name: name.to_string(),
        dist,
        result,
    })
}

/// Events one processor can record in a trial of `cfg`: three lock events
/// per critical section, and a `SpinBegin`/`SpinEnd` pair per spin that
/// parks. A spin parks at most once per own acquisition, once per own
/// release (a queue lock waiting for its successor's link), and once per
/// acquisition another processor wins first (a test-and-test-and-set
/// retry). The trial's whole trace then fits, and a ring sized to it costs
/// a cell kilobytes where the tracer's default costs 2 MiB a processor.
fn ring_events(cfg: &CsConfig) -> usize {
    3 * cfg.iters + 2 * (2 * cfg.iters + cfg.total_cs() as usize)
}

/// [`run_lock`] over [`DIST_LOCKS`] — the table5/fig10 sweep, one cell
/// per lock, each with its own machine and tracer.
///
/// # Panics
///
/// On simulator errors: the registry locks are all correct, so an error
/// here is a harness bug.
pub fn distribution_sweep(nprocs: usize, iters: usize) -> Vec<WaitDistResult> {
    let cfg = CsConfig::new(nprocs, iters);
    DIST_LOCKS
        .iter()
        .map(|name| run_lock(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_locks_resolve_in_the_registry() {
        for name in DIST_LOCKS {
            assert!(lock_by_name(name).is_some(), "unknown lock {name}");
        }
    }

    #[test]
    fn traced_trial_collects_every_acquisition() {
        let cfg = CsConfig::new(4, 6);
        let r = run_lock("qsm", &cfg).unwrap();
        // One wait and one hold sample per critical section.
        assert_eq!(r.dist.wait.count(), cfg.total_cs());
        assert_eq!(r.dist.hold.count(), cfg.total_cs());
        assert_eq!(r.dist.wait_samples.len() as u64, cfg.total_cs());
        // Holds include the configured 20-cycle delay, so p50 >= 20.
        assert!(r.hold_q(0.5) >= cfg.hold, "hold p50 {}", r.hold_q(0.5));
        // Quantiles are monotone.
        assert!(r.wait_q(0.5) <= r.wait_q(0.99));
        assert!(r.wait_q(0.99) <= r.dist.wait.max());
    }

    #[test]
    fn tracing_does_not_change_the_benchmark() {
        let cfg = CsConfig::new(4, 6);
        let traced = run_lock("ticket", &cfg).unwrap();
        let machine = Machine::new(MachineParams::bus_1991(cfg.nprocs));
        let lock = lock_by_name("ticket").unwrap();
        let plain = csbench::run(&machine, &*lock, &cfg).unwrap();
        // The instrumented + traced trial must be cycle-identical to the
        // plain one: lock_event hooks and the tracer cost zero simulated
        // time.
        assert_eq!(traced.result.total_cycles, plain.total_cycles);
        assert_eq!(traced.result.metrics, plain.metrics);
    }

    #[test]
    fn contention_shows_up_in_the_wait_tail() {
        let mut cfg = CsConfig::new(8, 6);
        cfg.think = 0;
        cfg.jitter = false;
        let r = run_lock("tas", &cfg).unwrap();
        // Under saturation, waiting dominates: the p99 wait must exceed
        // the hold time by a wide margin.
        assert!(
            r.wait_q(0.99) > 4 * cfg.hold,
            "p99 wait {} suspiciously small under saturation",
            r.wait_q(0.99)
        );
    }
}
