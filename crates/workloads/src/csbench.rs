//! The critical-section microbenchmark — the workload of fig1–fig4.
//!
//! Every processor executes `iters` iterations of
//! `acquire → hold → release → think`, with optional exponential jitter on
//! the think time so arrivals don't phase-lock (the 1991 studies did the
//! same with random delays). The headline metric is **lock passing time**:
//! total elapsed cycles divided by the number of critical sections, minus
//! nothing — under saturation it converges to the hand-off cost the papers
//! plot.

use kernels::locks::{fixture, LockKernel};
use kernels::SyncCtx;
use memsim::{Machine, SimError};
use simcore::Rng;

/// Parameters of one critical-section trial.
#[derive(Debug, Clone, Copy)]
pub struct CsConfig {
    /// Processors contending.
    pub nprocs: usize,
    /// Critical sections per processor.
    pub iters: usize,
    /// Cycles spent inside the critical section.
    pub hold: u64,
    /// Mean cycles between critical sections (exponential jitter when
    /// `jitter` is set, fixed otherwise).
    pub think: u64,
    /// Randomize think times (recommended; defeats phase-locking).
    pub jitter: bool,
    /// Seed for the per-processor jitter streams.
    pub seed: u64,
}

impl CsConfig {
    /// A sensible default: short critical sections, modest think time.
    pub fn new(nprocs: usize, iters: usize) -> Self {
        CsConfig {
            nprocs,
            iters,
            hold: 20,
            think: 100,
            jitter: true,
            seed: 0x5EED,
        }
    }

    /// Total critical sections executed.
    pub fn total_cs(&self) -> u64 {
        (self.nprocs * self.iters) as u64
    }
}

/// Results of one critical-section trial.
#[derive(Debug, Clone)]
pub struct CsResult {
    /// Elapsed simulated cycles.
    pub total_cycles: u64,
    /// Cycles per critical section (elapsed / total CS count) — the
    /// "lock passing time" of fig1/fig2 under saturation.
    pub passing_time: f64,
    /// Interconnect transactions per critical section — fig3's metric.
    pub transactions_per_cs: f64,
    /// Critical sections per kilocycle — fig4's throughput metric.
    pub throughput: f64,
    /// The final counter value (must equal `total_cs`; checked).
    pub counter: u64,
    /// Raw machine metrics.
    pub metrics: memsim::Metrics,
}

/// Runs the trial for `lock` on `machine`.
///
/// # Errors
///
/// Propagates simulator errors (deadlock in a broken kernel, time limit).
///
/// # Panics
///
/// If mutual exclusion was violated (the non-atomic counter came up short)
/// — that is a bug in the lock under test, not a measurement.
pub fn run(machine: &Machine, lock: &dyn LockKernel, cfg: &CsConfig) -> Result<CsResult, SimError> {
    let line_words = machine.params().line_words;
    let (fix, memory) = fixture(lock, cfg.nprocs, line_words, 1);
    let counter = fix.scratch.slot(0);
    let report = machine.run_with_init(cfg.nprocs, memory, |p| {
        let mut rng = Rng::new(cfg.seed ^ (p.pid() as u64).wrapping_mul(0x9E37_79B9));
        let mut ps = lock.proc_init(p.pid(), &fix.region);
        for _ in 0..cfg.iters {
            let token = lock.acquire(p, &fix.region, &mut ps);
            let v = SyncCtx::load(p, counter);
            if cfg.hold > 0 {
                SyncCtx::delay(p, cfg.hold);
            }
            SyncCtx::store(p, counter, v + 1);
            lock.release(p, &fix.region, &mut ps, token);
            let think = if cfg.jitter {
                rng.exp_cycles(cfg.think)
            } else {
                cfg.think
            };
            if think > 0 {
                SyncCtx::delay(p, think);
            }
        }
    })?;
    let total = cfg.total_cs();
    let counter_val = report.memory[counter];
    assert_eq!(
        counter_val,
        total,
        "{} violated mutual exclusion under the benchmark workload",
        lock.name()
    );
    let cycles = report.metrics.total_cycles;
    Ok(CsResult {
        total_cycles: cycles,
        passing_time: cycles as f64 / total as f64,
        transactions_per_cs: report.metrics.interconnect_transactions as f64 / total as f64,
        throughput: total as f64 * 1000.0 / cycles as f64,
        counter: counter_val,
        metrics: report.metrics,
    })
}

/// Uncontended latency of one acquire/release pair, in cycles: a single
/// processor, no think time, measured over many iterations (table1's lock
/// column). The critical-section body is empty so only lock overhead
/// remains.
pub fn uncontended_latency(machine: &Machine, lock: &dyn LockKernel, iters: usize) -> f64 {
    let line_words = machine.params().line_words;
    let (fix, memory) = fixture(lock, 1, line_words, 1);
    let report = machine
        .run_with_init(1, memory, |p| {
            let mut ps = lock.proc_init(0, &fix.region);
            for _ in 0..iters {
                let token = lock.acquire(p, &fix.region, &mut ps);
                lock.release(p, &fix.region, &mut ps, token);
            }
        })
        .expect("uncontended trial cannot deadlock");
    report.metrics.total_cycles as f64 / iters as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::locks::{mcs::McsLock, qsm::QsmLock, tas::TasLock};
    use memsim::MachineParams;

    #[test]
    fn config_accounting() {
        let cfg = CsConfig::new(8, 10);
        assert_eq!(cfg.total_cs(), 80);
    }

    #[test]
    fn trial_counts_every_critical_section() {
        let machine = Machine::new(MachineParams::bus_1991(4));
        let cfg = CsConfig::new(4, 10);
        let r = run(&machine, &QsmLock::spin(), &cfg).unwrap();
        assert_eq!(r.counter, 40);
        assert!(r.passing_time > 0.0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let machine = Machine::new(MachineParams::bus_1991(4));
        let cfg = CsConfig::new(4, 8);
        let a = run(&machine, &McsLock, &cfg).unwrap();
        let b = run(&machine, &McsLock, &cfg).unwrap();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn different_seed_changes_timing() {
        let machine = Machine::new(MachineParams::bus_1991(4));
        let mut cfg = CsConfig::new(4, 8);
        let a = run(&machine, &McsLock, &cfg).unwrap();
        cfg.seed ^= 0xDEAD_BEEF;
        let b = run(&machine, &McsLock, &cfg).unwrap();
        assert_ne!(
            a.total_cycles, b.total_cycles,
            "jittered workloads should differ across seeds"
        );
    }

    #[test]
    fn uncontended_latency_is_small_and_positive() {
        let machine = Machine::new(MachineParams::bus_1991(1));
        let lat = uncontended_latency(&machine, &QsmLock::spin(), 200);
        // One transaction each way plus change; certainly < 200 cycles.
        assert!(lat > 0.0 && lat < 200.0, "unexpected latency {lat}");
    }

    #[test]
    fn tas_collapses_relative_to_qsm_at_scale() {
        // The reproduction's headline in miniature.
        let p = 16;
        let machine = Machine::new(MachineParams::bus_1991(p));
        let cfg = CsConfig {
            think: 0,
            jitter: false,
            ..CsConfig::new(p, 6)
        };
        let tas = run(&machine, &TasLock, &cfg).unwrap();
        let qsm = run(&machine, &QsmLock::spin(), &cfg).unwrap();
        assert!(
            tas.passing_time > 1.5 * qsm.passing_time,
            "tas {:.0} should be well above qsm {:.0}",
            tas.passing_time,
            qsm.passing_time
        );
    }
}
