//! Reader/writer mix workload — the `table3` extension experiment.
//!
//! P processors issue a stream of operations, each a read with probability
//! `read_fraction`. Reads hold shared access for `read_hold` cycles; writes
//! hold exclusive access for `write_hold` and increment a counter
//! (non-atomically, as the usual mutual-exclusion witness). The same stream
//! is also run under a plain [`QsmLock`] mutex for comparison — the rwlock
//! should win exactly in proportion to the read fraction.

use kernels::locks::qsm::QsmLock;
use kernels::locks::LockKernel;
use kernels::rwlock::RwKernel;
use kernels::{Region, SyncCtx};
use memsim::{Machine, SimError};
use simcore::Rng;

/// Parameters of the reader/writer trial.
#[derive(Debug, Clone, Copy)]
pub struct RwConfig {
    /// Processors.
    pub nprocs: usize,
    /// Operations per processor.
    pub iters: usize,
    /// Probability an operation is a read.
    pub read_fraction: f64,
    /// Cycles held in shared mode.
    pub read_hold: u64,
    /// Cycles held in exclusive mode.
    pub write_hold: u64,
    /// Seed for the per-processor op streams.
    pub seed: u64,
}

/// Result of one trial.
#[derive(Debug, Clone, Copy)]
pub struct RwResult {
    /// Total elapsed cycles.
    pub total_cycles: u64,
    /// Operations per kilocycle.
    pub throughput: f64,
    /// Writes performed (counter-verified).
    pub writes: u64,
}

/// Pre-draws each processor's operation kinds so the rwlock and mutex runs
/// see the *identical* operation stream.
fn op_streams(cfg: &RwConfig) -> Vec<Vec<bool>> {
    (0..cfg.nprocs)
        .map(|pid| {
            let mut rng = Rng::new(cfg.seed ^ (pid as u64).wrapping_mul(0x9E37_79B9));
            (0..cfg.iters)
                .map(|_| rng.chance(cfg.read_fraction))
                .collect()
        })
        .collect()
}

/// Runs the mix under the reader-writer kernel.
pub fn run_rwlock(machine: &Machine, cfg: &RwConfig) -> Result<RwResult, SimError> {
    let line_words = machine.params().line_words;
    let region = Region::new(0, line_words, RwKernel.lines_needed(cfg.nprocs));
    let scratch = Region::new(region.end(), line_words, 1);
    let memory = vec![0; region.words() + scratch.words()];
    let counter = scratch.slot(0);
    let streams = op_streams(cfg);
    let expected_writes: u64 = streams
        .iter()
        .flatten()
        .filter(|&&is_read| !is_read)
        .count() as u64;
    let report = machine.run_with_init(cfg.nprocs, memory, |p| {
        let mut ps = RwKernel.proc_init(p.pid(), &region);
        for &is_read in &streams[p.pid()] {
            if is_read {
                RwKernel.read_acquire(p, &region);
                SyncCtx::delay(p, cfg.read_hold);
                RwKernel.read_release(p, &region);
            } else {
                let tok = RwKernel.write_acquire(p, &region, &mut ps);
                let v = SyncCtx::load(p, counter);
                SyncCtx::delay(p, cfg.write_hold);
                SyncCtx::store(p, counter, v + 1);
                RwKernel.write_release(p, &region, &mut ps, tok);
            }
        }
    })?;
    assert_eq!(
        report.memory[counter], expected_writes,
        "rwlock lost writes"
    );
    Ok(summarize(cfg, report.metrics.total_cycles, expected_writes))
}

/// Runs the identical mix with every operation exclusive (plain QSM mutex).
pub fn run_mutex(machine: &Machine, cfg: &RwConfig) -> Result<RwResult, SimError> {
    let line_words = machine.params().line_words;
    let lock = QsmLock::spin();
    let (fix, memory) = kernels::locks::fixture(&lock, cfg.nprocs, line_words, 1);
    let counter = fix.scratch.slot(0);
    let streams = op_streams(cfg);
    let expected_writes: u64 = streams
        .iter()
        .flatten()
        .filter(|&&is_read| !is_read)
        .count() as u64;
    let report = machine.run_with_init(cfg.nprocs, memory, |p| {
        let mut ps = lock.proc_init(p.pid(), &fix.region);
        for &is_read in &streams[p.pid()] {
            let tok = lock.acquire(p, &fix.region, &mut ps);
            if is_read {
                SyncCtx::delay(p, cfg.read_hold);
            } else {
                let v = SyncCtx::load(p, counter);
                SyncCtx::delay(p, cfg.write_hold);
                SyncCtx::store(p, counter, v + 1);
            }
            lock.release(p, &fix.region, &mut ps, tok);
        }
    })?;
    assert_eq!(report.memory[counter], expected_writes, "mutex lost writes");
    Ok(summarize(cfg, report.metrics.total_cycles, expected_writes))
}

fn summarize(cfg: &RwConfig, total_cycles: u64, writes: u64) -> RwResult {
    let ops = (cfg.nprocs * cfg.iters) as f64;
    RwResult {
        total_cycles,
        throughput: ops * 1000.0 / total_cycles as f64,
        writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::MachineParams;

    fn cfg(read_fraction: f64) -> RwConfig {
        RwConfig {
            nprocs: 8,
            iters: 12,
            read_fraction,
            // Reads must be long relative to the coherence ops on the
            // shared status word, or reader-counter churn dominates (the
            // classic "reader locks don't pay for short sections" effect).
            read_hold: 400,
            write_hold: 60,
            seed: 0xABCD,
        }
    }

    #[test]
    fn write_totals_match_between_runs() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let a = run_rwlock(&machine, &cfg(0.5)).unwrap();
        let b = run_mutex(&machine, &cfg(0.5)).unwrap();
        assert_eq!(a.writes, b.writes, "identical streams must agree");
    }

    #[test]
    fn read_heavy_mix_favours_rwlock() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let rw = run_rwlock(&machine, &cfg(0.95)).unwrap();
        let mx = run_mutex(&machine, &cfg(0.95)).unwrap();
        assert!(
            rw.throughput > 1.3 * mx.throughput,
            "rwlock {:.2} vs mutex {:.2} at 95% reads",
            rw.throughput,
            mx.throughput
        );
    }

    #[test]
    fn write_only_mix_is_not_better_than_mutex() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let rw = run_rwlock(&machine, &cfg(0.0)).unwrap();
        let mx = run_mutex(&machine, &cfg(0.0)).unwrap();
        assert!(
            rw.throughput <= mx.throughput * 1.1,
            "all-writes rwlock {:.2} should not beat mutex {:.2}",
            rw.throughput,
            mx.throughput
        );
    }

    #[test]
    fn deterministic() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let c = RwConfig {
            nprocs: 6,
            ..cfg(0.7)
        };
        let a = run_rwlock(&machine, &c).unwrap();
        let b = run_rwlock(&machine, &c).unwrap();
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}
