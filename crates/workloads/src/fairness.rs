//! Fairness measurement — table2's workload.
//!
//! All processors contend continuously until a global quota of critical
//! sections is consumed. The holder of each critical section writes its pid
//! into a log slot indexed by the acquisition number, so the *complete
//! service order* is recovered from memory afterwards. From it we compute
//! the statistics 1991 papers reported informally ("FIFO order", "processor
//! starvation observed") as numbers: per-processor counts, coefficient of
//! variation, Jain's index, and the longest denial run.

use kernels::locks::{fixture, LockKernel};
use kernels::SyncCtx;
use memsim::{Machine, SimError};
use simcore::RunningStats;

/// Parameters of a fairness trial.
#[derive(Debug, Clone, Copy)]
pub struct FairnessConfig {
    /// Processors contending.
    pub nprocs: usize,
    /// Total critical sections across all processors.
    pub total_cs: usize,
    /// Cycles held per critical section.
    pub hold: u64,
}

/// Results of a fairness trial.
#[derive(Debug, Clone)]
pub struct FairnessResult {
    /// Acquisitions per processor.
    pub counts: Vec<u64>,
    /// The full service order (pid per acquisition).
    pub order: Vec<usize>,
    /// Coefficient of variation of per-processor counts (0 = perfectly even).
    pub cv: f64,
    /// Jain's fairness index in `(0, 1]` (1 = perfectly even).
    pub jain: f64,
    /// Longest run of consecutive acquisitions during which some processor
    /// that wanted the lock did not get it (i.e. the longest denial any
    /// single processor suffered, in hand-offs).
    pub max_denial: u64,
}

/// Runs the fairness trial.
pub fn run(
    machine: &Machine,
    lock: &dyn LockKernel,
    cfg: &FairnessConfig,
) -> Result<FairnessResult, SimError> {
    let line_words = machine.params().line_words;
    // Scratch: 1 line for the ticket counter + enough lines for the log
    // (one word per acquisition, packed within lines).
    let log_lines = cfg.total_cs.div_ceil(line_words);
    let (fix, memory) = fixture(lock, cfg.nprocs, line_words, 1 + log_lines);
    let ticket = fix.scratch.slot(0);
    let log_base = fix.scratch.slot(1);
    let total = cfg.total_cs;
    let report = machine.run_with_init(cfg.nprocs, memory, |p| {
        let mut ps = lock.proc_init(p.pid(), &fix.region);
        loop {
            let token = lock.acquire(p, &fix.region, &mut ps);
            let n = SyncCtx::load(p, ticket);
            if n >= total as u64 {
                lock.release(p, &fix.region, &mut ps, token);
                return;
            }
            SyncCtx::store(p, ticket, n + 1);
            SyncCtx::store(p, log_base + n as usize, p.pid() as u64 + 1);
            if cfg.hold > 0 {
                SyncCtx::delay(p, cfg.hold);
            }
            lock.release(p, &fix.region, &mut ps, token);
        }
    })?;

    let order: Vec<usize> = (0..total)
        .map(|i| {
            let v = report.memory[log_base + i];
            assert!(v >= 1, "log slot {i} unwritten");
            (v - 1) as usize
        })
        .collect();
    let mut counts = vec![0u64; cfg.nprocs];
    for &pid in &order {
        counts[pid] += 1;
    }
    let mut stats = RunningStats::new();
    for &c in &counts {
        stats.push(c as f64);
    }
    let sum: f64 = counts.iter().map(|&c| c as f64).sum();
    let sumsq: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    let jain = if sumsq == 0.0 {
        1.0
    } else {
        sum * sum / (cfg.nprocs as f64 * sumsq)
    };
    Ok(FairnessResult {
        cv: stats.cv(),
        jain,
        max_denial: max_denial(&order, cfg.nprocs),
        counts,
        order,
    })
}

/// Longest stretch of hand-offs a continuously contending processor went
/// without service (measured between its consecutive appearances in the
/// order, and from the start/end for the edges).
pub(crate) fn max_denial(order: &[usize], nprocs: usize) -> u64 {
    let mut last_seen = vec![-1i64; nprocs];
    let mut worst = 0u64;
    for (i, &pid) in order.iter().enumerate() {
        let gap = (i as i64 - last_seen[pid] - 1) as u64;
        worst = worst.max(gap);
        last_seen[pid] = i as i64;
    }
    for (pid, &seen) in last_seen.iter().enumerate() {
        // A processor that appears at all but stops early is fine (it may
        // have finished); one that never appears was starved the whole run.
        if seen < 0 && !order.is_empty() {
            let _ = pid;
            worst = worst.max(order.len() as u64);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::locks::{qsm::QsmLock, tas::TasLock, ticket::TicketLock};
    use memsim::MachineParams;

    #[test]
    fn max_denial_arithmetic() {
        assert_eq!(max_denial(&[0, 1, 0, 1], 2), 1);
        assert_eq!(max_denial(&[0, 0, 0, 1], 2), 3);
        assert_eq!(max_denial(&[0, 0, 0, 0], 2), 4); // pid 1 starved entirely
        assert_eq!(max_denial(&[], 2), 0);
    }

    #[test]
    fn counts_and_order_are_consistent() {
        let machine = Machine::new(MachineParams::bus_1991(4));
        let cfg = FairnessConfig {
            nprocs: 4,
            total_cs: 40,
            hold: 10,
        };
        let r = run(&machine, &TicketLock, &cfg).unwrap();
        assert_eq!(r.order.len(), 40);
        assert_eq!(r.counts.iter().sum::<u64>(), 40);
        assert!(r.jain > 0.0 && r.jain <= 1.0 + 1e-12);
    }

    #[test]
    fn queue_locks_are_nearly_perfectly_fair() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let cfg = FairnessConfig {
            nprocs: 8,
            total_cs: 80,
            hold: 20,
        };
        let r = run(&machine, &QsmLock::spin(), &cfg).unwrap();
        assert!(r.jain > 0.95, "qsm jain {} too low", r.jain);
        assert!(
            r.max_denial <= 2 * 8,
            "qsm denial run {} too long",
            r.max_denial
        );
    }

    #[test]
    fn ticket_lock_is_fifo_fair() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let cfg = FairnessConfig {
            nprocs: 6,
            total_cs: 60,
            hold: 20,
        };
        let r = run(&machine, &TicketLock, &cfg).unwrap();
        assert!(r.cv < 0.2, "ticket cv {}", r.cv);
    }

    #[test]
    fn tas_is_less_fair_than_ticket_under_load() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let cfg = FairnessConfig {
            nprocs: 8,
            total_cs: 64,
            hold: 30,
        };
        let tas = run(&machine, &TasLock, &cfg).unwrap();
        let ticket = run(&machine, &TicketLock, &cfg).unwrap();
        assert!(
            tas.max_denial >= ticket.max_denial,
            "tas denial {} vs ticket {}",
            tas.max_denial,
            ticket.max_denial
        );
    }
}
