//! Test-and-set with bounded exponential backoff.
//!
//! Anderson's observation: the test-and-set collapse is self-inflicted —
//! waiting processors flood the interconnect precisely when the system is
//! busiest. Doubling the delay after each failed probe (up to a cap) keeps
//! the probe rate roughly constant regardless of P. The backoff parameters
//! are fields so fig7's ablation can sweep them.

use super::LockKernel;
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// Test-and-set lock with bounded exponential backoff between probes.
#[derive(Debug, Clone, Copy)]
pub struct TasBackoffLock {
    /// Delay after the first failed probe, in cycles.
    pub base: u64,
    /// Maximum delay between probes, in cycles.
    pub cap: u64,
}

impl Default for TasBackoffLock {
    /// Base comparable to one bus transaction, cap two orders above — the
    /// conventional tuning for 20-cycle buses.
    fn default() -> Self {
        TasBackoffLock {
            base: 16,
            cap: 4096,
        }
    }
}

impl TasBackoffLock {
    /// Address of the lock word.
    pub fn lock_word(region: &Region) -> Addr {
        region.slot(0)
    }
}

impl LockKernel for TasBackoffLock {
    fn name(&self) -> &'static str {
        "tas-backoff"
    }

    fn lines_needed(&self, _nprocs: usize) -> usize {
        1
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
        let lock = Self::lock_word(region);
        let mut delay = self.base;
        while ctx.test_and_set(lock) {
            ctx.delay(delay);
            delay = (delay * 2).min(self.cap);
        }
        0
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, _token: u64) {
        ctx.store(Self::lock_word(region), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::locks::tas::TasLock;
    use memsim::{Machine, MachineParams};

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &TasBackoffLock::default(), 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn backoff_cuts_probe_traffic_versus_plain_tas() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let (_, plain) = counter_trial(&machine, &TasLock, 8, 8, 60).unwrap();
        let (_, backed) = counter_trial(&machine, &TasBackoffLock::default(), 8, 8, 60).unwrap();
        assert!(
            backed.metrics.rmws() * 2 < plain.metrics.rmws(),
            "backoff rmws {} should be well under plain rmws {}",
            backed.metrics.rmws(),
            plain.metrics.rmws()
        );
    }

    #[test]
    fn custom_parameters_are_used() {
        // A pathological zero-backoff configuration degenerates to plain
        // test-and-set traffic — the hinge fig7 sweeps.
        let machine = Machine::new(MachineParams::bus_1991(4));
        let eager = TasBackoffLock { base: 0, cap: 0 };
        let lazy = TasBackoffLock {
            base: 256,
            cap: 4096,
        };
        let (_, eager_rep) = counter_trial(&machine, &eager, 4, 8, 40).unwrap();
        let (_, lazy_rep) = counter_trial(&machine, &lazy, 4, 8, 40).unwrap();
        assert!(eager_rep.metrics.rmws() > lazy_rep.metrics.rmws());
    }
}
