//! Test-and-test-and-set: spin on a cached copy, RMW only when free.
//!
//! Waiting processors spin in their own caches (zero interconnect traffic)
//! until the release invalidates the lock line. The cost moves to the
//! *release moment*: every waiter misses, re-reads, and races a test-and-set
//! — the classic O(P) "invalidation storm" per hand-off that still makes the
//! fig1 curve grow with P, just far more slowly than plain test-and-set.

use super::LockKernel;
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// Test-and-test-and-set lock. One word: 0 = free, 1 = held.
#[derive(Debug, Clone, Copy, Default)]
pub struct TtasLock;

impl TtasLock {
    /// Address of the lock word.
    pub fn lock_word(region: &Region) -> Addr {
        region.slot(0)
    }
}

impl LockKernel for TtasLock {
    fn name(&self) -> &'static str {
        "ttas"
    }

    fn lines_needed(&self, _nprocs: usize) -> usize {
        1
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
        let lock = Self::lock_word(region);
        loop {
            // Wait (cached) until the lock reads free...
            ctx.spin_while(lock, 1);
            // ...then race for it; on failure, go back to cached spinning.
            if !ctx.test_and_set(lock) {
                return 0;
            }
        }
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
        let (count, _) = counter_trial(&machine, &TtasLock, 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn spins_locally_while_held() {
        // While the lock is held, waiters must not issue RMWs — the RMW
        // count per critical section stays near one even under contention.
        let machine = Machine::new(MachineParams::bus_1991(8));
        let (_, rep) = counter_trial(&machine, &TtasLock, 8, 8, 100).unwrap();
        let cs = 64.0;
        let rmws_per_cs = rep.metrics.rmws() as f64 / cs;
        // Some storm-time RMW races are expected, but nothing like the
        // continuous probing of plain test-and-set.
        let (_, plain) = counter_trial(&machine, &TasLock, 8, 8, 100).unwrap();
        assert!(rmws_per_cs < plain.metrics.rmws() as f64 / cs / 2.0);
    }

    #[test]
    fn waiters_park_on_watchpoints() {
        let machine = Machine::new(MachineParams::bus_1991(4));
        let (_, rep) = counter_trial(&machine, &TtasLock, 4, 6, 80).unwrap();
        assert!(
            rep.metrics.wakeups() > 0,
            "contended ttas must actually use cached spinning"
        );
    }
}
