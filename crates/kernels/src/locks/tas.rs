//! Plain test-and-set spin lock — the baseline every 1991 paper starts from.
//!
//! Each acquisition attempt is an atomic `swap` on the single lock word. A
//! waiting processor retries immediately, so every probe is a full
//! interconnect transaction; with P contenders the bus/hot module saturates
//! and lock-passing time grows linearly in P. That collapse is the first
//! curve of fig1/fig2 and the motivation for everything else in the study.

use super::LockKernel;
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// Test-and-set lock. One word of shared state: 0 = free, 1 = held.
#[derive(Debug, Clone, Copy, Default)]
pub struct TasLock;

impl TasLock {
    /// Address of the lock word.
    pub fn lock_word(region: &Region) -> Addr {
        region.slot(0)
    }
}

impl LockKernel for TasLock {
    fn name(&self) -> &'static str {
        "tas"
    }

    fn lines_needed(&self, _nprocs: usize) -> usize {
        1
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
        let lock = Self::lock_word(region);
        while ctx.test_and_set(lock) {
            // Immediate retry: each probe is a fresh RMW transaction.
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
    use crate::testutil::SeqCtx;
    use memsim::{Machine, MachineParams};

    #[test]
    fn uncontended_sequence() {
        let lock = TasLock;
        let region = Region::new(0, 8, lock.lines_needed(1));
        let mut ctx = SeqCtx::new(1, region.words());
        let mut ps = 0;
        let tok = lock.acquire(&mut ctx, &region, &mut ps);
        assert_eq!(ctx.mem[TasLock::lock_word(&region)], 1);
        lock.release(&mut ctx, &region, &mut ps, tok);
        assert_eq!(ctx.mem[TasLock::lock_word(&region)], 0);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &TasLock, 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn waiting_probes_generate_rmw_traffic() {
        // The defining pathology: RMW count grows with contention because
        // every failed probe is an atomic transaction.
        let machine = Machine::new(MachineParams::bus_1991(4));
        let (_, contended) = counter_trial(&machine, &TasLock, 4, 10, 50).unwrap();
        let solo_machine = Machine::new(MachineParams::bus_1991(1));
        let (_, solo) = counter_trial(&solo_machine, &TasLock, 1, 10, 50).unwrap();
        let contended_rmws_per_cs = contended.metrics.rmws() as f64 / 40.0;
        let solo_rmws_per_cs = solo.metrics.rmws() as f64 / 10.0;
        assert!(
            contended_rmws_per_cs > 2.0 * solo_rmws_per_cs,
            "expected failed-probe RMW inflation: contended {contended_rmws_per_cs}, solo {solo_rmws_per_cs}"
        );
    }
}
