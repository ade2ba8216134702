//! Anderson's array-based queue lock.
//!
//! The first lock in the study whose hand-off cost does **not** grow with P:
//! each waiter spins on its own array slot (its own cache line), and a
//! release writes exactly one remote slot — one invalidation, one re-read,
//! independent of the number of waiters. The price is O(P) space per lock
//! and a fetch-and-add on entry.

use super::LockKernel;
use crate::layout::Region;
use crate::ProcCtx;
use crate::{Addr, Word};

/// Anderson's array queue lock. Lines: one tail counter + `P` flag slots.
///
/// Slot value 1 = "has lock", 0 = "must wait". `flags[0]` starts at 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct AndersonLock;

impl AndersonLock {
    /// Address of the tail (next free slot index) counter.
    pub fn tail(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of flag slot `i`.
    pub fn flag(region: &Region, i: usize) -> Addr {
        region.slot(1 + i)
    }
}

impl LockKernel for AndersonLock {
    fn name(&self) -> &'static str {
        "anderson"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        1 + nprocs
    }

    fn init(&self, _nprocs: usize, region: &Region) -> Vec<(Addr, Word)> {
        vec![(Self::flag(region, 0), 1)]
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
        let p = ctx.nprocs() as u64;
        let slot = ctx.fetch_add(Self::tail(region), 1) % p;
        ctx.spin_until(Self::flag(region, slot as usize), 1);
        // Reset the slot for its next user (we are the sole writer now).
        ctx.store(Self::flag(region, slot as usize), 0);
        slot
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, token: u64) {
        let p = ctx.nprocs() as u64;
        let next = ((token + 1) % p) as usize;
        ctx.store(Self::flag(region, next), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::testutil::SeqCtx;
    use memsim::{Machine, MachineParams};

    #[test]
    fn slots_rotate_solo() {
        let lock = AndersonLock;
        let region = Region::new(0, 8, lock.lines_needed(3));
        let mut ctx = SeqCtx::new(3, region.words());
        for (addr, val) in lock.init(3, &region) {
            ctx.mem[addr] = val;
        }
        let mut ps = 0;
        for expected in [0u64, 1, 2, 0, 1] {
            let tok = lock.acquire(&mut ctx, &region, &mut ps);
            assert_eq!(tok, expected);
            lock.release(&mut ctx, &region, &mut ps, tok);
        }
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &AndersonLock, 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn handoff_wakes_exactly_one_waiter() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let (_, rep) = counter_trial(&machine, &AndersonLock, 8, 8, 60).unwrap();
        // Each contended hand-off releases one parked waiter; wakeups never
        // exceed total acquisitions.
        assert!(rep.metrics.wakeups() <= 64);
        assert!(rep.metrics.wakeups() > 0);
    }

    #[test]
    fn flags_live_on_distinct_lines() {
        let region = Region::new(0, 8, 5);
        let lines: Vec<usize> = (0..4).map(|i| AndersonLock::flag(&region, i) / 8).collect();
        let mut dedup = lines.clone();
        dedup.dedup();
        assert_eq!(lines.len(), dedup.len());
    }
}
