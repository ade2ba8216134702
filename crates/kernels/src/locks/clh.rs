//! The CLH (Craig, Landin–Hagersten) implicit-queue lock.
//!
//! Queueing without an explicit `next` pointer: each arrival swaps its own
//! node into the tail and spins on the *predecessor's* node. On release a
//! processor clears its node and adopts the predecessor's node for its next
//! acquisition — the node "migrates", which is why the per-processor
//! persistent state is a node index rather than a fixed slot.

use super::LockKernel;
use crate::layout::Region;
use crate::ProcCtx;
use crate::{Addr, Word};

/// CLH queue lock. Lines: tail + `P + 1` nodes (one spare so every
/// processor always owns a free node).
///
/// Node value 1 = "holder or waiter pending", 0 = "released".
#[derive(Debug, Clone, Copy, Default)]
pub struct ClhLock;

impl ClhLock {
    /// Address of the tail word (a node index).
    pub fn tail(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of node `i` (`0..=P`).
    pub fn node(region: &Region, i: usize) -> Addr {
        region.slot(1 + i)
    }
}

impl LockKernel for ClhLock {
    fn name(&self) -> &'static str {
        "clh"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        2 + nprocs
    }

    fn init(&self, nprocs: usize, region: &Region) -> Vec<(Addr, Word)> {
        // The spare node (index P) starts released and is the initial tail,
        // so the first arrival sees a granted predecessor.
        vec![(Self::tail(region), nprocs as Word)]
    }

    /// Persistent state: the index of the node this processor currently owns.
    fn proc_init(&self, pid: usize, _region: &Region) -> u64 {
        pid as u64
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        let my_node = *ps;
        ctx.store(Self::node(region, my_node as usize), 1);
        let pred = ctx.swap(Self::tail(region), my_node);
        ctx.spin_until(Self::node(region, pred as usize), 0);
        // Token: the predecessor's node, which we adopt on release.
        pred
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, token: u64) {
        ctx.store(Self::node(region, *ps as usize), 0);
        *ps = token;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::testutil::SeqCtx;
    use memsim::{Machine, MachineParams};

    #[test]
    fn node_migrates_solo() {
        let lock = ClhLock;
        let region = Region::new(0, 8, lock.lines_needed(2));
        let mut ctx = SeqCtx::new(2, region.words());
        for (addr, val) in lock.init(2, &region) {
            ctx.mem[addr] = val;
        }
        let mut ps = lock.proc_init(0, &region);
        assert_eq!(ps, 0);
        let tok = lock.acquire(&mut ctx, &region, &mut ps);
        assert_eq!(tok, 2, "first predecessor is the spare node");
        lock.release(&mut ctx, &region, &mut ps, tok);
        assert_eq!(ps, 2, "released processor adopts the spare node");
        // Second round: enqueue with node 2, predecessor is node 0.
        let tok = lock.acquire(&mut ctx, &region, &mut ps);
        assert_eq!(tok, 0);
        lock.release(&mut ctx, &region, &mut ps, tok);
        assert_eq!(ps, 0);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &ClhLock, 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn one_swap_per_acquisition() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let (_, rep) = counter_trial(&machine, &ClhLock, 8, 8, 60).unwrap();
        assert_eq!(rep.metrics.rmws(), 64);
    }

    #[test]
    fn contended_handoffs_wake_single_waiters() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let (_, rep) = counter_trial(&machine, &ClhLock, 8, 8, 60).unwrap();
        assert!(rep.metrics.wakeups() > 0);
        assert!(rep.metrics.wakeups() <= 64);
    }
}
