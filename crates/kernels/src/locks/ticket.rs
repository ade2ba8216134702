//! Ticket lock: FIFO hand-off via a dispenser and a display.
//!
//! `next_ticket` and `now_serving` live on **separate cache lines** so that
//! ticket draws do not invalidate the spinners. Waiters spin (cached) until
//! `now_serving` equals their ticket; each release still invalidates every
//! waiter's copy — an O(P) re-read storm per hand-off, like TTAS — but the
//! RMW race disappears and service order is strictly FIFO, which is why the
//! fairness table (table2) shows a coefficient of variation of zero.

use super::LockKernel;
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// Classic ticket lock. Two lines: the dispenser and the display.
#[derive(Debug, Clone, Copy, Default)]
pub struct TicketLock;

impl TicketLock {
    /// Address of the `next_ticket` dispenser.
    pub fn next_ticket(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of the `now_serving` display.
    pub fn now_serving(region: &Region) -> Addr {
        region.slot(1)
    }
}

impl LockKernel for TicketLock {
    fn name(&self) -> &'static str {
        "ticket"
    }

    fn lines_needed(&self, _nprocs: usize) -> usize {
        2
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
        let ticket = ctx.fetch_add(Self::next_ticket(region), 1);
        ctx.spin_until(Self::now_serving(region), ticket);
        ticket
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, token: u64) {
        // Only the holder writes the display, so a plain store suffices.
        ctx.store(Self::now_serving(region), token + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::testutil::SeqCtx;
    use memsim::{Machine, MachineParams};

    #[test]
    fn tickets_are_sequential_solo() {
        let lock = TicketLock;
        let region = Region::new(0, 8, lock.lines_needed(1));
        let mut ctx = SeqCtx::new(1, region.words());
        let mut ps = 0;
        for expected in 0..5u64 {
            let tok = lock.acquire(&mut ctx, &region, &mut ps);
            assert_eq!(tok, expected);
            lock.release(&mut ctx, &region, &mut ps, tok);
        }
        assert_eq!(ctx.mem[TicketLock::now_serving(&region)], 5);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &TicketLock, 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn exactly_one_rmw_per_acquisition() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let (_, rep) = counter_trial(&machine, &TicketLock, 8, 8, 60).unwrap();
        assert_eq!(
            rep.metrics.rmws(),
            64,
            "ticket issues exactly one fetch_add per acquisition"
        );
    }

    #[test]
    fn dispenser_and_display_on_distinct_lines() {
        let region = Region::new(0, 8, 2);
        assert_ne!(
            TicketLock::next_ticket(&region) / 8,
            TicketLock::now_serving(&region) / 8
        );
    }
}
