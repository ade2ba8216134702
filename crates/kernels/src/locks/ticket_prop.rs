//! Ticket lock with proportional backoff.
//!
//! Instead of camping on `now_serving` with a cached spin, a waiter polls it
//! and sleeps for a time proportional to its distance from the head of the
//! queue. Far-away waiters barely touch the interconnect, and — unlike the
//! watchpoint ticket lock — there is no O(P) storm at each release because
//! most waiters' polls are spread out in time. The `factor` should
//! approximate the expected hand-off interval; fig7 sweeps it.

use super::LockKernel;
use crate::layout::Region;
use crate::Addr;
use crate::ProcCtx;

/// Ticket lock whose waiters poll with distance-proportional delays.
#[derive(Debug, Clone, Copy)]
pub struct TicketPropLock {
    /// Cycles of delay per position of queue distance.
    pub factor: u64,
}

impl Default for TicketPropLock {
    /// Tuned to roughly one critical-section hand-off on the 1991 bus
    /// machine (a transaction plus a short critical section).
    fn default() -> Self {
        TicketPropLock { factor: 60 }
    }
}

impl TicketPropLock {
    /// Address of the `next_ticket` dispenser.
    pub fn next_ticket(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of the `now_serving` display.
    pub fn now_serving(region: &Region) -> Addr {
        region.slot(1)
    }
}

impl LockKernel for TicketPropLock {
    fn name(&self) -> &'static str {
        "ticket-prop"
    }

    fn lines_needed(&self, _nprocs: usize) -> usize {
        2
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
        let ticket = ctx.fetch_add(Self::next_ticket(region), 1);
        loop {
            let serving = ctx.load(Self::now_serving(region));
            if serving == ticket {
                return ticket;
            }
            // Tickets are monotone, so this distance is well-defined.
            let distance = ticket.wrapping_sub(serving);
            ctx.delay(distance.saturating_mul(self.factor).max(1));
        }
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, token: u64) {
        ctx.store(Self::now_serving(region), token + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::locks::ticket::TicketLock;
    use memsim::{Machine, MachineParams};

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &TicketPropLock::default(), 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn polling_replaces_watchpoints() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (_, rep) = counter_trial(&machine, &TicketPropLock::default(), 6, 8, 50).unwrap();
        assert_eq!(rep.metrics.wakeups(), 0, "proportional ticket never parks");
    }

    #[test]
    fn fewer_release_storm_misses_than_plain_ticket() {
        let machine = Machine::new(MachineParams::bus_1991(12));
        let (_, plain) = counter_trial(&machine, &TicketLock, 12, 6, 80).unwrap();
        let (_, prop) = counter_trial(&machine, &TicketPropLock::default(), 12, 6, 80).unwrap();
        assert!(
            prop.metrics.misses() < plain.metrics.misses(),
            "proportional polling ({}) should miss less than storming ({})",
            prop.metrics.misses(),
            plain.metrics.misses()
        );
    }
}
