//! **Blocking QSM** — the queue lock of [`super::qsm`] with a
//! spin-then-park wait path.
//!
//! Queue discipline, layout, and the grant eventcount are identical to
//! [`QsmLock`]; only the wait differs. A queued waiter probes its grant word
//! a bounded number of times and then parks on it with
//! [`SyncCtx::wait`](crate::SyncCtx::wait), recording the grant value it expects to change.
//! Release advances the successor's eventcount *first* and wakes *second* —
//! with the futex's atomic compare-and-block, that ordering makes a lost
//! wakeup impossible in either direction: park-then-advance is caught by the
//! wake, advance-then-park is caught by the compare.
//!
//! The spin budget is adaptive (configurable): it doubles when a wait was
//! satisfied while still spinning — the lock is passing quickly, parking
//! would only add wake latency — and halves when the waiter had to park,
//! which is the classic spin-then-park policy. A budget of zero is the
//! always-park extreme used as `fig9`'s third curve.
//!
//! On a dedicated machine (one core per processor) this lock is strictly
//! slower than [`QsmLock`] — the park/wake round trip buys nothing when the
//! spinner's core has no other work. Its reason to exist is oversubscription
//! (`fig9`): with more threads than cores, a parked waiter yields its core
//! to the lock holder while a spinning waiter burns whole quanta.

use super::{qsm::QsmLock, LockKernel};
use crate::layout::Region;
use crate::ProcCtx;
use crate::Word;

/// Bounds for the adaptive spin budget, in probes.
const MIN_BUDGET: u32 = 2;
const MAX_BUDGET: u32 = 64;

/// QSM with a spin-then-park wait. Same shared layout as [`QsmLock`].
#[derive(Debug, Clone, Copy)]
pub struct QsmBlockingLock {
    /// Initial probe budget before parking; 0 parks immediately.
    pub spin_probes: u32,
    /// Local delay between probes, in cycles.
    pub probe_gap: u64,
    /// Whether the budget adapts (doubles on spin-success, halves on park).
    pub adaptive: bool,
}

impl QsmBlockingLock {
    /// The spin-then-park policy: a modest adaptive budget.
    pub fn spin_then_park() -> Self {
        QsmBlockingLock {
            spin_probes: 16,
            probe_gap: 8,
            adaptive: true,
        }
    }

    /// The always-park extreme: no probes, straight to the futex.
    pub fn always_park() -> Self {
        QsmBlockingLock {
            spin_probes: 0,
            probe_gap: 8,
            adaptive: false,
        }
    }
}

/// The persistent state packs the grant count (low 32 bits, exact — one
/// increment per contended acquisition, bounding a processor to 2^32 of
/// them per run, far beyond any simulation) and the current spin budget
/// (high 32 bits).
fn unpack(ps: u64) -> (u32, u32) {
    (ps as u32, (ps >> 32) as u32)
}

fn pack(count: u32, budget: u32) -> u64 {
    (count as u64) | ((budget as u64) << 32)
}

impl LockKernel for QsmBlockingLock {
    fn name(&self) -> &'static str {
        if self.spin_probes == 0 {
            "qsm-block-park"
        } else {
            "qsm-block"
        }
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        QsmLock.lines_needed(nprocs)
    }

    fn proc_init(&self, _pid: usize, _region: &Region) -> u64 {
        pack(0, self.spin_probes)
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        let me = ctx.pid() as u64 + 1;
        ctx.store(QsmLock::next(region, me), 0);
        if ctx.cas(QsmLock::tail(region), 0, me).is_ok() {
            return 0;
        }
        let prev = ctx.swap(QsmLock::tail(region), me);
        if prev == 0 {
            return 0;
        }
        ctx.store(QsmLock::next(region, prev), me);
        let (count, mut budget) = unpack(*ps);
        let grant = QsmLock::grant(region, me);
        let mut probes = 0u32;
        let mut parked = false;
        // Wait for the eventcount to move past the recorded value: probe up
        // to `budget` times, then park. The futex returns on any wake (or
        // immediately if the count already moved), so re-check in a loop.
        while ctx.load(grant) == count as Word {
            if probes < budget {
                probes += 1;
                ctx.delay(self.probe_gap);
            } else {
                parked = true;
                ctx.wait(grant, count as Word, None);
            }
        }
        if self.adaptive {
            budget = if parked {
                (budget / 2).max(MIN_BUDGET)
            } else {
                budget.saturating_mul(2).clamp(MIN_BUDGET, MAX_BUDGET)
            };
        }
        *ps = pack(count + 1, budget);
        0
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, _token: u64) {
        let me = ctx.pid() as u64 + 1;
        let mut succ = ctx.load(QsmLock::next(region, me));
        if succ == 0 {
            if ctx.cas(QsmLock::tail(region), me, 0).is_ok() {
                return;
            }
            succ = ctx.spin_while(QsmLock::next(region, me), 0);
        }
        let grant = QsmLock::grant(region, succ);
        // Advance first, wake second (see module docs: this order is what
        // rules the lost wakeup out).
        ctx.fetch_add(grant, 1);
        ctx.wake(grant, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::testutil::SeqCtx;
    use memsim::{Machine, MachineParams, SchedParams};

    #[test]
    fn state_packing_round_trips() {
        for (count, budget) in [(0, 0), (1, 16), (u32::MAX, MAX_BUDGET)] {
            assert_eq!(unpack(pack(count, budget)), (count, budget));
        }
    }

    #[test]
    fn fast_path_matches_qsm() {
        let lock = QsmBlockingLock::spin_then_park();
        let region = Region::new(0, 8, lock.lines_needed(1));
        let mut ctx = SeqCtx::new(1, region.words());
        let mut ps = lock.proc_init(0, &region);
        let tok = lock.acquire(&mut ctx, &region, &mut ps);
        assert_eq!(ctx.mem[QsmLock::tail(&region)], 1);
        lock.release(&mut ctx, &region, &mut ps, tok);
        assert_eq!(ctx.mem[QsmLock::tail(&region)], 0);
        assert_eq!(unpack(ps).0, 0, "fast path must not consume a grant");
    }

    #[test]
    fn mutual_exclusion_on_dedicated_machine() {
        for lock in [
            QsmBlockingLock::spin_then_park(),
            QsmBlockingLock::always_park(),
        ] {
            let machine = Machine::new(MachineParams::bus_1991(6));
            let (count, report) = counter_trial(&machine, &lock, 6, 10, 25).unwrap();
            assert_eq!(count, 60, "{} violated mutual exclusion", lock.name());
            if lock.spin_probes == 0 {
                // Always-park must actually have parked under contention.
                assert!(report.metrics.futex_parks() > 0);
            }
        }
    }

    #[test]
    fn mutual_exclusion_oversubscribed() {
        // Four threads per core: the regime this lock exists for.
        let mut params = MachineParams::bus_1991(8);
        params.sched = Some(SchedParams::oversub_1991(2));
        params.max_cycles = 100_000_000;
        for lock in [
            QsmBlockingLock::spin_then_park(),
            QsmBlockingLock::always_park(),
        ] {
            let machine = Machine::new(params.clone());
            let (count, report) = counter_trial(&machine, &lock, 8, 8, 25).unwrap();
            assert_eq!(count, 64, "{} violated mutual exclusion", lock.name());
            assert!(report.metrics.futex_parks() > 0, "{} never parked", lock.name());
        }
    }
}
