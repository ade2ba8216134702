//! **QSM — the Queueing Synchronization Mechanism**, the paper's
//! reconstructed contribution.
//!
//! One word-based synchronization variable (the tail `Q`) plus a per-processor
//! node whose second word is a **grant sequence number** — a monotonically
//! increasing eventcount rather than a boolean flag. Three properties
//! distinguish it from the MCS lock it otherwise resembles:
//!
//! 1. **Uncontended fast path**: acquire is a single `cas(Q, 0, me)` and
//!    release a single `cas(Q, me, 0)`; no node fields are written remotely.
//! 2. **Grant words are eventcounts**: a hand-off is `fetch_add(grant, 1)`.
//!    Because the value only ever advances, the same word supports the
//!    `await`/`advance` condition-synchronization service (the
//!    eventcount of `service::protocol`) and the combining barrier
//!    ([`crate::barriers::qsm_tree`], whose climb is
//!    [`protocol::qsm_tree_arrive`] over a [`protocol::QsmTree`]) with no
//!    extra state — the "unified mechanism" claim of the title.
//! 3. **Lost-wakeup freedom by arithmetic**: a waiter records its grant
//!    value *before* publishing itself; any later increment — even one that
//!    lands before the waiter starts spinning — leaves the word permanently
//!    different from the recorded value, so the boolean-flag reset races of
//!    flag-based queue locks cannot occur.
//!
//! Traffic per contended hand-off is O(1) and all spinning is local,
//! matching MCS asymptotically; fig1–fig3 show the two curves riding
//! together at the bottom of every plot.
//!
//! The queue is `service::protocol`'s ([`protocol::qsm_lock`],
//! [`protocol::qsm_unlock`]), the one `qsm::Qsm` ships and the checker
//! runs, laid out one node per processor, with one of three waits:
//!
//! * `qsm` — the paper's: spin on the grant word; a hand-off never wakes;
//! * `qsm-block` — probe the grant a budgeted number of times, then park on
//!   it ([`crate::SyncCtx::wait`]); a hand-off wakes after it advances. The
//!   budget doubles when a wait ended while probing and halves when it
//!   parked;
//! * `qsm-block-park` — park at once: `fig9`'s third curve.
//!
//! On a dedicated machine parking only adds the park/wake round trip; it
//! pays under oversubscription (`fig9`), where a parked waiter yields its
//! core to the holder while a spinner burns whole quanta.

use super::LockKernel;
use crate::layout::Region;
use crate::{Addr, ProcCtx};
use service::protocol::{self, QsmQueue};

/// How a queued waiter waits for its grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    Spin,
    SpinThenPark,
    Park,
}

/// `qsm-block`'s first probe budget and its adaptive bounds, in probes.
const INITIAL_BUDGET: u32 = 16;
const MIN_BUDGET: u32 = 2;
const MAX_BUDGET: u32 = 64;
/// Local delay between probes, in cycles.
const PROBE_GAP: u64 = 8;

/// The QSM lock. Lines: tail `Q` + one node per processor
/// (word 0 = `next`, word 1 = `grant` eventcount).
///
/// Node ids are `pid + 1`; 0 is nil/free.
#[derive(Debug, Clone, Copy)]
pub struct QsmLock {
    wait: Wait,
}

impl QsmLock {
    /// The paper's lock (`qsm`): waiters spin on their grant word.
    pub const fn spin() -> Self {
        QsmLock { wait: Wait::Spin }
    }

    /// `qsm-block`: a modest adaptive probe budget, then park.
    pub const fn spin_then_park() -> Self {
        QsmLock {
            wait: Wait::SpinThenPark,
        }
    }

    /// `qsm-block-park`: no probes, straight to the futex.
    pub const fn always_park() -> Self {
        QsmLock { wait: Wait::Park }
    }

    /// The queue as processor `pid` sees it, with its persistent state.
    pub fn queue<'a, C: ProcCtx + ?Sized>(
        &self,
        pid: usize,
        region: &'a Region,
        ps: &'a mut u64,
    ) -> impl QsmQueue<Addr, C> + 'a {
        Queue {
            wait: self.wait,
            region,
            me: pid as u64 + 1,
            ps,
        }
    }
}

/// The persistent state packs the grant count (low 32 bits, exact — one
/// increment per contended acquisition, bounding a processor to 2^32 of
/// them per run, far beyond any simulation) and the current probe budget
/// (high 32 bits).
fn unpack(ps: u64) -> (u32, u32) {
    (ps as u32, (ps >> 32) as u32)
}

fn pack(count: u32, budget: u32) -> u64 {
    (count as u64) | ((budget as u64) << 32)
}

/// One processor's view of the queue.
struct Queue<'a> {
    wait: Wait,
    region: &'a Region,
    me: u64,
    ps: &'a mut u64,
}

impl<C: ProcCtx + ?Sized> QsmQueue<Addr, C> for Queue<'_> {
    fn tail(&self) -> Addr {
        self.region.slot(0)
    }
    fn next(&self, node: u64) -> Addr {
        self.region.slot_word(node as usize, 0)
    }
    fn grant(&self, node: u64) -> Addr {
        self.region.slot_word(node as usize, 1)
    }
    /// This processor's node, its link cleared first: it may hold a stale
    /// successor from an earlier round, and release reads it on every
    /// path. A hit in our own cache line. The recorded grant is exact: the
    /// word is advanced once per wait.
    fn node(&mut self, c: &mut C) -> (u64, u64) {
        c.store(self.region.slot_word(self.me as usize, 0), 0);
        (self.me, unpack(*self.ps).0 as u64)
    }
    fn await_grant(&mut self, c: &mut C, grant: Addr, recorded: u64) {
        let (count, mut budget) = unpack(*self.ps);
        if self.wait == Wait::Spin {
            c.spin_while(grant, recorded);
        } else {
            // Probe up to `budget` times, then park; a wake says nothing
            // about the word, so look again.
            let (mut probes, mut parked) = (0, false);
            while c.load(grant) == recorded {
                if probes < budget {
                    probes += 1;
                    c.delay(PROBE_GAP);
                } else {
                    parked = true;
                    c.wait(grant, recorded, None);
                }
            }
            if self.wait == Wait::SpinThenPark {
                budget = if parked {
                    (budget / 2).max(MIN_BUDGET)
                } else {
                    budget.saturating_mul(2).clamp(MIN_BUDGET, MAX_BUDGET)
                };
            }
        }
        *self.ps = pack(count + 1, budget);
    }
    fn await_link(&mut self, c: &mut C, next: Addr) -> u64 {
        c.spin_while(next, 0)
    }
    fn wakes(&self) -> bool {
        self.wait != Wait::Spin
    }
}

impl LockKernel for QsmLock {
    fn name(&self) -> &'static str {
        match self.wait {
            Wait::Spin => "qsm",
            Wait::SpinThenPark => "qsm-block",
            Wait::Park => "qsm-block-park",
        }
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        1 + nprocs
    }

    fn proc_init(&self, _pid: usize, _region: &Region) -> u64 {
        let budget = if self.wait == Wait::SpinThenPark {
            INITIAL_BUDGET
        } else {
            0
        };
        pack(0, budget)
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        protocol::qsm_lock(ctx, &mut self.queue(ctx.pid(), region, ps));
        0
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, _token: u64) {
        let pid = ctx.pid();
        protocol::qsm_unlock(ctx, &mut self.queue(pid, region, ps), pid as u64 + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::locks::mcs::McsLock;
    use crate::locks::tas::TasLock;
    use crate::testutil::SeqCtx;
    use crate::SyncCtx;
    use memsim::{Machine, MachineParams, SchedParams};

    const BLOCKING: [QsmLock; 2] = [QsmLock::spin_then_park(), QsmLock::always_park()];

    #[test]
    fn state_packing_round_trips() {
        for (count, budget) in [(0, 0), (1, 16), (u32::MAX, MAX_BUDGET)] {
            assert_eq!(unpack(pack(count, budget)), (count, budget));
        }
    }

    #[test]
    fn fast_path_is_two_cas_total() {
        for lock in [QsmLock::spin()].into_iter().chain(BLOCKING) {
            let region = Region::new(0, 8, lock.lines_needed(1));
            let mut ctx = SeqCtx::new(1, region.words());
            let mut ps = lock.proc_init(0, &region);
            let tok = lock.acquire(&mut ctx, &region, &mut ps);
            assert_eq!(ctx.mem[region.slot(0)], 1);
            lock.release(&mut ctx, &region, &mut ps, tok);
            assert_eq!(ctx.mem[region.slot(0)], 0);
            // Grant never moved on the fast path.
            assert_eq!(ctx.mem[region.slot_word(1, 1)], 0);
            assert_eq!(ps, lock.proc_init(0, &region), "{}", lock.name());
        }
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        for lock in [QsmLock::spin()].into_iter().chain(BLOCKING) {
            let machine = Machine::new(MachineParams::bus_1991(6));
            let (count, report) = counter_trial(&machine, &lock, 6, 10, 25).unwrap();
            assert_eq!(count, 60, "{} violated mutual exclusion", lock.name());
            if lock.wait == Wait::Park {
                // Always-park must actually have parked under contention.
                assert!(report.metrics.futex_parks() > 0);
            }
        }
    }

    #[test]
    fn mutual_exclusion_on_numa() {
        let machine = Machine::new(MachineParams::numa_1991(8));
        let (count, _) = counter_trial(&machine, &QsmLock::spin(), 8, 8, 20).unwrap();
        assert_eq!(count, 64);
    }

    #[test]
    fn mutual_exclusion_oversubscribed() {
        // Four threads per core: the regime the blocking waits exist for.
        let mut params = MachineParams::bus_1991(8);
        params.sched = Some(SchedParams::oversub_1991(2));
        params.max_cycles = 100_000_000;
        for lock in BLOCKING {
            let machine = Machine::new(params.clone());
            let (count, report) = counter_trial(&machine, &lock, 8, 8, 25).unwrap();
            assert_eq!(count, 64, "{} violated mutual exclusion", lock.name());
            let parks = report.metrics.futex_parks();
            assert!(parks > 0, "{} never parked", lock.name());
        }
    }

    #[test]
    fn grant_counts_match_contended_waits() {
        // Every contended acquisition advances exactly one grant word by one;
        // totals must balance (sum of grants == number of queued waits).
        let machine = Machine::new(MachineParams::bus_1991(4));
        let lock = QsmLock::spin();
        let (fix, memory) = crate::locks::fixture(&lock, 4, 8, 1);
        let report = machine
            .run_with_init(4, memory, |p| {
                let mut ps = lock.proc_init(p.pid(), &fix.region);
                for _ in 0..10 {
                    let tok = lock.acquire(p, &fix.region, &mut ps);
                    SyncCtx::delay(p, 30);
                    lock.release(p, &fix.region, &mut ps, tok);
                }
            })
            .unwrap();
        let total_grants: u64 = (1..=4)
            .map(|id| report.memory[fix.region.slot_word(id, 1)])
            .sum();
        let wakeups = report.metrics.wakeups();
        assert!(total_grants > 0, "contended run must take the queue path");
        assert!(
            total_grants >= wakeups,
            "grants {total_grants} must cover wakeups {wakeups}"
        );
    }

    #[test]
    fn traffic_is_flat_in_p_and_beats_tas() {
        let per_cs = |p: usize| {
            let machine = Machine::new(MachineParams::bus_1991(p));
            let (_, rep) = counter_trial(&machine, &QsmLock::spin(), p, 8, 60).unwrap();
            rep.metrics.interconnect_transactions as f64 / (p as f64 * 8.0)
        };
        let at4 = per_cs(4);
        let at16 = per_cs(16);
        assert!(at16 < at4 * 2.0, "qsm traffic/CS should be ~flat");

        let machine = Machine::new(MachineParams::bus_1991(12));
        let (_, qsm) = counter_trial(&machine, &QsmLock::spin(), 12, 6, 60).unwrap();
        let (_, tas) = counter_trial(&machine, &TasLock, 12, 6, 60).unwrap();
        assert!(qsm.metrics.interconnect_transactions * 2 < tas.metrics.interconnect_transactions);
    }

    #[test]
    fn tracks_mcs_within_constant_factor() {
        let machine = Machine::new(MachineParams::bus_1991(16));
        let (_, qsm) = counter_trial(&machine, &QsmLock::spin(), 16, 6, 60).unwrap();
        let (_, mcs) = counter_trial(&machine, &McsLock, 16, 6, 60).unwrap();
        let q = qsm.metrics.total_cycles as f64;
        let m = mcs.metrics.total_cycles as f64;
        assert!(
            q < m * 1.5 && m < q * 1.5,
            "qsm ({q}) and mcs ({m}) should ride together"
        );
    }
}
