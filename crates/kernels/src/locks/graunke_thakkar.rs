//! The Graunke–Thakkar array lock.
//!
//! Contemporary with Anderson's lock and equally scalable: each processor
//! owns a permanent flag line; the tail word records *whose* flag the next
//! arrival must watch and the sense it had. Releasing is a single store to
//! one's own flag — the successor (and only the successor) notices. Entry
//! uses a `swap` rather than a fetch-and-add.

use super::LockKernel;
use crate::layout::Region;
use crate::ProcCtx;
use crate::{Addr, Word};

/// Graunke–Thakkar lock. Lines: tail + one flag per processor + a dummy
/// flag that lets the very first acquisition proceed.
///
/// The tail packs `(flag owner, sense)` as `owner * 2 + sense`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraunkeThakkarLock;

impl GraunkeThakkarLock {
    /// Address of the packed tail word.
    pub fn tail(region: &Region) -> Addr {
        region.slot(0)
    }

    /// Address of processor `pid`'s flag (`pid == nprocs` is the dummy).
    pub fn flag(region: &Region, pid: usize) -> Addr {
        region.slot(1 + pid)
    }

    fn pack(owner: u64, sense: u64) -> Word {
        owner * 2 + sense
    }

    fn unpack(word: Word) -> (u64, u64) {
        (word / 2, word % 2)
    }
}

impl LockKernel for GraunkeThakkarLock {
    fn name(&self) -> &'static str {
        "graunke-thakkar"
    }

    fn lines_needed(&self, nprocs: usize) -> usize {
        2 + nprocs
    }

    fn init(&self, nprocs: usize, region: &Region) -> Vec<(Addr, Word)> {
        // The dummy flag already differs from the sense recorded in the
        // tail, so the first arrival acquires immediately.
        vec![
            (Self::flag(region, nprocs), 1),
            (Self::tail(region), Self::pack(nprocs as u64, 0)),
        ]
    }

    /// Persistent state: the current sense of this processor's own flag.
    fn proc_init(&self, _pid: usize, _region: &Region) -> u64 {
        0
    }

    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        let me = ctx.pid() as u64;
        let old = ctx.swap(Self::tail(region), Self::pack(me, *ps));
        let (owner, sense) = Self::unpack(old);
        // Wait while the predecessor's flag still shows the sense it had
        // when it enqueued — it flips on release.
        ctx.spin_while(Self::flag(region, owner as usize), sense);
        0
    }

    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, _token: u64) {
        *ps ^= 1;
        ctx.store(Self::flag(region, ctx.pid()), *ps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::counter_trial;
    use crate::testutil::SeqCtx;
    use memsim::{Machine, MachineParams};

    #[test]
    fn pack_unpack_round_trip() {
        for owner in [0u64, 1, 5, 100] {
            for sense in [0u64, 1] {
                assert_eq!(
                    GraunkeThakkarLock::unpack(GraunkeThakkarLock::pack(owner, sense)),
                    (owner, sense)
                );
            }
        }
    }

    #[test]
    fn solo_reacquisition_flips_sense() {
        let lock = GraunkeThakkarLock;
        let region = Region::new(0, 8, lock.lines_needed(2));
        let mut ctx = SeqCtx::new(2, region.words());
        for (addr, val) in lock.init(2, &region) {
            ctx.mem[addr] = val;
        }
        let mut ps = lock.proc_init(0, &region);
        for round in 0..4u64 {
            let tok = lock.acquire(&mut ctx, &region, &mut ps);
            lock.release(&mut ctx, &region, &mut ps, tok);
            assert_eq!(ps, (round + 1) % 2);
        }
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let machine = Machine::new(MachineParams::bus_1991(6));
        let (count, _) = counter_trial(&machine, &GraunkeThakkarLock, 6, 10, 25).unwrap();
        assert_eq!(count, 60);
    }

    #[test]
    fn release_is_one_store() {
        let machine = Machine::new(MachineParams::bus_1991(8));
        let (_, rep) = counter_trial(&machine, &GraunkeThakkarLock, 8, 8, 60).unwrap();
        // One swap per acquisition; release adds stores, not RMWs.
        assert_eq!(rep.metrics.rmws(), 64);
    }
}
