//! Mutual-exclusion kernels.
//!
//! One module per algorithm, all implementing [`LockKernel`]. The set covers
//! every mechanism a 1991 evaluation would compare against, plus the paper's
//! reconstructed contribution:
//!
//! | module | algorithm | shared traffic while waiting |
//! |---|---|---|
//! | [`tas`] | test-and-set | one RMW per probe (worst case) |
//! | [`tas_backoff`] | test-and-set + exponential backoff | throttled RMWs |
//! | [`ttas`] | test-and-test-and-set | cached spin, storm on release |
//! | [`ticket`] | ticket lock | cached spin on `now_serving` |
//! | [`ticket_prop`] | ticket + proportional backoff | periodic polls |
//! | [`anderson`] | Anderson's array-queue lock | local line only |
//! | [`graunke_thakkar`] | Graunke–Thakkar array lock | local line only |
//! | [`clh`] | CLH implicit-queue lock | predecessor's line only |
//! | [`mcs`] | MCS explicit-queue lock | own node only |
//! | [`qsm`] | **QSM — the reconstructed mechanism** | own grant word only |
//! | [`qsm`] (`qsm-block`, `qsm-block-park`) | QSM + spin-then-park or always-park futex wait | parks after a bounded spin, or at once |
//!
//! [`all_locks`] enumerates the paper's spin-lock study and is what the
//! fig1–fig8 sweeps iterate over; the blocking waits are wired into their own
//! oversubscription figures (`fig9`, `table4`) instead, because they answer a
//! different question (spin vs. block, not spin vs. spin).

pub mod anderson;
pub mod clh;
pub mod graunke_thakkar;
pub mod mcs;
pub mod qsm;
pub mod tas;
pub mod tas_backoff;
pub mod ticket;
pub mod ticket_prop;
pub mod ttas;

use crate::layout::Region;
use crate::{Addr, Word};
use crate::{LockEvent, ProcCtx, SyncCtx};
use memsim::{Machine, RunReport, SimError};

/// A mutual-exclusion algorithm expressed over [`ProcCtx`].
///
/// Per-processor *persistent* state (a CLH node pointer, a Graunke–Thakkar
/// sense) lives in a single `u64` owned by the caller and threaded through
/// `acquire`/`release`; per-acquisition state flows through the returned
/// token. Shared state lives in a [`Region`] laid out by [`fixture`].
pub trait LockKernel: Sync {
    /// Short identifier used in figures and tables.
    fn name(&self) -> &'static str;

    /// Cache lines of shared memory required for `nprocs` processors.
    fn lines_needed(&self, nprocs: usize) -> usize;

    /// Nonzero initial words, as `(address, value)` pairs within `region`.
    fn init(&self, nprocs: usize, region: &Region) -> Vec<(Addr, Word)> {
        let _ = (nprocs, region);
        Vec::new()
    }

    /// Initial value of the persistent per-processor state word.
    fn proc_init(&self, pid: usize, region: &Region) -> u64 {
        let _ = (pid, region);
        0
    }

    /// Acquires the lock; returns a token handed back to [`LockKernel::release`].
    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64;

    /// Releases the lock acquired with `token`.
    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, token: u64);
}

/// Shared ownership delegates: `Arc<L>` is itself a kernel, so wrappers
/// like [`InstrumentedLock`] compose with the registry's
/// `Arc<dyn LockKernel>` handles.
impl<L: LockKernel + Send + Sync + ?Sized> LockKernel for std::sync::Arc<L> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn lines_needed(&self, nprocs: usize) -> usize {
        (**self).lines_needed(nprocs)
    }
    fn init(&self, nprocs: usize, region: &Region) -> Vec<(Addr, Word)> {
        (**self).init(nprocs, region)
    }
    fn proc_init(&self, pid: usize, region: &Region) -> u64 {
        (**self).proc_init(pid, region)
    }
    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        (**self).acquire(ctx, region, ps)
    }
    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, token: u64) {
        (**self).release(ctx, region, ps, token)
    }
}

/// A [`LockKernel`] wrapper that reports its acquisition lifecycle through
/// [`ProcCtx::lock_event`] under a stable lock id, enabling bounded-bypass
/// accounting and event tracing on any substrate that listens.
#[derive(Debug, Clone)]
pub struct InstrumentedLock<L> {
    inner: L,
    id: usize,
}

impl<L: LockKernel> InstrumentedLock<L> {
    /// Wraps `inner` under lock id `id` (any caller-stable numbering).
    pub fn new(inner: L, id: usize) -> Self {
        InstrumentedLock { inner, id }
    }
}

impl<L: LockKernel> LockKernel for InstrumentedLock<L> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn lines_needed(&self, nprocs: usize) -> usize {
        self.inner.lines_needed(nprocs)
    }
    fn init(&self, nprocs: usize, region: &Region) -> Vec<(Addr, Word)> {
        self.inner.init(nprocs, region)
    }
    fn proc_init(&self, pid: usize, region: &Region) -> u64 {
        self.inner.proc_init(pid, region)
    }
    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64) -> u64 {
        ctx.lock_event(LockEvent::AcquireStart(self.id));
        let token = self.inner.acquire(ctx, region, ps);
        ctx.lock_event(LockEvent::Acquired(self.id));
        token
    }
    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, ps: &mut u64, token: u64) {
        self.inner.release(ctx, region, ps, token);
        ctx.lock_event(LockEvent::Released(self.id));
    }
}

/// Every lock in the study, in the order the figures list them.
pub fn all_locks() -> Vec<Box<dyn LockKernel + Send + Sync>> {
    vec![
        Box::new(tas::TasLock),
        Box::new(tas_backoff::TasBackoffLock::default()),
        Box::new(ttas::TtasLock),
        Box::new(ticket::TicketLock),
        Box::new(ticket_prop::TicketPropLock::default()),
        Box::new(anderson::AndersonLock),
        Box::new(graunke_thakkar::GraunkeThakkarLock),
        Box::new(clh::ClhLock),
        Box::new(mcs::McsLock),
        Box::new(qsm::QsmLock::spin()),
    ]
}

/// The blocking QSM waits, which sit outside [`all_locks`] because the
/// spin-lock figures would mislabel them: they answer the spin-vs-block
/// question (fig9/table4 and the differential/fuzz harnesses), not the
/// spin-vs-spin one.
pub fn blocking_locks() -> Vec<Box<dyn LockKernel + Send + Sync>> {
    vec![
        Box::new(qsm::QsmLock::spin_then_park()),
        Box::new(qsm::QsmLock::always_park()),
    ]
}

/// Looks a lock up by its [`LockKernel::name`], searching the spin-lock
/// study first and the blocking variants second.
pub fn lock_by_name(name: &str) -> Option<Box<dyn LockKernel + Send + Sync>> {
    all_locks()
        .into_iter()
        .chain(blocking_locks())
        .find(|l| l.name() == name)
}

/// Shared-memory plan for one lock trial: the lock's region plus a scratch
/// region for the workload (counters, logs).
#[derive(Debug, Clone, Copy)]
pub struct LockFixture {
    /// The lock's own variables.
    pub region: Region,
    /// Workload scratch lines (counter at `scratch.slot(0)`, etc.).
    pub scratch: Region,
}

/// Lays out a lock plus `scratch_lines` of workload scratch, returning the
/// fixture and the initialized memory image to hand to [`Machine::run_with_init`].
pub fn fixture(
    lock: &dyn LockKernel,
    nprocs: usize,
    line_words: usize,
    scratch_lines: usize,
) -> (LockFixture, Vec<Word>) {
    let lock_lines = lock.lines_needed(nprocs);
    let region = Region::new(0, line_words, lock_lines);
    let scratch = Region::new(region.end(), line_words, scratch_lines);
    let mut memory = vec![0; region.words() + scratch.words()];
    for (addr, val) in lock.init(nprocs, &region) {
        memory[addr] = val;
    }
    (LockFixture { region, scratch }, memory)
}

/// Runs the canonical mutual-exclusion smoke workload on a simulated
/// machine: each processor performs `iters` critical sections, each doing a
/// deliberately non-atomic read-modify-write of a shared counter (load,
/// `hold`-cycle delay, store). If mutual exclusion ever fails the final
/// counter will (with overwhelming likelihood, and deterministically for a
/// given machine) fall short of `nprocs * iters`.
///
/// Returns the run report; the counter lives at the fixture's first scratch
/// word and is also returned for convenience.
pub fn counter_trial(
    machine: &Machine,
    lock: &dyn LockKernel,
    nprocs: usize,
    iters: usize,
    hold: u64,
) -> Result<(Word, RunReport), SimError> {
    let line_words = machine.params().line_words;
    let (fix, memory) = fixture(lock, nprocs, line_words, 1);
    let counter = fix.scratch.slot(0);
    let report = machine.run_with_init(nprocs, memory, |p| {
        let mut ps = lock.proc_init(p.pid(), &fix.region);
        for _ in 0..iters {
            let token = lock.acquire(p, &fix.region, &mut ps);
            let v = SyncCtx::load(p, counter);
            if hold > 0 {
                SyncCtx::delay(p, hold);
            }
            SyncCtx::store(p, counter, v + 1);
            lock.release(p, &fix.region, &mut ps, token);
        }
    })?;
    Ok((report.memory[counter], report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::SeqCtx;
    use memsim::MachineParams;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let locks = all_locks();
        let names: Vec<&str> = locks.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            vec![
                "tas",
                "tas-backoff",
                "ttas",
                "ticket",
                "ticket-prop",
                "anderson",
                "graunke-thakkar",
                "clh",
                "mcs",
                "qsm"
            ]
        );
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn lock_by_name_round_trips() {
        for lock in all_locks().into_iter().chain(blocking_locks()) {
            let found = lock_by_name(lock.name()).expect("name must resolve");
            assert_eq!(found.name(), lock.name());
        }
        assert!(lock_by_name("nonexistent").is_none());
    }

    #[test]
    fn blocking_registry_resolves_but_stays_out_of_the_study() {
        let names: Vec<&str> = blocking_locks().iter().map(|l| l.name()).collect();
        assert_eq!(names, vec!["qsm-block", "qsm-block-park"]);
        let study: Vec<&str> = all_locks().iter().map(|l| l.name()).collect();
        for name in names {
            assert!(!study.contains(&name), "{name} leaked into all_locks");
            assert!(lock_by_name(name).is_some(), "{name} must resolve by name");
        }
    }

    #[test]
    fn fixture_applies_init_and_separates_scratch() {
        let lock = anderson::AndersonLock;
        let (fix, mem) = fixture(&lock, 4, 8, 2);
        // Anderson initializes its first flag slot to 1.
        assert_eq!(mem[fix.region.slot(1)], 1);
        // Scratch is beyond the lock region and zeroed.
        assert!(fix.scratch.slot(0) >= fix.region.end());
        assert_eq!(mem[fix.scratch.slot(0)], 0);
        assert_eq!(mem.len(), fix.region.words() + fix.scratch.words());
    }

    /// Every lock maintains mutual exclusion under contention on the bus
    /// machine — the cross-algorithm smoke test.
    #[test]
    fn all_locks_enforce_mutual_exclusion_bus() {
        for lock in all_locks() {
            let machine = Machine::new(MachineParams::bus_1991(4));
            let (count, _) = counter_trial(&machine, lock.as_ref(), 4, 12, 30)
                .unwrap_or_else(|e| panic!("{} failed: {e}", lock.name()));
            assert_eq!(count, 4 * 12, "{} violated mutual exclusion", lock.name());
        }
    }

    /// Same on the NUMA machine, whose timing interleaves differently.
    #[test]
    fn all_locks_enforce_mutual_exclusion_numa() {
        for lock in all_locks() {
            let machine = Machine::new(MachineParams::numa_1991(4));
            let (count, _) = counter_trial(&machine, lock.as_ref(), 4, 8, 15)
                .unwrap_or_else(|e| panic!("{} failed: {e}", lock.name()));
            assert_eq!(count, 4 * 8, "{} violated mutual exclusion", lock.name());
        }
    }

    /// A lock must also work when a single processor uses it repeatedly.
    #[test]
    fn all_locks_single_processor_reuse() {
        for lock in all_locks() {
            let machine = Machine::new(MachineParams::bus_1991(1));
            let (count, _) = counter_trial(&machine, lock.as_ref(), 1, 50, 0)
                .unwrap_or_else(|e| panic!("{} failed: {e}", lock.name()));
            assert_eq!(count, 50, "{} broke on repeated solo use", lock.name());
        }
    }

    #[test]
    fn instrumented_lock_delegates_and_emits() {
        let lock = InstrumentedLock::new(tas::TasLock, 7);
        let region = Region::new(0, 8, lock.lines_needed(1));
        let mut ctx = SeqCtx::new(1, region.words());
        let mut ps = 0;
        let token = lock.acquire(&mut ctx, &region, &mut ps);
        lock.release(&mut ctx, &region, &mut ps, token);
        assert_eq!(
            ctx.events,
            vec![
                LockEvent::AcquireStart(7),
                LockEvent::Acquired(7),
                LockEvent::Released(7)
            ]
        );
        assert_eq!(lock.name(), "tas");
    }
}
