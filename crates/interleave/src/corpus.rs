//! Checked-in corpus of fuzzer-shrunk counterexamples.
//!
//! The nightly fuzz job finds bugs the exhaustive explorer would need
//! hours for; [`crate::fuzz::shrink_schedule`] then reduces each failing
//! schedule to a few steps. This module turns those artifacts into
//! regressions: a **named registry** of the seeded-bug programs the fuzzer
//! runs against ([`corpus_program`]), a tiny **text format** for one
//! shrunk counterexample ([`CorpusEntry`]), and the **verdict classes**
//! ([`VerdictClass`], one per [`Failure`] kind plus `pass`) that entries
//! are checked against — first by replay (the schedule must still end in
//! the class, [`crate::ReplayEnd::failure`] judging the run with the
//! program's final-state check) and then by an exhaustive re-check (the
//! bug must still be reachable by search alone).
//! The files live in `tests/shrunk_corpus/` at the workspace root; the
//! loader test there runs the whole directory.
//!
//! The entry format is line-oriented, `#` comments allowed:
//!
//! ```text
//! # lost wakeup found by seed 1991, shrunk from 213 steps
//! program: wake-before-publish
//! schedule: 1,0,0,1
//! verdict: lost-wakeup
//! ```

use crate::explorer::{Failure, Verdict};
use crate::program::{ChkCtx, Program};
use kernels::locks::LockKernel;
use kernels::slots::SlotArray;
use kernels::{Addr, ProcCtx, Region, SyncCtx, Waited, Word};
use service::protocol::{self, QsmQueue, WaitingArray, CONTENDED, FREE, HELD};
use std::sync::Arc;

/// The class of a [`Failure`] ([`Failure::class`]), or `Pass` for none:
/// what a corpus entry pins, without the run-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictClass {
    /// No violation observed.
    Pass,
    /// Final-state check failed or an in-program assertion fired.
    Violation,
    /// Data race between unsynchronized accesses.
    Race,
    /// All threads stuck with at least one spinner.
    Deadlock,
    /// All stuck threads are futex-parked.
    LostWakeup,
    /// A waiter bypassed beyond the configured bound.
    Starvation,
}

impl VerdictClass {
    /// Classifies a search verdict.
    pub fn of(v: &Verdict) -> VerdictClass {
        v.failure().map_or(VerdictClass::Pass, Failure::class)
    }

    /// The stable on-disk name.
    pub fn name(self) -> &'static str {
        match self {
            VerdictClass::Pass => "pass",
            VerdictClass::Violation => "violation",
            VerdictClass::Race => "race",
            VerdictClass::Deadlock => "deadlock",
            VerdictClass::LostWakeup => "lost-wakeup",
            VerdictClass::Starvation => "starvation",
        }
    }

    /// Parses [`VerdictClass::name`] back.
    pub fn parse(s: &str) -> Result<VerdictClass, String> {
        match s {
            "pass" => Ok(VerdictClass::Pass),
            "violation" => Ok(VerdictClass::Violation),
            "race" => Ok(VerdictClass::Race),
            "deadlock" => Ok(VerdictClass::Deadlock),
            "lost-wakeup" => Ok(VerdictClass::LostWakeup),
            "starvation" => Ok(VerdictClass::Starvation),
            other => Err(format!(
                "unknown verdict class {other:?}; expected pass | violation | race | \
                 deadlock | lost-wakeup | starvation"
            )),
        }
    }
}

impl std::fmt::Display for VerdictClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One checked-in counterexample: a registry program, a (shrunk) schedule,
/// and the verdict class both replay and exhaustive re-check must hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Name resolvable by [`corpus_program`].
    pub program: String,
    /// The shrunk failing schedule.
    pub schedule: Vec<usize>,
    /// Expected violation class.
    pub verdict: VerdictClass,
}

impl CorpusEntry {
    /// Parses the text format described in the module docs.
    pub fn parse(text: &str) -> Result<CorpusEntry, String> {
        let mut program = None;
        let mut schedule = None;
        let mut verdict = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once(':').ok_or_else(|| {
                format!("line {}: expected `key: value`, got {line:?}", lineno + 1)
            })?;
            let value = value.trim();
            match key.trim() {
                "program" => program = Some(value.to_string()),
                // An empty schedule is legal: some bugs fire under the
                // default continuation policy with no forced prefix at
                // all, and shrinking is allowed to get there.
                "schedule" if value.is_empty() => schedule = Some(Vec::new()),
                "schedule" => {
                    let parsed: Result<Vec<usize>, _> =
                        value.split(',').map(|s| s.trim().parse()).collect();
                    schedule = Some(
                        parsed
                            .map_err(|_| format!("line {}: bad schedule {value:?}", lineno + 1))?,
                    );
                }
                "verdict" => verdict = Some(VerdictClass::parse(value)?),
                other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
            }
        }
        Ok(CorpusEntry {
            program: program.ok_or("missing `program:` line")?,
            schedule: schedule.ok_or("missing `schedule:` line")?,
            verdict: verdict.ok_or("missing `verdict:` line")?,
        })
    }

    /// Renders the entry back to its text format, with an optional leading
    /// `#` comment (provenance: seed, original length, replays spent).
    pub fn render(&self, comment: &str) -> String {
        let sched: Vec<String> = self.schedule.iter().map(|p| p.to_string()).collect();
        let mut out = String::new();
        for line in comment.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!("program: {}\n", self.program));
        out.push_str(&format!("schedule: {}\n", sched.join(",")));
        out.push_str(&format!("verdict: {}\n", self.verdict));
        out
    }
}

/// A seeded bug in a shipped protocol: one operation of [`Chk`] rewritten.
/// The service's code is the same in the fixed and the buggy program —
/// only the context it runs on lies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// A tagged wake wakes the word's oldest waiter, whatever its tag: the
    /// PR 8 semaphore bug (`waiting-array-wake-one-shared-slot`).
    TaggedWakeOne,
    /// A wake-all wakes one waiter (`eventcount-wake-one-two-targets`,
    /// `barrier-round-wake-one`).
    WakeOne,
    /// A wake wakes nobody, and takes no step
    /// (`eventcount-wrap-missed-wake-*`).
    NoWake,
    /// The first CAS after a park, if it takes the word FREE → CONTENDED,
    /// stores HELD (`spin-then-park-respin-held-*`).
    RespinHeld,
    /// The canceller's re-check under the abandoned set's lock reads the
    /// slot but keeps the "unpublished" of its check before the lock
    /// (`waiting-array-stale-cancel-recheck`).
    StaleRecheck,
    /// The barrier un-arrive's CAS — the one taking the word one lower —
    /// subtracts one from whatever the word holds by then, without
    /// re-reading the round (`barrier-blind-unarrive`).
    BlindUnarrive,
    /// A QSM hand-off's wake fires before the `fetch_add` of the grant it
    /// follows, and the wake in its place takes no step
    /// (`qsm-wake-before-advance-*`).
    WakeBeforeAdvance,
}

/// The checker's context as the service's protocols run on it: every
/// operation is [`ChkCtx`]'s — one schedule step, a spin one probe (its
/// further probes, more loads of the word, each repeat a placement the
/// explorer already tries for the one kept) — except the one `mutant`, when
/// set, rewrites.
pub struct Chk<'c> {
    ctx: &'c mut ChkCtx,
    mutant: Option<Mutant>,
    /// The last wait parked: [`Mutant::RespinHeld`]'s trigger.
    woken: bool,
}

impl<'c> Chk<'c> {
    /// `ctx` rewritten by `mutant`.
    pub fn new(ctx: &'c mut ChkCtx, mutant: Option<Mutant>) -> Self {
        Chk {
            ctx,
            mutant,
            woken: false,
        }
    }
}

impl SyncCtx for Chk<'_> {
    fn load(&mut self, w: Addr) -> Word {
        self.ctx.load(w)
    }
    fn store(&mut self, w: Addr, v: Word) {
        self.ctx.store(w, v);
    }
    fn swap(&mut self, w: Addr, v: Word) -> Word {
        self.ctx.swap(w, v)
    }
    fn cas(&mut self, w: Addr, expected: Word, mut new: Word) -> Result<Word, Word> {
        let after_park = std::mem::take(&mut self.woken);
        if after_park
            && self.mutant == Some(Mutant::RespinHeld)
            && (expected, new) == (FREE, CONTENDED)
        {
            new = HELD;
        }
        if self.mutant == Some(Mutant::BlindUnarrive) && new == expected.wrapping_sub(1) {
            return Ok(self.ctx.fetch_add(w, Word::MAX));
        }
        self.ctx.cas(w, expected, new)
    }
    fn fetch_add(&mut self, w: Addr, delta: Word) -> Word {
        if self.mutant == Some(Mutant::WakeBeforeAdvance) {
            self.ctx.wake(w, 1);
        }
        self.ctx.fetch_add(w, delta)
    }
    fn wait(&mut self, w: Addr, expected: Word, tag: Option<Word>) -> Waited {
        let waited = self.ctx.wait(w, expected, tag);
        self.woken = waited.parked;
        waited
    }
    fn wake(&mut self, w: Addr, n: usize) -> usize {
        match self.mutant {
            Some(Mutant::NoWake | Mutant::WakeBeforeAdvance) => 0,
            Some(Mutant::WakeOne) => self.ctx.wake(w, n.min(1)),
            _ => self.ctx.wake(w, n),
        }
    }
    fn wake_tagged(&mut self, pairs: &[(Addr, Word)]) -> usize {
        match self.mutant {
            Some(Mutant::TaggedWakeOne) => pairs.iter().map(|&(w, _)| self.ctx.wake(w, 1)).sum(),
            _ => self.ctx.wake_tagged(pairs),
        }
    }
}

/// The service mutex's slow path — `protocol::lock_contended` and
/// `protocol::unlock` — as a mutual-exclusion workload (lock word 0,
/// critical-section counter word 1): one critical section per thread, with
/// thread 0 **starting as the holder**. That is a symmetry reduction, not
/// a restriction: the first CAS to execute on a free word always
/// succeeds, so every execution begins with some thread holding HELD
/// before any other has taken a step. Naming that thread 0 divides the
/// search by `nthreads` and drops its acquire steps. The contenders start
/// in `lock_contended`: `protocol::lock`'s one fast-path CAS would repeat
/// the first probe of its spin.
///
/// The seeded bug ([`Mutant::RespinHeld`]) is the tempting one: let the
/// post-wake spin acquire as HELD, like the first spin does. The woken
/// waiter cannot know whether others are still parked behind it, and only
/// a CONTENDED release wakes them — a second parked waiter is stranded.
pub fn spin_then_park_program(nthreads: usize, fixed: bool) -> Program {
    assert!(nthreads >= 2, "need the holder and at least one contender");
    const WORD: Addr = 0;
    const COUNTER: Addr = 1;
    let mutant = (!fixed).then_some(Mutant::RespinHeld);
    Program::new(nthreads, 2, move |ctx| {
        if ctx.pid() != 0 {
            protocol::lock_contended(&mut Chk::new(ctx, mutant), WORD);
        }
        let c = ctx.data_load(COUNTER);
        ctx.data_store(COUNTER, c + 1);
        protocol::unlock(&mut Chk::new(ctx, mutant), WORD);
    })
    .with_init(vec![(WORD, HELD)])
}

/// `protocol::advance` across the `u64` wrap (the count starts at
/// `u64::MAX`) against awaiters of `protocol::await_at_least(0)`, i.e.
/// MAX + 1: they compare by **signed distance**, so the wrapped target
/// still reads as reached. The broken variant's advance wakes nobody
/// ([`Mutant::NoWake`]) — the missed-advance bug at the worst possible
/// count.
pub fn eventcount_wrap_program(nthreads: usize, fixed: bool) -> Program {
    assert!(nthreads >= 2, "need at least one awaiter and the advancer");
    let mutant = (!fixed).then_some(Mutant::NoWake);
    Program::new(nthreads, 1, move |ctx| {
        let advancer = ctx.pid() == ctx.nprocs() - 1;
        let c = &mut Chk::new(ctx, mutant);
        if advancer {
            protocol::advance(c, 0);
        } else {
            protocol::await_at_least(c, 0, 0);
        }
    })
    .with_init(vec![(0, u64::MAX)])
}

/// One eventcount whose awaiters want **different counts**: awaiter `k`
/// runs `await_at_least(k + 1)` and the last thread advances once per
/// awaiter. This is why `protocol::advance` wakes every waiter of the word
/// and not one: the queue is ordered by arrival, not by target. The seeded
/// bug ([`Mutant::WakeOne`]) wakes the oldest waiter only — when that is an
/// awaiter whose target is still ahead it swallows the wake meant for the
/// one the advance satisfied and parks again, and one of the two sleeps on
/// a count that has passed its target.
pub fn eventcount_staggered_targets_program(nthreads: usize, wake_all: bool) -> Program {
    assert!(nthreads >= 3, "need two targets and the advancer");
    let mutant = (!wake_all).then_some(Mutant::WakeOne);
    Program::new(nthreads, 1, move |ctx| {
        let (me, awaiters) = (ctx.pid(), ctx.nprocs() - 1);
        let c = &mut Chk::new(ctx, mutant);
        if me < awaiters {
            protocol::await_at_least(c, 0, me as Word + 1);
        } else {
            for _ in 0..awaiters {
                protocol::advance(c, 0);
            }
        }
    })
}

/// `parties` threads meet once at the barrier on word 0:
/// `protocol::barrier_arrive`, then `protocol::barrier_wait` for all but
/// the last arrival — with thread 0 **already arrived**, the symmetry
/// reduction of [`spin_then_park_program`]: some arrival's CAS is the
/// first to land, and every other thread's steps before it are loads that
/// its CAS turns stale. The seeded bug ([`Mutant::WakeOne`]) completes the
/// round with a wake-one, and one of the parties that parked sleeps
/// through it.
pub fn barrier_program(parties: usize, fixed: bool) -> Program {
    assert!(parties >= 2, "a barrier nobody waits at checks nothing");
    let mutant = (!fixed).then_some(Mutant::WakeOne);
    Program::new(parties, 1, move |ctx| {
        let first = ctx.pid() == 0;
        let c = &mut Chk::new(ctx, mutant);
        if first {
            protocol::barrier_wait(c, 0, 0);
        } else if let Some(round) = protocol::barrier_arrive(c, 0, parties as u32) {
            protocol::barrier_wait(c, 0, round);
        }
    })
    .with_init(vec![(0, 1)])
}

/// A cancelled party's un-arrive (`protocol::barrier_unarrive`, what
/// dropping a waiting `BarrierFuture` runs) at a two-party barrier on word
/// 0: thread 0 arrives, un-arrives while the round may still be open, and
/// arrives again; thread 1 arrives once. If thread 1 completes the round
/// first, the un-arrive finds the round moved on and thread 0 has crossed;
/// either way one round completes with no arrival left over. The seeded
/// bug ([`Mutant::BlindUnarrive`]) decrements without re-reading the round:
/// landing after the round completed, it takes an arrival nobody made from
/// the next one, and the re-arrival finds the count wrapped.
pub fn barrier_unarrive_program(fixed: bool) -> Program {
    let mutant = (!fixed).then_some(Mutant::BlindUnarrive);
    Program::new(2, 1, move |ctx| {
        let cancels = ctx.pid() == 0;
        let c = &mut Chk::new(ctx, mutant);
        let mut arrived = protocol::barrier_arrive(c, 0, 2);
        if let (true, Some(round)) = (cancels, arrived) {
            arrived = if protocol::barrier_unarrive(c, 0, round) {
                protocol::barrier_arrive(c, 0, 2)
            } else {
                None
            };
        }
        if let Some(round) = arrived {
            protocol::barrier_wait(c, 0, round);
        }
    })
}

/// Final-state check of [`barrier_program`] and
/// [`barrier_unarrive_program`]: the round moved on once and no arrival is
/// left over.
pub fn barrier_round_completed(mem: &[Word]) -> Result<(), String> {
    match mem[0] {
        w if w == 1 << 32 => Ok(()),
        w => Err(format!("barrier word {w:#x}: not one completed round")),
    }
}

/// A waiting-array semaphore's memory in a checked program, for
/// `protocol`'s semaphore functions to run on [`Chk`]: the permits word
/// (negative: waiters owed a grant), the `enq`/`deq` ticket counters, the
/// abandoned set as a bitmask word under a CAS lock word (the service's
/// `Mutex<HashSet<u64>>`), then `slots` slot words that start at their
/// previous-generation tenant's grant.
///
/// What the checker leaves out: the async front end's waker registration
/// — a cancelling waiter is a thread that polls its slot once and then
/// runs `cancel_ticket`; withdrawing a parked registration needs the
/// `ParkingLot::{register, cancel}` pair, which [`SyncCtx`] does not have.
#[derive(Debug, Clone, Copy)]
pub struct WaitingArrayWords {
    /// Waiting-array slots, a power of two.
    pub slots: usize,
    /// First ticket (`with_ticket_origin`).
    pub origin: Word,
}

impl WaitingArrayWords {
    /// The permits word, an `i64`.
    pub const PERMITS: Addr = 0;
    const ENQ: Addr = 1;
    const DEQ: Addr = 2;
    const ABANDONED_LOCK: Addr = 3;
    const ABANDONED: Addr = 4;
    const SLOT0: Addr = 5;

    /// A semaphore over `slots` slots, tickets from `origin`.
    pub fn new(slots: usize, origin: Word) -> Self {
        assert!(slots.is_power_of_two(), "the array is indexed by a mask");
        WaitingArrayWords { slots, origin }
    }

    /// Memory words the semaphore occupies, from address 0.
    pub fn words(&self) -> usize {
        Self::SLOT0 + self.slots
    }

    /// The memory image of `WaitingArraySemaphore::build`, as if `waiting`
    /// acquirers had already found no permit and taken tickets `origin ..
    /// origin + waiting` (0: a fresh semaphore with `permits` permits).
    pub fn init(&self, permits: i64, waiting: u64) -> Vec<(Addr, Word)> {
        assert!(waiting == 0 || permits == 0, "waiters queue only at zero");
        let w = self.slots as Word;
        let mut image = vec![
            (Self::PERMITS, (permits - waiting as i64) as Word),
            (Self::ENQ, self.origin.wrapping_add(waiting)),
            (Self::DEQ, self.origin),
        ];
        for i in 0..w {
            let empty = protocol::empty_slot(self.origin, w, i);
            image.push((Self::SLOT0 + i as usize, empty));
        }
        image
    }

    /// Runs `f` on the abandoned-set word under its lock.
    fn with_abandoned<'c, R>(&self, c: &mut Chk<'c>, f: impl FnOnce(&mut Chk<'c>, Word) -> R) -> R {
        while c.cas(Self::ABANDONED_LOCK, 0, 1).is_err() {
            c.ctx.spin_while(Self::ABANDONED_LOCK, 1);
        }
        let set = c.load(Self::ABANDONED);
        let r = f(c, set);
        c.store(Self::ABANDONED_LOCK, 0);
        r
    }

    fn abandoned_bit(&self, ticket: Word) -> Word {
        let nth = ticket.wrapping_sub(self.origin);
        assert!(nth < 64, "the checked abandoned set holds 64 tickets");
        1 << nth
    }
}

impl<'c> WaitingArray<Addr, Chk<'c>> for WaitingArrayWords {
    fn permits(&self) -> Addr {
        Self::PERMITS
    }
    fn enq(&self) -> Addr {
        Self::ENQ
    }
    fn deq(&self) -> Addr {
        Self::DEQ
    }
    fn slot(&self, ticket: Word) -> Addr {
        Self::SLOT0 + (ticket & (self.slots as Word - 1)) as usize
    }
    fn take_abandoned(&self, c: &mut Chk<'c>, ticket: Word) -> bool {
        let bit = self.abandoned_bit(ticket);
        self.with_abandoned(c, |c, set| {
            if set & bit != 0 {
                c.store(Self::ABANDONED, set & !bit);
            }
            set & bit != 0
        })
    }
    fn abandon_if(
        &self,
        c: &mut Chk<'c>,
        ticket: Word,
        unpublished: impl FnOnce(&mut Chk<'c>) -> bool,
    ) -> bool {
        let bit = self.abandoned_bit(ticket);
        self.with_abandoned(c, |c, set| {
            let insert = unpublished(c) || c.mutant == Some(Mutant::StaleRecheck);
            if insert {
                c.store(Self::ABANDONED, set | bit);
            }
            insert
        })
    }
}

/// `WaitingArraySemaphore::acquire` without its telemetry.
fn acquire(c: &mut Chk, sem: &WaitingArrayWords) {
    if let Some(ticket) = protocol::take_ticket(c, sem) {
        protocol::wait_for_grant(c, sem, ticket);
    }
}

/// `waiters` threads acquire a semaphore of no permits and `slots` slots;
/// the last thread releases one permit at a time, `waiters` times — the
/// worst case for a shared slot (`shared_slot_releases_reach_their_waiters`
/// in `service`): a batch release would wake once per grant and hide the
/// wake-one bug ([`Mutant::TaggedWakeOne`]: tickets `t` and `t + slots`
/// park on one word, the wake dequeues the sharer whose grant is still
/// pending, it parks again, and the granted waiter sleeps for good). Every
/// waiter must get through and no permit may be left.
///
/// `ticketed` starts from the state the bug needs — every waiter has found
/// no permit and holds ticket `pid` — and drops the waiters' two counter
/// steps, as [`spin_then_park_program`] drops its holder's acquire. It
/// leaves out the executions in which a release overtakes an acquirer; with
/// `ticketed` off the waiters take their own tickets and those are
/// explored too.
pub fn waiting_array_shared_slot_program(
    waiters: usize,
    slots: usize,
    ticketed: bool,
    per_ticket_wake: bool,
) -> Program {
    let sem = WaitingArrayWords::new(slots, 0);
    let mutant = (!per_ticket_wake).then_some(Mutant::TaggedWakeOne);
    let init = sem.init(0, if ticketed { waiters as u64 } else { 0 });
    Program::new(waiters + 1, sem.words(), move |ctx| {
        let me = ctx.pid();
        let c = &mut Chk::new(ctx, mutant);
        if me == waiters {
            for _ in 0..waiters {
                protocol::release_n(c, &sem, 1);
            }
        } else if ticketed {
            protocol::wait_for_grant(c, &sem, me as Word);
        } else {
            acquire(c, &sem);
        }
    })
    .with_init(init)
}

/// The abandoned-ticket protocol against a batch release (two slots, no
/// sharing): thread 0 acquires and stays, thread 1 takes a ticket, polls
/// once and cancels — or, admitted by that poll, returns its permit —
/// while thread 2 runs `release_n(2)`. Whichever side recycles the
/// cancelled ticket, the survivor is admitted and exactly one permit is
/// left ([`waiting_array_one_permit_left`]). The seeded bug
/// ([`Mutant::StaleRecheck`]) trusts the check before the lock: a grant
/// published in between goes to a ghost and the permit is gone.
pub fn waiting_array_cancel_program(fixed: bool) -> Program {
    let sem = WaitingArrayWords::new(2, 0);
    let mutant = (!fixed).then_some(Mutant::StaleRecheck);
    Program::new(3, sem.words(), move |ctx| {
        let me = ctx.pid();
        let c = &mut Chk::new(ctx, mutant);
        match me {
            0 => acquire(c, &sem),
            1 => match protocol::take_ticket(c, &sem) {
                Some(ticket) if !protocol::granted(c, &sem, ticket) => {
                    protocol::cancel_ticket(c, &sem, ticket)
                }
                _ => {
                    protocol::release_n(c, &sem, 1);
                }
            },
            _ => {
                protocol::release_n(c, &sem, 2);
            }
        }
    })
    .with_init(sem.init(0, 0))
}

fn permits_are(want: i64, mem: &[Word]) -> Result<(), String> {
    match mem[WaitingArrayWords::PERMITS] as i64 {
        got if got == want => Ok(()),
        got => Err(format!("permits {got} != {want}: a permit leaked")),
    }
}

/// Final-state check of [`waiting_array_shared_slot_program`]: as many
/// acquires as releases, so no permit is left and none is owed.
pub fn waiting_array_drained(mem: &[Word]) -> Result<(), String> {
    permits_are(0, mem)
}

/// Final-state check of [`waiting_array_cancel_program`]: two permits
/// released, one held by the survivor, the cancelled one back on the count.
pub fn waiting_array_one_permit_left(mem: &[Word]) -> Result<(), String> {
    permits_are(1, mem)
}

/// A flag handshake: thread 0 waits for word 0 to leave 0, thread 1
/// publishes 1 and wakes. The seeded bug wakes *before* it publishes: the
/// waiter can read the stale flag, the wake fires into an empty queue, and
/// the waiter parks on a compare that still succeeds — asleep forever with
/// the flag set. Publishing first is what the compare-and-block needs.
pub fn flag_handshake_program(fixed: bool) -> Program {
    Program::new(2, 1, move |ctx| {
        if ctx.pid() == 0 {
            let mut cur = ctx.load(0);
            while cur == 0 {
                cur = ctx.wait(0, cur, None).seen;
            }
        } else if fixed {
            ctx.store(0, 1);
            ctx.wake(0, usize::MAX);
        } else {
            ctx.wake(0, usize::MAX); // bug: wake into an empty queue...
            ctx.store(0, 1); // ...then publish, too late for a parked waiter.
        }
    })
}

/// `qsm::Qsm`'s queue in a checked program: the tail (word 0), a
/// critical-section counter (word 1), and node `n`'s `next` and `grant` at
/// words `2n` and `2n + 1`. Like `Qsm`, each acquisition takes a fresh node
/// (thread `t`'s `k`-th is `t * iters + k + 1`), waits by the grant wait
/// `Qsm` ships, `protocol::qsm_await_grant` (its spin one probe here), and
/// at `Qsm`'s free point [`QsmNodes::free`] poisons the node's words,
/// which nobody may write again ([`qsm_nodes_freed`]).
#[derive(Debug)]
pub struct QsmNodes {
    /// The last node handed out.
    taken: Word,
}

impl QsmNodes {
    const TAIL: Addr = 0;
    const COUNTER: Addr = 1;
    /// What a freed node's words hold.
    pub const FREED: Word = 0xdead_f4ee;

    /// Poisons both of the node's words.
    pub fn free(&self, c: &mut Chk, node: Word) {
        c.store(self.next(node), Self::FREED);
        c.store(self.grant(node), Self::FREED);
    }
}

impl<'c> QsmQueue<Addr, Chk<'c>> for QsmNodes {
    fn tail(&self) -> Addr {
        Self::TAIL
    }
    fn next(&self, node: Word) -> Addr {
        2 * node as Addr
    }
    fn grant(&self, node: Word) -> Addr {
        2 * node as Addr + 1
    }
    fn node(&mut self, _: &mut Chk<'c>) -> (Word, Word) {
        self.taken += 1;
        (self.taken, 0)
    }
    fn await_grant(&mut self, c: &mut Chk<'c>, grant: Addr, recorded: Word) {
        protocol::qsm_await_grant(c, grant, recorded);
    }
    fn await_link(&mut self, c: &mut Chk<'c>, next: Addr) -> Word {
        c.ctx.spin_while(next, 0)
    }
    fn wakes(&self) -> bool {
        true
    }
}

/// `nthreads` threads take `qsm::Qsm`'s queue — `protocol::qsm_lock` and
/// `qsm_unlock` over [`QsmNodes`] — `iters` times each, counting critical
/// sections and freeing each node after its release. Thread 0 **starts as
/// the holder** of node 1, the symmetry reduction of
/// [`spin_then_park_program`]: a fresh node takes no step, so every
/// execution starts with some thread's fast-path CAS of the free tail. The
/// seeded bug ([`Mutant::WakeBeforeAdvance`]) wakes the successor before
/// advancing its grant: a waiter that read the old grant parks in between,
/// and sleeps with the lock handed to it.
pub fn qsm_program(nthreads: usize, iters: usize, fixed: bool) -> Program {
    let mutant = (!fixed).then_some(Mutant::WakeBeforeAdvance);
    Program::new(nthreads, 2 + 2 * nthreads * iters, move |ctx| {
        let holder = ctx.pid() == 0;
        let mut q = QsmNodes {
            taken: (ctx.pid() * iters + usize::from(holder)) as Word,
        };
        for k in 0..iters {
            let me = if holder && k == 0 {
                1
            } else {
                protocol::qsm_lock(&mut Chk::new(ctx, mutant), &mut q)
            };
            let n = ctx.data_load(QsmNodes::COUNTER);
            ctx.data_store(QsmNodes::COUNTER, n + 1);
            let c = &mut Chk::new(ctx, mutant);
            protocol::qsm_unlock(c, &mut q, me);
            q.free(c, me);
        }
    })
    .with_init(vec![(QsmNodes::TAIL, 1)])
}

/// Final-state check of [`qsm_program`]: every acquisition ran its critical
/// section, and every node word still reads [`QsmNodes::FREED`] — nothing
/// wrote a node after `Qsm` would have freed it.
pub fn qsm_nodes_freed(mem: &[Word]) -> Result<(), String> {
    let (nodes, counter) = (mem.len() as Word / 2 - 1, mem[QsmNodes::COUNTER]);
    if counter != nodes {
        return Err(format!(
            "critical sections lost: counter {counter} != {nodes}"
        ));
    }
    match (2..mem.len()).find(|&w| mem[w] != QsmNodes::FREED) {
        Some(w) => Err(format!("node {} written after its free", w / 2)),
        None => Ok(()),
    }
}

/// Words per line of [`slot_lifecycle_program`]'s array.
const SLOT_LINE: usize = 4;

/// The one-slot array of [`slot_lifecycle_program`].
fn one_slot() -> SlotArray {
    SlotArray::new(Region::new(0, SLOT_LINE, SlotArray::lines(1)))
}

/// The service table's slot lifecycle — `protocol::slot_attach` and
/// `protocol::slot_detach` over a [`SlotArray`] — with two keys that map to
/// its one slot. Thread 0 starts attached to key 0, its word left at 7 by
/// its tenancy, and detaches; thread 1 attaches key 1. An attach that finds
/// key 0 bound parks on the slot's tenant word until the detach frees the
/// slot, so a free that wakes nobody is a lost wakeup, and the final
/// [`slot_rebound`] check catches a slot bound twice or a word not reset.
/// Starting attached is the symmetry reduction of
/// [`spin_then_park_program`], and keeps the search small enough to run
/// with no reduction at all.
pub fn slot_lifecycle_program() -> Program {
    Program::new(2, SlotArray::lines(1) * SLOT_LINE, |ctx| {
        let key = ctx.pid() as Word;
        let c = &mut Chk::new(ctx, None);
        if key == 0 {
            protocol::slot_detach(c, &one_slot(), key);
        } else {
            protocol::slot_attach(c, &one_slot(), key);
        }
    })
    .with_init(one_slot().image(&[(0, 1, 7)]))
}

/// Final-state check of [`slot_lifecycle_program`]: key 1 holds the slot
/// with one reference, its word reset.
pub fn slot_rebound(mem: &[Word]) -> Result<(), String> {
    one_slot().holds(mem, &[(1, 1, 0)])
}

/// Resolves a corpus program name to the program plus its final-state
/// check. Names are stable — corpus files refer to them — and each is a
/// seeded-bug (or deliberately racy) build the fuzzer and the exhaustive
/// explorer must both catch.
#[allow(clippy::type_complexity)]
pub fn corpus_program(name: &str) -> Option<(Program, fn(&[Word]) -> Result<(), String>)> {
    fn pass(_mem: &[Word]) -> Result<(), String> {
        Ok(())
    }
    /// Final check for the 2-thread lock workloads: counter (last word)
    /// must equal the number of critical sections.
    fn counter_is_2(mem: &[Word]) -> Result<(), String> {
        let c = mem[mem.len() - 1];
        if c == 2 {
            Ok(())
        } else {
            Err(format!("critical sections lost: counter {c} != 2"))
        }
    }
    fn sum_is_2(mem: &[Word]) -> Result<(), String> {
        if mem[0] == 2 {
            Ok(())
        } else {
            Err(format!("lost update: {} != 2", mem[0]))
        }
    }
    match name {
        // Two threads increment with separate load/store: some schedule
        // loses an update (final-state violation).
        "lost-update" => Some((
            Program::new(2, 1, |ctx| {
                let v = ctx.load(0);
                ctx.store(0, v + 1);
            }),
            sum_is_2,
        )),
        // Observe-then-claim lock: the window between the check and the
        // set admits two owners; the CS counter accesses race.
        "check-then-set" => Some((
            crate::harness::lock_program(Arc::new(CheckThenSetLock), 2, 1),
            counter_is_2,
        )),
        // Futex wake fired before the flag is published.
        "wake-before-publish" => Some((flag_handshake_program(false), pass)),
        // `qsm::Qsm`'s queue whose hand-off wakes before it advances.
        "qsm-wake-before-advance-3" => Some((qsm_program(3, 1, false), qsm_nodes_freed)),
        "qsm-wake-before-advance-4" => Some((qsm_program(4, 1, false), qsm_nodes_freed)),
        // Service mutex whose post-wake spin acquires as HELD.
        "spin-then-park-respin-held-3" => Some((spin_then_park_program(3, false), pass)),
        "spin-then-park-respin-held-4" => Some((spin_then_park_program(4, false), pass)),
        // Eventcount wraparound advance that forgets its wake.
        "eventcount-wrap-missed-wake-3" => Some((eventcount_wrap_program(3, false), pass)),
        "eventcount-wrap-missed-wake-4" => Some((eventcount_wrap_program(4, false), pass)),
        // Eventcount advance waking one waiter where two targets share the
        // word.
        "eventcount-wake-one-two-targets" => {
            Some((eventcount_staggered_targets_program(3, false), pass))
        }
        // Waiting-array semaphore waking one waiter per grant on a slot two
        // tickets share.
        "waiting-array-wake-one-shared-slot" => Some((
            waiting_array_shared_slot_program(2, 1, true, false),
            waiting_array_drained,
        )),
        // The same semaphore whose canceller trusts its check before the
        // abandoned set's lock.
        "waiting-array-stale-cancel-recheck" => Some((
            waiting_array_cancel_program(false),
            waiting_array_one_permit_left,
        )),
        // Barrier whose round-completing arrival wakes one waiter.
        "barrier-round-wake-one" => Some((barrier_program(3, false), barrier_round_completed)),
        // Barrier un-arrive that decrements without re-reading the round.
        "barrier-blind-unarrive" => {
            Some((barrier_unarrive_program(false), barrier_round_completed))
        }
        _ => None,
    }
}

/// Every registry name, for directory-level tests and regeneration.
pub fn corpus_program_names() -> &'static [&'static str] {
    &[
        "lost-update",
        "check-then-set",
        "wake-before-publish",
        "qsm-wake-before-advance-3",
        "qsm-wake-before-advance-4",
        "spin-then-park-respin-held-3",
        "spin-then-park-respin-held-4",
        "eventcount-wrap-missed-wake-3",
        "eventcount-wrap-missed-wake-4",
        "eventcount-wake-one-two-targets",
        "waiting-array-wake-one-shared-slot",
        "waiting-array-stale-cancel-recheck",
        "barrier-round-wake-one",
        "barrier-blind-unarrive",
    ]
}

/// Observe-then-claim lock: acquire observes the word free, *then* claims
/// it with a separate store, and the window between the two admits two
/// owners — the bug you get by "optimizing away" the atomic RMW.
#[derive(Debug)]
pub struct CheckThenSetLock;

impl LockKernel for CheckThenSetLock {
    fn name(&self) -> &'static str {
        "check-then-set"
    }
    fn lines_needed(&self, _nprocs: usize) -> usize {
        1
    }
    fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
        let word = region.slot(0);
        ctx.spin_until(word, 0); // observe free...
        ctx.store(word, 1); // ...then claim: not atomic.
        0
    }
    fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, _token: u64) {
        ctx.store(region.slot(0), 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_round_trips_through_text() {
        let entry = CorpusEntry {
            program: "wake-before-publish".into(),
            schedule: vec![1, 0, 0, 1],
            verdict: VerdictClass::LostWakeup,
        };
        let text = entry.render("seed 1991, shrunk 213 -> 4 steps");
        assert!(text.starts_with("# seed 1991"));
        assert_eq!(CorpusEntry::parse(&text), Ok(entry));
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        assert!(CorpusEntry::parse("").is_err());
        assert!(CorpusEntry::parse("program: x\nschedule: 0,1\n").is_err());
        assert!(CorpusEntry::parse("program: x\nschedule: a,b\nverdict: race\n").is_err());
        assert!(CorpusEntry::parse("program: x\nschedule: 0\nverdict: fast\n").is_err());
        assert!(CorpusEntry::parse("program: x\nschedule: 0\nverdict: race\nbogus: 1\n").is_err());
    }

    #[test]
    fn every_registry_name_resolves() {
        for name in corpus_program_names() {
            assert!(corpus_program(name).is_some(), "{name} must resolve");
        }
        assert!(corpus_program("no-such-program").is_none());
    }

    #[test]
    fn verdict_class_names_round_trip() {
        for class in [
            VerdictClass::Pass,
            VerdictClass::Violation,
            VerdictClass::Race,
            VerdictClass::Deadlock,
            VerdictClass::LostWakeup,
            VerdictClass::Starvation,
        ] {
            assert_eq!(VerdictClass::parse(class.name()), Ok(class));
        }
    }

    #[test]
    fn fixed_qsm_is_clean_for_two_threads_twice_each() {
        let program = qsm_program(2, 2, true);
        let v = crate::explorer::Explorer::exhaustive().check(&program, qsm_nodes_freed);
        v.expect_pass("qsm 2x2");
    }

    #[test]
    fn wake_before_advance_loses_a_wakeup() {
        let (program, check) = corpus_program("qsm-wake-before-advance-3").unwrap();
        let v = crate::explorer::Explorer::exhaustive().check(&program, check);
        assert_eq!(VerdictClass::of(&v), VerdictClass::LostWakeup, "{v:?}");
    }
}
