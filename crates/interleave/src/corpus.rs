//! Checked-in corpus of fuzzer-shrunk counterexamples.
//!
//! The nightly fuzz job finds bugs the exhaustive explorer would need
//! hours for; [`crate::fuzz::shrink_schedule`] then reduces each failing
//! schedule to a few steps. This module turns those artifacts into
//! regressions: a **named registry** of the seeded-bug programs the fuzzer
//! runs against ([`corpus_program`]), a tiny **text format** for one
//! shrunk counterexample ([`CorpusEntry`]), and the **verdict classes**
//! ([`VerdictClass`]) that entries are checked against — first by replay
//! (the schedule must still reproduce the class) and then by an
//! exhaustive re-check (the bug must still be reachable by search alone).
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

use crate::explorer::{ReplayEnd, Verdict};
use crate::program::Program;
use kernels::locks::LockKernel;
use kernels::{Addr, Region, SyncCtx, Word};
use std::sync::Arc;

/// The class of a [`Verdict`] or [`ReplayEnd`], without the run-specific
/// payload (schedule, stats, sites): what a corpus entry pins.
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
        match v {
            Verdict::Passed(_) => VerdictClass::Pass,
            Verdict::Violation { .. } => VerdictClass::Violation,
            Verdict::Race { .. } => VerdictClass::Race,
            Verdict::Deadlock { .. } => VerdictClass::Deadlock,
            Verdict::LostWakeup { .. } => VerdictClass::LostWakeup,
            Verdict::Starvation { .. } => VerdictClass::Starvation,
        }
    }

    /// Classifies a replay ending. `Complete`, `StepLimit` and `Diverged`
    /// all map to [`VerdictClass::Pass`] — no violation was reproduced —
    /// so a stale corpus schedule fails its class assertion rather than
    /// silently passing.
    pub fn of_replay(end: &ReplayEnd) -> VerdictClass {
        match end {
            ReplayEnd::Complete(_) | ReplayEnd::StepLimit | ReplayEnd::Diverged { .. } => {
                VerdictClass::Pass
            }
            ReplayEnd::Panic(_) => VerdictClass::Violation,
            ReplayEnd::Race(_) => VerdictClass::Race,
            ReplayEnd::Deadlock(_) => VerdictClass::Deadlock,
            ReplayEnd::LostWakeup(_) => VerdictClass::LostWakeup,
            ReplayEnd::Starvation(_) => VerdictClass::Starvation,
        }
    }

    /// Classifies a replay ending *with* the program's final-state check:
    /// a completed run whose memory fails the check is a
    /// [`VerdictClass::Violation`], exactly as [`crate::Explorer::check`]
    /// would report it. Replay alone cannot see final-state violations —
    /// it has no check to run — so corpus validation goes through here.
    pub fn of_checked_replay(
        end: &ReplayEnd,
        check: fn(&[Word]) -> Result<(), String>,
    ) -> VerdictClass {
        match end {
            ReplayEnd::Complete(mem) => match check(mem) {
                Ok(()) => VerdictClass::Pass,
                Err(_) => VerdictClass::Violation,
            },
            other => VerdictClass::of_replay(other),
        }
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
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("line {}: expected `key: value`, got {line:?}", lineno + 1))?;
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
                    schedule = Some(parsed.map_err(|_| {
                        format!("line {}: bad schedule {value:?}", lineno + 1)
                    })?);
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

/// A QSM-style blocking lock with the classic **wake-before-advance**
/// release: tickets are taken with a fetch-add, waiters park on the grant
/// word, and release fires its wake *before* publishing the new grant.
/// A waiter that read the stale grant can park right between the wake and
/// the advance — asleep forever with the lock free. The `fixed` variant
/// advances first, which the waiter's compare-and-block makes airtight.
///
/// This is the seeded-bug twin of `kernels::locks::qsm_blocking`: same
/// grant/eventcount handoff shape as the paper's QSM, reduced to the two
/// words the bug needs so 3- and 4-thread programs stay exhaustively
/// checkable.
#[derive(Debug)]
pub struct BlockingGrantLock {
    /// Advance-then-wake (correct) or wake-then-advance (seeded bug).
    pub fixed: bool,
}

impl LockKernel for BlockingGrantLock {
    fn name(&self) -> &'static str {
        if self.fixed {
            "blocking-grant"
        } else {
            "blocking-grant-wake-first"
        }
    }
    fn lines_needed(&self, _nprocs: usize) -> usize {
        1 // one line: ticket word + grant word
    }
    fn acquire(&self, ctx: &mut dyn SyncCtx, region: &Region, _ps: &mut u64) -> u64 {
        let ticket = region.slot(0);
        let grant = region.slot(0) + 1;
        let me = ctx.fetch_add(ticket, 1);
        loop {
            let cur = ctx.load(grant);
            if cur == me {
                break;
            }
            ctx.futex_wait(grant, cur);
        }
        me
    }
    fn release(&self, ctx: &mut dyn SyncCtx, region: &Region, _ps: &mut u64, token: u64) {
        let grant = region.slot(0) + 1;
        if self.fixed {
            ctx.store(grant, token + 1);
            ctx.futex_wake(grant, usize::MAX);
        } else {
            ctx.futex_wake(grant, usize::MAX); // bug: wake fires first...
            ctx.store(grant, token + 1); // ...waiters park in the window.
        }
    }
}

/// The contended path of `service::LockService::lock`: the three-state
/// futex mutex (0 free, 1 held, 2 held with waiters) whose waiter spins,
/// announces itself, parks — and, once woken, **spins again** before it
/// pays for a second park, because release stores FREE before it wakes
/// and a barger may hold the word again by the time the wakee runs.
///
/// A spin is modelled as one CAS `FREE -> locked`: the checker explores
/// every placement of that attempt against the other threads' steps, and
/// the further probes of a real spin (and the plain loads it watches the
/// word with) only repeat one of those placements. For the same reason
/// the fast-path CAS and the first spin are one step, and the slow loop's
/// load-then-CAS is a CAS whose failure value stands in for the load. That
/// keeps three threads exhaustively checkable.
///
/// The seeded bug is the tempting one: let the post-wake spin acquire as
/// HELD, like the first spin does. The woken waiter cannot know whether
/// others are still parked behind it, and only a CONTENDED release wakes
/// them — a second parked waiter is stranded.
#[derive(Debug)]
pub struct SpinThenParkLock {
    /// Post-wake spin acquires as CONTENDED (correct) or HELD (seeded bug).
    pub fixed: bool,
}

impl SpinThenParkLock {
    const FREE: Word = 0;
    const HELD: Word = 1;
    const CONTENDED: Word = 2;

    /// `LockService::lock` past the attach, on the lock word `word`.
    pub fn acquire(&self, ctx: &mut dyn SyncCtx, word: Addr) {
        // Fast path and first spin: acquire as HELD.
        if ctx.cas(word, Self::FREE, Self::HELD).is_ok() {
            return;
        }
        let respin_as = if self.fixed {
            Self::CONTENDED
        } else {
            Self::HELD
        };
        loop {
            match ctx.cas(word, Self::FREE, Self::CONTENDED) {
                Ok(_) => return,
                // Announce; if the word moved under us, look again.
                Err(Self::HELD) => {
                    if ctx.cas(word, Self::HELD, Self::CONTENDED).is_err() {
                        continue;
                    }
                }
                Err(_) => {}
            }
            ctx.futex_wait(word, Self::CONTENDED);
            // Woken: spin again before re-announcing.
            if ctx.cas(word, Self::FREE, respin_as).is_ok() {
                return;
            }
        }
    }

    /// `KeyGuard::drop`: store FREE, wake one iff waiters were announced.
    pub fn release(&self, ctx: &mut dyn SyncCtx, word: Addr) {
        if ctx.swap(word, Self::FREE) == Self::CONTENDED {
            ctx.futex_wake(word, 1);
        }
    }
}

/// The mutual-exclusion workload over [`SpinThenParkLock`] (lock word 0,
/// critical-section counter word 1): one critical section per thread, with
/// thread 0 **starting as the holder**. That is a symmetry reduction, not
/// a restriction: every thread's first step is the fast-path CAS on the
/// one lock word, and the first CAS to execute on a free word always
/// succeeds, so every execution begins with some thread holding HELD
/// before any other has taken a step. Naming that thread 0 divides the
/// search by `nthreads` and drops its acquire steps.
pub fn spin_then_park_program(nthreads: usize, fixed: bool) -> Program {
    assert!(nthreads >= 2, "need the holder and at least one contender");
    const WORD: Addr = 0;
    const COUNTER: Addr = 1;
    let lock = SpinThenParkLock { fixed };
    Program::new(nthreads, 2, move |ctx| {
        if ctx.pid() != 0 {
            lock.acquire(ctx, WORD);
        }
        let c = ctx.data_load(COUNTER);
        ctx.data_store(COUNTER, c + 1);
        lock.release(ctx, WORD);
    })
    .with_init(vec![(WORD, SpinThenParkLock::HELD)])
}

/// `service::EventKey::await_at_least` past its fast check, on the count
/// word `count`: read, compare by signed distance, park iff the count still
/// reads what was compared. What the model leaves out: the `park_cost()`
/// spin before the first park (further loads of the word, each a placement
/// the checker already tries for the one load kept).
fn eventcount_await(ctx: &mut dyn SyncCtx, count: Addr, target: Word) {
    loop {
        let cur = ctx.load(count);
        if seq_ge(cur, target) {
            return;
        }
        ctx.futex_wait(count, cur);
    }
}

/// An eventcount advance across the `u64` wrap (count starts at
/// `u64::MAX`): awaiters compare by **signed distance**, so the wrapped
/// target `0` still reads as "reached". The broken variant advances
/// without waking — the missed-advance bug at the worst possible count.
pub fn eventcount_wrap_program(nthreads: usize, fixed: bool) -> Program {
    assert!(nthreads >= 2, "need at least one awaiter and the advancer");
    Program::new(nthreads, 1, move |ctx| {
        if ctx.pid() < ctx.nprocs() - 1 {
            // await_at_least(0), i.e. MAX + 1 with wraparound.
            eventcount_await(ctx, 0, 0);
        } else {
            ctx.fetch_add(0, 1); // MAX -> 0: the wrap itself is fine...
            if fixed {
                ctx.futex_wake(0, usize::MAX); // ...forgetting this is not.
            }
        }
    })
    .with_init(vec![(0, u64::MAX)])
}

/// One eventcount whose awaiters want **different counts**: awaiter `k`
/// runs `await_at_least(k + 1)` and the last thread advances once per
/// awaiter. This is why `EventKey::advance` wakes every waiter of the word
/// and not one: the queue is ordered by arrival, not by target. The seeded
/// bug wakes the oldest waiter only — when that is an awaiter whose target
/// is still ahead it swallows the wake meant for the one the advance
/// satisfied and parks again, and one of the two sleeps on a count that has
/// passed its target.
pub fn eventcount_staggered_targets_program(nthreads: usize, wake_all: bool) -> Program {
    assert!(nthreads >= 3, "need two targets and the advancer");
    Program::new(nthreads, 1, move |ctx| {
        let (me, awaiters) = (ctx.pid(), ctx.nprocs() - 1);
        if me < awaiters {
            eventcount_await(ctx, 0, me as Word + 1);
        } else {
            for _ in 0..awaiters {
                ctx.fetch_add(0, 1);
                ctx.futex_wake(0, if wake_all { usize::MAX } else { 1 });
            }
        }
    })
}

/// `service::WaitingArraySemaphore` — the counting semaphore whose waiters
/// index themselves into a **waiting array** (Dice & Kogan) — step for
/// step on `SyncCtx` words: a permits word (negative: waiters owed a
/// grant), `enq`/`deq` ticket counters, `slots` slot words that start at
/// their previous-generation tenant's grant, publication by sequence-max
/// CAS, a wait that parks — under its ticket — iff the slot still shows
/// what the waiter read, one wake per granted ticket strictly after every
/// publication of the batch, and the
/// abandoned-ticket set as a bitmask word under a CAS lock word (the
/// service's `Mutex<HashSet<u64>>`).
///
/// What the model leaves out: the `park_cost()` spin before the park
/// (further loads of the slot, each a placement the checker already tries
/// for the one load kept), and the async front end's waker registration —
/// a cancelling waiter is a thread that polls its slot once and then runs
/// `cancel_ticket`; withdrawing a parked registration needs a
/// `futex_register` / `futex_cancel` pair `SyncCtx` does not have.
///
/// Two seeded bugs, one per flag. `per_ticket_wake: false` wakes the
/// slot's oldest waiter whatever its ticket, the PR 8 bug: tickets `t` and
/// `t + slots` park on one word, the wake dequeues the sharer whose grant
/// is still pending, it parks again, and the granted waiter sleeps for
/// good. `check_after_publish: false`
/// looks the ticket up in the abandoned set *before* publishing its grant:
/// a canceller that inserts in between is granted as a ghost and the
/// permit is gone.
#[derive(Debug, Clone, Copy)]
pub struct WaitingArraySem {
    /// Waiting-array slots, a power of two.
    pub slots: usize,
    /// First ticket (`with_ticket_origin`).
    pub origin: Word,
    /// A grant wakes the waiter that parked with the granted ticket
    /// (correct) or the oldest waiter of the ticket's slot (seeded bug).
    pub per_ticket_wake: bool,
    /// Check the abandoned set after publishing the grant (correct) or
    /// before (seeded bug).
    pub check_after_publish: bool,
}

/// Wraparound-safe `a >= b` on sequence numbers (`service::seq_ge`).
fn seq_ge(a: Word, b: Word) -> bool {
    a.wrapping_sub(b) as i64 >= 0
}

impl WaitingArraySem {
    const PERMITS: Addr = 0;
    const ENQ: Addr = 1;
    const DEQ: Addr = 2;
    const ABANDONED_LOCK: Addr = 3;
    const ABANDONED: Addr = 4;
    const SLOT0: Addr = 5;

    /// The correct semaphore over `slots` slots, tickets from `origin`.
    pub fn new(slots: usize, origin: Word) -> Self {
        assert!(slots.is_power_of_two(), "the array is indexed by a mask");
        WaitingArraySem {
            slots,
            origin,
            per_ticket_wake: true,
            check_after_publish: true,
        }
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
            // "No grant yet" is the grant of the slot's previous-generation
            // tenant, strictly behind its first real waiter's.
            let t0 = self
                .origin
                .wrapping_add(i.wrapping_sub(self.origin) & (w - 1));
            image.push((self.slot(t0), t0.wrapping_add(1).wrapping_sub(w)));
        }
        image
    }

    fn slot(&self, ticket: Word) -> Addr {
        Self::SLOT0 + (ticket & (self.slots as Word - 1)) as usize
    }

    /// `permits()`.
    pub fn permits(&self, ctx: &mut dyn SyncCtx) -> i64 {
        ctx.load(Self::PERMITS) as i64
    }

    /// The head of `acquire` / the first poll of `acquire_async`: take a
    /// permit, or a ticket to wait on when there is none.
    pub fn take_ticket(&self, ctx: &mut dyn SyncCtx) -> Option<Word> {
        let prev = ctx.fetch_add(Self::PERMITS, Word::MAX) as i64;
        (prev <= 0).then(|| ctx.fetch_add(Self::ENQ, 1))
    }

    /// Whether `ticket`'s grant is published: one poll of a waiting
    /// `AcquireFuture`.
    pub fn granted(&self, ctx: &mut dyn SyncCtx, ticket: Word) -> bool {
        seq_ge(ctx.load(self.slot(ticket)), ticket.wrapping_add(1))
    }

    /// The wait loop of `acquire`: load, compare, park under the ticket
    /// iff unchanged.
    pub fn wait(&self, ctx: &mut dyn SyncCtx, ticket: Word) {
        let slot = self.slot(ticket);
        loop {
            let cur = ctx.load(slot);
            if seq_ge(cur, ticket.wrapping_add(1)) {
                return;
            }
            ctx.futex_wait_tagged(slot, cur, ticket);
        }
    }

    /// `acquire`.
    pub fn acquire(&self, ctx: &mut dyn SyncCtx) {
        if let Some(ticket) = self.take_ticket(ctx) {
            self.wait(ctx, ticket);
        }
    }

    /// `try_acquire`.
    pub fn try_acquire(&self, ctx: &mut dyn SyncCtx) -> bool {
        let mut cur = ctx.load(Self::PERMITS);
        while cur as i64 > 0 {
            match ctx.cas(Self::PERMITS, cur, cur - 1) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
        false
    }

    /// Runs `f` on the abandoned-set word under its lock.
    fn with_abandoned<R>(
        &self,
        ctx: &mut dyn SyncCtx,
        f: impl FnOnce(&mut dyn SyncCtx, Word) -> R,
    ) -> R {
        while ctx.cas(Self::ABANDONED_LOCK, 0, 1).is_err() {
            ctx.spin_while(Self::ABANDONED_LOCK, 1);
        }
        let set = ctx.load(Self::ABANDONED);
        let r = f(ctx, set);
        ctx.store(Self::ABANDONED_LOCK, 0);
        r
    }

    fn abandoned_bit(&self, ticket: Word) -> Word {
        let nth = ticket.wrapping_sub(self.origin);
        assert!(nth < 64, "the model's abandoned set holds 64 tickets");
        1 << nth
    }

    /// `abandoned.lock().remove(&ticket)`.
    fn take_abandoned(&self, ctx: &mut dyn SyncCtx, ticket: Word) -> bool {
        let bit = self.abandoned_bit(ticket);
        self.with_abandoned(ctx, |ctx, set| {
            if set & bit != 0 {
                ctx.store(Self::ABANDONED, set & !bit);
            }
            set & bit != 0
        })
    }

    /// `release_n`: how many grants went to waiters.
    pub fn release_n(&self, ctx: &mut dyn SyncCtx, n: usize) -> usize {
        let mut granted = Vec::new();
        let mut remaining = n;
        while remaining > 0 {
            remaining -= 1;
            let prev = ctx.fetch_add(Self::PERMITS, 1) as i64;
            if prev >= 0 {
                continue;
            }
            let ticket = ctx.fetch_add(Self::DEQ, 1);
            if !self.check_after_publish && self.take_abandoned(ctx, ticket) {
                remaining += 1;
                continue;
            }
            let (slot, grant) = (self.slot(ticket), ticket.wrapping_add(1));
            // Sequence-max publication: never regress a slot that the
            // releaser of `ticket + slots` already advanced past us.
            let mut cur = ctx.load(slot);
            while !seq_ge(cur, grant) {
                match ctx.cas(slot, cur, grant) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
            if self.check_after_publish && self.take_abandoned(ctx, ticket) {
                remaining += 1;
                continue;
            }
            granted.push((slot, ticket));
        }
        // `ParkingLot::wake_tagged`: one wake per grant, after the whole batch
        // is published.
        for &(slot, ticket) in &granted {
            if self.per_ticket_wake {
                ctx.futex_wake_tagged(slot, ticket);
            } else {
                ctx.futex_wake(slot, 1);
            }
        }
        granted.len()
    }

    /// `cancel_ticket`: the waiter holding `ticket` goes away unadmitted.
    pub fn cancel_ticket(&self, ctx: &mut dyn SyncCtx, ticket: Word) {
        if !self.granted(ctx, ticket) {
            let bit = self.abandoned_bit(ticket);
            let slot = self.slot(ticket);
            // Re-check under the lock: the releaser publishes first and
            // looks the ticket up second, so an insert made while the
            // grant is still unpublished is seen.
            let inserted = self.with_abandoned(ctx, |ctx, set| {
                let unpublished = !seq_ge(ctx.load(slot), ticket.wrapping_add(1));
                if unpublished {
                    ctx.store(Self::ABANDONED, set | bit);
                }
                unpublished
            });
            if inserted {
                return;
            }
        }
        // The grant is published and addressed to this ticket alone: hand
        // the permit onward.
        self.release_n(ctx, 1);
    }
}

/// `waiters` threads acquire a semaphore of no permits and `slots` slots;
/// the last thread releases one permit at a time, `waiters` times — the
/// worst case for a shared slot (`shared_slot_releases_reach_their_waiters`
/// in `service`): a batch release would wake once per grant and hide the
/// wake-one bug. Every waiter must get through and no permit may be left.
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
    let sem = WaitingArraySem {
        per_ticket_wake,
        ..WaitingArraySem::new(slots, 0)
    };
    let init = sem.init(0, if ticketed { waiters as u64 } else { 0 });
    Program::new(waiters + 1, sem.words(), move |ctx| {
        if ctx.pid() == waiters {
            for _ in 0..waiters {
                sem.release_n(ctx, 1);
            }
        } else if ticketed {
            let ticket = ctx.pid() as Word;
            sem.wait(ctx, ticket);
        } else {
            sem.acquire(ctx);
        }
    })
    .with_init(init)
}

/// The abandoned-ticket protocol against a batch release (two slots, no
/// sharing): thread 0 acquires and stays, thread 1 takes a ticket, polls
/// once and cancels — or, admitted by that poll, returns its permit —
/// while thread 2 runs `release_n(2)`. Whichever side recycles the
/// cancelled ticket, the survivor is admitted and exactly one permit is
/// left ([`waiting_array_one_permit_left`]).
pub fn waiting_array_cancel_program(check_after_publish: bool) -> Program {
    let sem = WaitingArraySem {
        check_after_publish,
        ..WaitingArraySem::new(2, 0)
    };
    Program::new(3, sem.words(), move |ctx| match ctx.pid() {
        0 => sem.acquire(ctx),
        1 => match sem.take_ticket(ctx) {
            Some(ticket) if !sem.granted(ctx, ticket) => sem.cancel_ticket(ctx, ticket),
            _ => {
                sem.release_n(ctx, 1);
            }
        },
        _ => {
            sem.release_n(ctx, 2);
        }
    })
    .with_init(sem.init(0, 0))
}

fn permits_are(want: i64, mem: &[Word]) -> Result<(), String> {
    match mem[WaitingArraySem::PERMITS] as i64 {
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

/// The mutual-exclusion workload over [`BlockingGrantLock`], exactly as
/// [`crate::harness::lock_program`] builds it.
pub fn blocking_grant_program(nthreads: usize, iters: usize, fixed: bool) -> Program {
    crate::harness::lock_program(Arc::new(BlockingGrantLock { fixed }), nthreads, iters)
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
        "wake-before-publish" => Some((
            Program::new(2, 1, |ctx| {
                if ctx.pid() == 0 {
                    let mut cur = ctx.load(0);
                    while cur == 0 {
                        cur = ctx.futex_wait(0, cur);
                    }
                } else {
                    ctx.futex_wake(0, usize::MAX);
                    ctx.store(0, 1);
                }
            }),
            pass,
        )),
        // Blocking QSM-style lock whose release wakes before advancing.
        "blocking-grant-wake-first-3" => Some((blocking_grant_program(3, 1, false), pass)),
        "blocking-grant-wake-first-4" => Some((blocking_grant_program(4, 1, false), pass)),
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
        // The same semaphore consulting the abandoned set before it
        // publishes the grant.
        "waiting-array-check-before-publish" => Some((
            waiting_array_cancel_program(false),
            waiting_array_one_permit_left,
        )),
        _ => None,
    }
}

/// Every registry name, for directory-level tests and regeneration.
pub fn corpus_program_names() -> &'static [&'static str] {
    &[
        "lost-update",
        "check-then-set",
        "wake-before-publish",
        "blocking-grant-wake-first-3",
        "blocking-grant-wake-first-4",
        "spin-then-park-respin-held-3",
        "spin-then-park-respin-held-4",
        "eventcount-wrap-missed-wake-3",
        "eventcount-wrap-missed-wake-4",
        "eventcount-wake-one-two-targets",
        "waiting-array-wake-one-shared-slot",
        "waiting-array-check-before-publish",
    ]
}

/// Observe-then-claim lock (the classic missing-atomicity bug), kept here
/// so corpus files can name it.
#[derive(Debug)]
struct CheckThenSetLock;

impl LockKernel for CheckThenSetLock {
    fn name(&self) -> &'static str {
        "check-then-set"
    }
    fn lines_needed(&self, _nprocs: usize) -> usize {
        1
    }
    fn acquire(&self, ctx: &mut dyn SyncCtx, region: &Region, _ps: &mut u64) -> u64 {
        let word = region.slot(0);
        ctx.spin_until(word, 0);
        ctx.store(word, 1);
        0
    }
    fn release(&self, ctx: &mut dyn SyncCtx, region: &Region, _ps: &mut u64, _token: u64) {
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
    fn fixed_blocking_grant_lock_is_clean_for_two_threads() {
        let v = crate::harness::check_lock(
            Arc::new(BlockingGrantLock { fixed: true }),
            2,
            1,
            crate::explorer::Explorer::exhaustive(),
        );
        v.expect_pass("blocking-grant 2x1");
    }

    #[test]
    fn wake_first_release_loses_a_wakeup() {
        let (program, check) = corpus_program("blocking-grant-wake-first-3").unwrap();
        let v = crate::explorer::Explorer::exhaustive().check(&program, check);
        assert_eq!(VerdictClass::of(&v), VerdictClass::LostWakeup, "{v:?}");
    }
}
