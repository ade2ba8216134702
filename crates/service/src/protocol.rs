//! The service's slow paths, written once over the word operations they
//! need: `syncctx`'s [`SyncCtx`] — loads, stores, read-modify-writes, a
//! futex wait that parks iff the word still shows what was read, wakes,
//! and a spin that lasts what a park would cost.
//!
//! Four substrates run the same code:
//!
//! - **real threads** — `&ParkingLot` (its impl is in `parking`): a word is
//!   an `&AtomicU64` (every access `SeqCst`), waits and wakes go to the
//!   lot, and a spin probes for the lot's [`ParkingLot::park_cost`]
//!   ([`ParkingLot::spin`]); monomorphized into each caller, with no `dyn`.
//!   This is what the service ships.
//! - **the checker** — `interleave::ChkCtx`, through
//!   `interleave::corpus::Chk`: a word is an address of a checked program's
//!   memory, every operation one schedule step, and a spin one probe. Each
//!   seeded bug is that context with one operation rewritten; nothing here
//!   selects a bug.
//! - **the simulator** — `memsim::Proc`: every operation priced in cycles
//!   on a simulated 1991 machine, a park yielding the processor's core.
//! - **a kernel's real-thread context** — `workloads::realhw::RealCtx`: an
//!   address into a slice of `AtomicU64`s, its waits and wakes in a lot the
//!   run owns.
//!
//! Every wait is a [`Step`]: one look that finishes it or names the park
//! it needs. [`block`] drives the steps on a thread through
//! [`SyncCtx::wait`], [`poll_step`] in a future by registering a waker in a
//! `&ParkingLot`, so both wait by the same code; each future's cancellation
//! repair sits beside the step it undoes. The mutex request's step order
//! is here as well, and nowhere else: [`lock`] is [`try_lock`]'s one CAS,
//! then [`lock_contended`]. Sampled timers and counting stay with the
//! callers: [`lock`] runs the caller's hook on its slow arm only and
//! returns a [`Contention`], a semaphore counts through
//! [`WaitingArray::count`].
//! The paper's QSM queue lock is here too, over a [`QsmQueue`] that lays
//! out its nodes and supplies its waits (a waiter that spins, then parks,
//! waits by [`qsm_await_grant`]); its tree barrier, whose climb
//! [`qsm_tree_arrive`] runs over a [`QsmTree`] that lays out the node
//! counts and the release and supplies the wait for it; and the lifecycle
//! of a keyed table's slots, [`slot_attach`] and [`slot_detach`] over a
//! [`SlotMap`], with the keyed mutex request on it: [`keyed_lock`]
//! attaches, then locks; [`keyed_unlock`] unlocks, then detaches.

use parking::futex::{ParkingLot, WaitEntry};
use std::sync::atomic::AtomicU64;
use std::task::{Poll, Waker};
use syncctx::SyncCtx;

/// Wraparound-safe sequence comparison: `a >= b` on the circle of `u64`
/// sequence numbers, correct as long as the two are within `2^63` of each
/// other. The eventcount's wait and the semaphore's grants compare with it.
#[inline]
pub fn seq_ge(a: u64, b: u64) -> bool {
    a.wrapping_sub(b) as i64 >= 0
}

/// One look at a wait: over, or the park that waits out what it read.
#[derive(Debug)]
pub enum Step<W, T> {
    /// The wait is over.
    Ready(T),
    /// `Park(word, expected, tag)`: park on `word` iff it still holds
    /// `expected`, the value the step read ([`SyncCtx::wait`], under `tag` if
    /// given), then look again.
    Park(W, u64, Option<u64>),
}

/// The blocking driver: steps until ready, parking where each step says,
/// telling `step` whether the wait before it parked (the mutex respins
/// then). The spin before the first park is the caller's.
pub fn block<W: Copy, C: SyncCtx<W>, T>(
    c: &mut C,
    mut step: impl FnMut(&mut C, bool) -> Step<W, T>,
) -> T {
    let mut woken = false;
    loop {
        match step(c, woken) {
            Step::Ready(v) => return v,
            Step::Park(word, expected, tag) => woken = c.wait(word, expected, tag).parked,
        }
    }
}

/// The async driver: one poll of a future waiting by `step` in `lot`. An
/// `entry` no wake has taken keeps it pending (its waker refreshed); else
/// step, registering a waker entry where a step parks iff the word still
/// holds what it read, and stepping again if refused. Never spins: that
/// would stall every task on the executor's thread. A future dropped with
/// `entry` set withdraws it ([`ParkingLot::cancel`]) and runs its repair.
pub fn poll_step<'a, T>(
    lot: &'a ParkingLot,
    entry: &mut Option<WaitEntry>,
    waker: &Waker,
    mut step: impl FnMut(&mut &'a ParkingLot) -> Step<&'a AtomicU64, T>,
) -> Poll<T> {
    if let Some(e) = entry.take() {
        if !e.woken() {
            e.update_waker(waker);
            *entry = Some(e);
            return Poll::Pending;
        }
        e.resume();
    }
    let mut c = lot;
    loop {
        *entry = match step(&mut c) {
            Step::Ready(v) => return Poll::Ready(v),
            Step::Park(w, seen, None) => lot.register(w, seen, waker),
            Step::Park(w, seen, Some(tag)) => lot.register_tagged(w, seen, tag, waker),
        };
        if entry.is_some() {
            return Poll::Pending;
        }
    }
}

/// Mutex word: free.
pub const FREE: u64 = 0;
/// Mutex word: held, no waiter announced.
pub const HELD: u64 = 1;
/// Mutex word: held, waiters may be parked.
pub const CONTENDED: u64 = 2;

/// How a contended mutex acquisition went, for the caller's telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Contention {
    /// The acquirer parked at least once.
    pub parked: bool,
    /// It took the word in the spin that follows a wake.
    pub respun: bool,
    /// CASes that found the word FREE and lost it.
    pub cas_retries: u64,
}

/// The mutex fast path: one CAS, FREE → HELD. Whether it took the word.
#[inline]
pub fn try_lock<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W) -> bool {
    c.cas(w, FREE, HELD).is_ok()
}

/// The mutex acquire: [`try_lock`], else run `contended` once and then
/// [`lock_contended`]. `None` when the fast path took the word; else the
/// hook's value and how the slow path went, for the caller's telemetry.
#[inline]
pub fn lock<W: Copy, C: SyncCtx<W>, T>(
    c: &mut C,
    w: W,
    contended: impl FnOnce() -> T,
) -> Option<(T, Contention)> {
    if try_lock(c, w) {
        return None;
    }
    Some(lock_slow(c, w, contended))
}

/// [`lock`] past its failed CAS. Kept out of line: its clock reads and
/// loops would otherwise cost the one-CAS fast path a larger frame (the
/// service's `mutex_disjoint` acquiring call measured ~5 % slower with its
/// slow path inlined).
#[cold]
#[inline(never)]
fn lock_slow<W: Copy, C: SyncCtx<W>, T>(
    c: &mut C,
    w: W,
    contended: impl FnOnce() -> T,
) -> (T, Contention) {
    let hooked = contended();
    (hooked, lock_contended(c, w))
}

/// The mutex acquire past its one-CAS fast path. Spin for a park's worth
/// (test-and-test-and-set, acquiring as HELD); then hold the word at
/// CONTENDED so the releaser knows to wake, and park. Woken, spin once
/// more before parking again — release stores FREE before it wakes, so a
/// barger may hold the word by now — acquiring as CONTENDED from here on:
/// others may be parked behind us, and only a CONTENDED release wakes them.
#[inline]
pub fn lock_contended<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W) -> Contention {
    let mut how = Contention::default();
    if spin_acquire(c, w, HELD, &mut how.cas_retries) {
        return how;
    }
    block(c, |c, woken| {
        if woken {
            how.parked = true;
            if spin_acquire(c, w, CONTENDED, &mut how.cas_retries) {
                how.respun = true;
                return Step::Ready(false);
            }
        }
        lock_step(c, w, CONTENDED, &mut how.cas_retries)
    });
    how
}

/// One look at a held mutex: take the word as `locked` if it reads FREE
/// (counting lost CASes in `retries`), announce waiters if it reads HELD,
/// park once it reads CONTENDED. Ready with `true` iff the first look took
/// it. A future takes it as HELD until it has parked, like the fast path.
pub fn lock_step<W: Copy, C: SyncCtx<W>>(
    c: &mut C,
    w: W,
    locked: u64,
    retries: &mut u64,
) -> Step<W, bool> {
    let mut first = true;
    loop {
        match c.load(w) {
            FREE => {
                if c.cas(w, FREE, locked).is_ok() {
                    return Step::Ready(first);
                }
                *retries += 1;
            }
            HELD => {
                let _ = c.cas(w, HELD, CONTENDED);
            }
            _ => return Step::Park(w, CONTENDED, None),
        }
        first = false;
    }
}

/// The repair of a mutex acquire dropped after it parked, `chosen` if a
/// release had dequeued it: that release woke this waiter alone, so pass
/// the wake on, or the queue sleeps over a free lock.
pub fn lock_cancelled<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W, chosen: bool) {
    if chosen {
        c.wake(w, 1);
    }
}

/// Watches the word with plain loads and tries `FREE -> locked` only when
/// it reads FREE, so spinners share the line instead of bouncing it.
#[inline(always)]
fn spin_acquire<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W, locked: u64, retries: &mut u64) -> bool {
    c.spin(|c| {
        if c.load(w) != FREE {
            return false;
        }
        let won = c.cas(w, FREE, locked).is_ok();
        *retries += u64::from(!won);
        won
    })
}

/// The mutex release: store FREE, and wake the oldest parked waiter iff
/// waiters were announced. One is enough — it re-acquires as CONTENDED, so
/// its own release wakes the next — and there is no hand-off: a newcomer
/// may take the word before the wakee runs.
#[inline]
pub fn unlock<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W) {
    let prev = c.swap(w, FREE);
    debug_assert!(prev == HELD || prev == CONTENDED, "unlock of a free lock");
    if prev == CONTENDED {
        c.wake(w, 1);
    }
}

/// Bumps the eventcount and wakes **every** waiter: the waiters of one
/// count want different targets, and the queue is ordered by arrival, not
/// by target. Returns the new count.
pub fn advance<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W) -> u64 {
    let new = c.fetch_add(w, 1).wrapping_add(1);
    c.wake(w, usize::MAX);
    new
}

/// Waits, past its caller's first read, until the count reaches `target`
/// (signed distance); returns the count seen. One spin, before the first
/// park only — a waiter the wake-all resumes with its target still ahead
/// is several advances away, which is what parking is for — then
/// [`await_step`] until it is ready.
pub fn await_at_least<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W, target: u64) -> u64 {
    c.spin(|c| seq_ge(c.load(w), target));
    block(c, |c, _| await_step(c, w, target))
}

/// One look at the eventcount: the count, once it has reached `target`;
/// else park on what was read.
pub fn await_step<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W, target: u64) -> Step<W, u64> {
    let cur = c.load(w);
    if seq_ge(cur, target) {
        return Step::Ready(cur);
    }
    Step::Park(w, cur, None)
}

/// One arrival at the barrier word (round in the high 32 bits, arrivals in
/// the low 32): `None` when it completed the round — arrivals reset and
/// the round bumped in one CAS, every waiter woken — otherwise
/// `Some(round)`, the round to wait out.
///
/// # Panics
///
/// If `parties` is zero, or `parties` arrivals are already recorded in
/// this round (callers disagreeing on `parties`).
pub fn barrier_arrive<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W, parties: u32) -> Option<u64> {
    assert!(parties > 0, "a barrier needs at least one party");
    loop {
        let cur = c.load(w);
        let arrivals = cur as u32;
        assert!(
            arrivals < parties,
            "more than {parties} parties arrived in one barrier round"
        );
        let last = arrivals + 1 == parties;
        let next = if last {
            (cur >> 32).wrapping_add(1) << 32
        } else {
            cur + 1
        };
        if c.cas(w, cur, next).is_ok() {
            if last {
                c.wake(w, usize::MAX);
                return None;
            }
            return Some(cur >> 32);
        }
    }
}

/// Waits until the barrier's round is no longer `round`.
pub fn barrier_wait<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W, round: u64) {
    block(c, |c, _| barrier_step(c, w, round));
}

/// One look at the barrier: over once the round is no longer `round`, so a
/// waiter that sleeps through a whole round still sees a different number;
/// else park on what was read.
pub fn barrier_step<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W, round: u64) -> Step<W, ()> {
    let now = c.load(w);
    if now >> 32 != round {
        return Step::Ready(());
    }
    Step::Park(w, now, None)
}

/// Withdraws an arrival in `round` by a CAS that re-reads the round, unless
/// the round has completed and consumed it. Whether it withdrew.
pub fn barrier_unarrive<W: Copy, C: SyncCtx<W>>(c: &mut C, w: W, round: u64) -> bool {
    let mut cur = c.load(w);
    while cur >> 32 == round {
        debug_assert!(cur as u32 > 0, "un-arrive with no arrivals");
        match c.cas(w, cur, cur - 1) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// One waiting-array semaphore as a substrate's words lay it
/// out: a permit count (negative: grants owed to waiters), enqueue and
/// dequeue ticket counters, the slot words, and the set of tickets whose
/// waiters went away before their grant was published.
pub trait WaitingArray<W: Copy, C: SyncCtx<W>> {
    /// The permit count, a two's-complement `i64`.
    fn permits(&self) -> W;
    /// The next acquire ticket.
    fn enq(&self) -> W;
    /// The next grant ticket.
    fn deq(&self) -> W;
    /// The slot `ticket` waits on.
    fn slot(&self, ticket: u64) -> W;
    /// Removes `ticket` from the abandoned set; whether it was there.
    fn take_abandoned(&self, c: &mut C, ticket: u64) -> bool;
    /// Under the abandoned set's lock: inserts `ticket` iff `unpublished`
    /// still holds; whether it did.
    fn abandon_if(&self, c: &mut C, ticket: u64, unpublished: impl FnOnce(&mut C) -> bool) -> bool;
    /// Telemetry: a grant owed went to `ticket`'s waiter (`true`), or the
    /// ticket was abandoned and its permit went round again (`false`).
    fn count(&self, _ticket: u64, _granted: bool) {}
}

/// What slot `i` of a `w`-slot array holds before its first grant, tickets
/// starting at `origin`: the grant of its previous-generation tenant, so
/// the slot's first real waiter sees a sequence strictly behind its own.
pub fn empty_slot(origin: u64, w: u64, i: u64) -> u64 {
    let first = origin.wrapping_add(i.wrapping_sub(origin) & (w - 1));
    first.wrapping_add(1).wrapping_sub(w)
}

/// A permit iff one is available right now.
pub fn try_acquire<W: Copy, C: SyncCtx<W>, S: WaitingArray<W, C>>(c: &mut C, s: &S) -> bool {
    let mut cur = c.load(s.permits());
    while cur as i64 > 0 {
        match c.cas(s.permits(), cur, cur - 1) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
    false
}

/// The head of an acquire: take a permit (`None`), or the ticket to wait on
/// when there is none.
pub fn take_ticket<W: Copy, C: SyncCtx<W>, S: WaitingArray<W, C>>(c: &mut C, s: &S) -> Option<u64> {
    let prev = c.fetch_add(s.permits(), u64::MAX) as i64;
    (prev <= 0).then(|| c.fetch_add(s.enq(), 1))
}

/// Whether `ticket`'s grant is published: its slot shows `ticket + 1` or
/// later (a racing releaser of `ticket + W` may already have moved it on).
pub fn granted<W: Copy, C: SyncCtx<W>, S: WaitingArray<W, C>>(
    c: &mut C,
    s: &S,
    ticket: u64,
) -> bool {
    seq_ge(c.load(s.slot(ticket)), ticket.wrapping_add(1))
}

/// The wait of an acquire holding `ticket`: spin for a park's worth, then
/// [`grant_step`] until it is ready.
pub fn wait_for_grant<W: Copy, C: SyncCtx<W>, S: WaitingArray<W, C>>(
    c: &mut C,
    s: &S,
    ticket: u64,
) {
    if !c.spin(|c| granted(c, s, ticket)) {
        block(c, |c, _| grant_step(c, s, ticket));
    }
}

/// One look at `ticket`'s slot: over once its grant is published; else park
/// under the ticket on what was read. A grant changes the slot before it
/// wakes this ticket, and no sharer's, so the park cannot miss it.
pub fn grant_step<W: Copy, C: SyncCtx<W>, S: WaitingArray<W, C>>(
    c: &mut C,
    s: &S,
    ticket: u64,
) -> Step<W, ()> {
    let slot = s.slot(ticket);
    let cur = c.load(slot);
    if seq_ge(cur, ticket.wrapping_add(1)) {
        return Step::Ready(());
    }
    Step::Park(slot, cur, Some(ticket))
}

/// Releases `n` permits; returns how many went to waiters. A grant owed is
/// published by sequence-max CAS into the ticket's slot, the abandoned set
/// is consulted strictly after, and once the batch is published every
/// granted ticket — no other sharer of its slot — is woken in one
/// [`SyncCtx::wake_tagged`]. An abandoned ticket's permit goes round the loop
/// again, to the next waiter or the count.
pub fn release_n<W: Copy, C: SyncCtx<W>, S: WaitingArray<W, C>>(
    c: &mut C,
    s: &S,
    n: usize,
) -> usize {
    let mut granted = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        remaining -= 1;
        if c.fetch_add(s.permits(), 1) as i64 >= 0 {
            continue;
        }
        let ticket = c.fetch_add(s.deq(), 1);
        let (slot, grant) = (s.slot(ticket), ticket.wrapping_add(1));
        // Never regress a slot the releaser of `ticket + W` moved past us.
        let mut cur = c.load(slot);
        while !seq_ge(cur, grant) {
            match c.cas(slot, cur, grant) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let abandoned = s.take_abandoned(c, ticket);
        s.count(ticket, !abandoned);
        if abandoned {
            remaining += 1;
        } else {
            granted.push((slot, ticket));
        }
    }
    if !granted.is_empty() {
        c.wake_tagged(&granted);
    }
    granted.len()
}

/// The waiter holding `ticket` goes away unadmitted. An unpublished grant
/// is recorded in the abandoned set — re-checked under its lock: the
/// releaser publishes first and looks the ticket up second, so exactly one
/// side recycles — and a published one, addressed to this ticket alone, is
/// handed onward as a release.
pub fn cancel_ticket<W: Copy, C: SyncCtx<W>, S: WaitingArray<W, C>>(c: &mut C, s: &S, ticket: u64) {
    if !granted(c, s, ticket) && s.abandon_if(c, ticket, |c| !granted(c, s, ticket)) {
        return;
    }
    release_n(c, s, 1);
}

/// One QSM queue lock as a substrate lays it out — a tail word (0: free,
/// else the last queued node) and, per node, a `next` link (0: none yet)
/// and a `grant` eventcount — and waits on it: `qsm::Qsm` on heap nodes,
/// the `kernels` QSM kernel on one node per processor, and
/// `interleave::corpus` on the checker's memory.
pub trait QsmQueue<W: Copy, C: SyncCtx<W> + ?Sized> {
    /// The tail word.
    fn tail(&self) -> W;
    /// Node `node`'s link to its successor.
    fn next(&self, node: u64) -> W;
    /// Node `node`'s grant eventcount.
    fn grant(&self, node: u64) -> W;
    /// This acquisition's node — nonzero, its link clear — and what its
    /// grant holds until the hand-off.
    fn node(&mut self, c: &mut C) -> (u64, u64);
    /// Waits until `grant` no longer holds `recorded`: [`qsm_await_grant`]
    /// on a substrate that spins, then parks.
    fn await_grant(&mut self, c: &mut C, grant: W, recorded: u64);
    /// Waits until the link `next` is set; returns it.
    fn await_link(&mut self, c: &mut C, next: W) -> u64;
    /// Whether a hand-off wakes its successor: it must iff a waiter parks.
    fn wakes(&self) -> bool;
}

/// The QSM acquire: [`qsm_try_lock`], else [`qsm_enqueue`]. Returns the
/// node, which the matching [`qsm_unlock`] takes.
#[inline]
pub fn qsm_lock<W: Copy, C: SyncCtx<W> + ?Sized, Q: QsmQueue<W, C>>(c: &mut C, q: &mut Q) -> u64 {
    let (me, recorded) = q.node(c);
    if qsm_try_lock(c, q, me) {
        return me;
    }
    qsm_enqueue(c, q, me, recorded)
}

/// The QSM fast path: takes a free lock with one CAS of the tail to node
/// `me`. On failure `me` was never published.
#[inline]
pub fn qsm_try_lock<W: Copy, C: SyncCtx<W> + ?Sized, Q: QsmQueue<W, C>>(
    c: &mut C,
    q: &Q,
    me: u64,
) -> bool {
    c.cas(q.tail(), 0, me).is_ok()
}

/// Queues node `me` as the tail and, behind a predecessor, links into it
/// and awaits its grant's move past `recorded` — read before the node is
/// published, and the grant only ever advances, so a hand-off before the
/// wait starts is still seen. Returns `me`.
#[inline]
pub fn qsm_enqueue<W: Copy, C: SyncCtx<W> + ?Sized, Q: QsmQueue<W, C>>(
    c: &mut C,
    q: &mut Q,
    me: u64,
    recorded: u64,
) -> u64 {
    let pred = c.swap(q.tail(), me);
    if pred != 0 {
        c.store(q.next(pred), me);
        q.await_grant(c, q.grant(me), recorded);
    }
    me
}

/// The QSM grant wait, for a [`QsmQueue::await_grant`] that spins and then
/// parks: probe `grant` for what a park costs ([`SyncCtx::spin`]), then
/// park until it no longer holds `recorded`. A wake says nothing about the
/// word, so each one looks again.
#[inline]
pub fn qsm_await_grant<W: Copy, C: SyncCtx<W>>(c: &mut C, grant: W, recorded: u64) {
    let granted = c.spin(|c| c.load(grant) != recorded);
    if !granted {
        while c.wait(grant, recorded, None).seen == recorded {}
    }
}

/// The QSM release of node `me`: close a queue of one with a CAS of the
/// tail, or await the successor's link; then advance the successor's grant
/// and wake it. Advance first: a waiter that parks before it is woken, and
/// one that parks after it is refused by the compare. The wake names the
/// grant word as captured before the advance, after which the successor may
/// run, release and free its node.
#[inline]
pub fn qsm_unlock<W: Copy, C: SyncCtx<W> + ?Sized, Q: QsmQueue<W, C>>(
    c: &mut C,
    q: &mut Q,
    me: u64,
) {
    let mut succ = c.load(q.next(me));
    if succ == 0 {
        if c.cas(q.tail(), me, 0).is_ok() {
            return;
        }
        succ = q.await_link(c, q.next(me));
    }
    let grant = q.grant(succ);
    c.fetch_add(grant, 1);
    if q.wakes() {
        c.wake(grant, 1);
    }
}

/// Shape of a combining tree over `nprocs` inputs with bounded fan-in.
/// Nodes are numbered level by level from the leaves, so the root is the
/// last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeShape {
    /// Node count per level; `levels[0]` are the leaves.
    pub levels: Vec<usize>,
}

impl TreeShape {
    /// Computes the level sizes for `nprocs` inputs with `fan_in`.
    pub fn new(nprocs: usize, fan_in: usize) -> Self {
        assert!(fan_in >= 2, "fan-in must be at least 2");
        assert!(nprocs >= 1);
        let mut levels = Vec::new();
        let mut width = nprocs;
        loop {
            width = width.div_ceil(fan_in);
            levels.push(width);
            if width == 1 {
                break;
            }
        }
        TreeShape { levels }
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        self.levels.iter().sum()
    }

    /// The nodes from input `input`'s leaf up to the root, each as
    /// `(node index, fan)`: its number, and how many children feed it.
    /// Walked arithmetically, with no shape built.
    pub fn root_path(
        nprocs: usize,
        fan_in: usize,
        input: usize,
    ) -> impl Iterator<Item = (usize, usize)> {
        assert!(fan_in >= 2, "fan-in must be at least 2");
        assert!(input < nprocs, "input {input} of {nprocs}");
        // The next level's inputs (0 once the root is yielded), the path's
        // child among them, and the index of that level's first node.
        let (mut inputs, mut child, mut base) = (nprocs, input, 0);
        std::iter::from_fn(move || {
            if inputs == 0 {
                return None;
            }
            let width = inputs.div_ceil(fan_in);
            let j = child / fan_in;
            let first = j * fan_in;
            let fan = (first + fan_in).min(inputs) - first;
            let node = base + j;
            (base, child) = (base + width, j);
            inputs = if width == 1 { 0 } else { width };
            Some((node, fan))
        })
    }
}

/// One QSM combining-tree barrier as a substrate lays it out — a
/// [`TreeShape`] of nodes, each a monotone arrival count, and a release
/// eventcount — and waits on it: the `kernels` QSM tree barrier on one
/// line per word, which memsim and the checker run.
pub trait QsmTree<W: Copy, C: SyncCtx<W> + ?Sized> {
    /// The parties that arrive each episode.
    fn parties(&self) -> usize;
    /// The most children a node combines (≥ 2).
    fn fan_in(&self) -> usize;
    /// Node `n`'s arrival count, `n` a node index of [`TreeShape::root_path`].
    fn node(&self, n: usize) -> W;
    /// The release eventcount: the episodes completed.
    fn release(&self) -> W;
    /// Waits until `release` reaches `episode`.
    fn await_release(&mut self, c: &mut C, release: W, episode: u64);
}

/// Party `me`'s arrival in `episode` (the first is 1). It counts itself at
/// its leaf; a node's count only ever advances, so the node completes in
/// `episode` when its `fan` children have arrived that often, and its last
/// arriver carries it to the parent, with no reset to race the next
/// episode. The root's last arriver advances the release; every other
/// party awaits it. Whether this party released.
pub fn qsm_tree_arrive<W: Copy, C: SyncCtx<W> + ?Sized, T: QsmTree<W, C>>(
    c: &mut C,
    t: &mut T,
    me: usize,
    episode: u64,
) -> bool {
    for (node, fan) in TreeShape::root_path(t.parties(), t.fan_in(), me) {
        if c.fetch_add(t.node(node), 1) != episode * fan as u64 - 1 {
            t.await_release(c, t.release(), episode);
            return false;
        }
    }
    c.fetch_add(t.release(), 1);
    true
}

/// The shard of a key → slot map that holds a key, as a substrate lays it
/// out: each live key bound to a slot, each slot a reference count and the
/// word its key's primitive synchronizes on, and a critical section around
/// all of it. `service::ShardedTable` on a `HashMap`, slabs and a free list
/// behind a `std::sync::Mutex`; the `kernels` slot array on simulated words
/// behind a mutex word of [`lock`] and [`unlock`], which memsim and the
/// checker run.
pub trait SlotMap<W: Copy, C: SyncCtx<W>> {
    /// What the critical section holds.
    type Shard;
    /// Runs `f` in the shard's critical section.
    fn with_shard<R>(&self, c: &mut C, f: impl FnOnce(&mut C, &mut Self::Shard) -> R) -> R;
    /// The slot `key` is bound to, if it is live.
    fn lookup(&self, c: &mut C, s: &mut Self::Shard, key: u64) -> Option<u32>;
    /// Binds `key` to `slot`.
    fn insert(&self, c: &mut C, s: &mut Self::Shard, key: u64, slot: u32);
    /// Unbinds `key`.
    fn remove(&self, c: &mut C, s: &mut Self::Shard, key: u64);
    /// A free slot for `key`; or, when there is none, the word to park on
    /// until one frees, with the value it was read at.
    fn allocate(&self, c: &mut C, s: &mut Self::Shard, key: u64) -> Result<u32, (W, u64)>;
    /// Returns `slot` to the free slots.
    fn free(&self, c: &mut C, s: &mut Self::Shard, slot: u32);
    /// The references a live `slot` holds.
    fn refs(&self, c: &mut C, s: &mut Self::Shard, slot: u32) -> u64;
    /// Sets the references `slot` holds.
    fn set_refs(&self, c: &mut C, s: &mut Self::Shard, slot: u32, refs: u64);
    /// The word of `slot`.
    fn word(&self, s: &Self::Shard, slot: u32) -> W;
}

/// Attaches to `key`'s slot and counts the reference: one more on the slot
/// `key` is bound to, else the first on a free one bound to it now, its
/// word at 0 — parking until one frees if the map has none. Returns the
/// slot's word, named in the critical section: a slot is freed only at its
/// last reference's [`slot_detach`], so the reference keeps the name valid.
#[inline]
pub fn slot_attach<W: Copy, C: SyncCtx<W>, M: SlotMap<W, C>>(c: &mut C, m: &M, key: u64) -> W {
    block(c, |c, _| {
        m.with_shard(c, |c, s| {
            let (slot, refs) = match m.lookup(c, s, key) {
                Some(slot) => (slot, m.refs(c, s, slot) + 1),
                None => match m.allocate(c, s, key) {
                    Ok(slot) => {
                        m.insert(c, s, key, slot);
                        (slot, 1)
                    }
                    Err((w, seen)) => return Step::Park(w, seen, None),
                },
            };
            m.set_refs(c, s, slot, refs);
            Step::Ready(m.word(s, slot))
        })
    })
}

/// Drops one reference to `key`'s slot. The last resets the word, then
/// unbinds and frees the slot, its count left as it was; whether it did.
/// No waiter can be parked on the word then, since every parked waiter
/// holds a reference, so a store suffices; a wake that names the word
/// later is at worst a spurious one for its next tenant.
///
/// # Panics
///
/// If `key` is not live.
#[inline]
pub fn slot_detach<W: Copy, C: SyncCtx<W>, M: SlotMap<W, C>>(c: &mut C, m: &M, key: u64) -> bool {
    m.with_shard(c, |c, s| {
        let slot = m
            .lookup(c, s, key)
            .expect("detach of a key with no live slot");
        let refs = m.refs(c, s, slot);
        if refs > 1 {
            m.set_refs(c, s, slot, refs - 1);
            return false;
        }
        c.store(m.word(s, slot), 0);
        m.remove(c, s, key);
        m.free(c, s, slot);
        true
    })
}

/// The keyed mutex request's acquire: [`slot_attach`] to `key`'s slot,
/// then [`lock`] its word. Returns the word and what [`lock`] returns; the
/// reference it counted is released by [`keyed_unlock`].
#[inline]
pub fn keyed_lock<W: Copy, C: SyncCtx<W>, M: SlotMap<W, C>, T>(
    c: &mut C,
    m: &M,
    key: u64,
    contended: impl FnOnce() -> T,
) -> (W, Option<(T, Contention)>) {
    let w = slot_attach(c, m, key);
    (w, lock(c, w, contended))
}

/// The keyed mutex request's release: [`unlock`] `key`'s word `w`, then
/// [`slot_detach`]. Unlock first: the last detach frees the slot to
/// another key, and until then this reference keeps the word `key`'s.
/// Whether the detach recycled the slot.
#[inline]
pub fn keyed_unlock<W: Copy, C: SyncCtx<W>, M: SlotMap<W, C>>(
    c: &mut C,
    m: &M,
    key: u64,
    w: W,
) -> bool {
    unlock(c, w);
    slot_detach(c, m, key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_ge_survives_wraparound() {
        assert!(seq_ge(5, 5));
        assert!(seq_ge(6, 5));
        assert!(!seq_ge(5, 6));
        assert!(seq_ge(2, u64::MAX - 2)); // wrapped past zero
        assert!(!seq_ge(u64::MAX - 2, 2));
    }

    #[test]
    fn shape_arithmetic() {
        let s = TreeShape::new(16, 4);
        assert_eq!(s.levels, vec![4, 1]);
        assert_eq!(s.nodes(), 5);
        let path: Vec<_> = TreeShape::root_path(16, 4, 13).collect();
        assert_eq!(path, [(3, 4), (4, 4)]);
        assert_eq!(TreeShape::root_path(16, 4, 0).next(), Some((0, 4)));
    }

    #[test]
    fn shape_handles_ragged_sizes() {
        let s = TreeShape::new(9, 4);
        assert_eq!(s.levels, vec![3, 1]);
        // Leaf 2 combines a single processor (pid 8); the root three leaves.
        let path: Vec<_> = TreeShape::root_path(9, 4, 8).collect();
        assert_eq!(path, [(2, 1), (3, 3)]);
        let tiny = TreeShape::new(1, 4);
        assert_eq!(tiny.levels, vec![1]);
        assert_eq!(TreeShape::root_path(1, 4, 0).collect::<Vec<_>>(), [(0, 1)]);
        // Every input's path ends at the root, the last node. Every node
        // is on a path, with one fan; the leaves' fans count each input
        // once, and all fans count each input and each non-root node once.
        for (nprocs, fan_in) in [(9, 4), (17, 2), (64, 4), (65, 3)] {
            let nodes = TreeShape::new(nprocs, fan_in).nodes();
            let mut fan = vec![None; nodes];
            for input in 0..nprocs {
                let path: Vec<_> = TreeShape::root_path(nprocs, fan_in, input).collect();
                assert_eq!(path.last().map(|&(n, _)| n), Some(nodes - 1));
                for (n, f) in path {
                    assert!(*fan[n].get_or_insert(f) == f, "node {n} has one fan");
                }
            }
            let leaves = TreeShape::new(nprocs, fan_in).levels[0];
            let fans: Vec<usize> = fan
                .iter()
                .map(|f| f.expect("every node is on a path"))
                .collect();
            assert_eq!(fans[..leaves].iter().sum::<usize>(), nprocs);
            assert_eq!(fans.iter().sum::<usize>(), nprocs + nodes - 1);
        }
    }

    #[test]
    #[should_panic(expected = "fan-in must be at least 2")]
    fn degenerate_fan_in_rejected() {
        TreeShape::new(4, 1);
    }
}
