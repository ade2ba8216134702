//! Programs under test and the schedule-controlled execution context.
//!
//! Each thread of a [`Program`] runs as a stackful coroutine
//! ([`simcore::coro`]) on the host thread that explores it. A shared-memory
//! operation on [`ChkCtx`] publishes what it is about to do in the run's
//! `Shared` state and suspends to the scheduler loop
//! ([`crate::Explorer`]); the loop resumes the thread it chose, which
//! executes the operation and runs on to its next one. The state sits in an
//! `Rc<RefCell<_>>` that both sides borrow only between switches: a borrow
//! held across `suspend` would meet the scheduler's own `borrow_mut`.

use crate::race::{AccessSite, RaceDetector, RaceReport};
use kernels::{Addr, LockEvent, ProcCtx, SyncCtx, Waited, Word};
use simcore::coro;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// Sentinel payload that unwinds a thread's body when its run is torn down
/// (verdict already decided elsewhere). Raised with `resume_unwind`, so no
/// panic hook sees it; never reported as a failure.
struct ChkAbort;

/// Wait predicate mirroring the kernels' spin semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pred {
    /// Runnable when the word differs from the value.
    WhileEq(Word),
    /// Runnable when the word equals the value.
    UntilEq(Word),
}

impl Pred {
    pub(crate) fn satisfied(self, cur: Word) -> bool {
        match self {
            Pred::WhileEq(v) => cur != v,
            Pred::UntilEq(v) => cur == v,
        }
    }
}

/// What kind of shared-memory operation a thread is about to take (or has
/// taken). Published at every schedule point so the explorer can reason
/// about operation dependence (partial-order reduction) and so replays can
/// be rendered per-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A synchronization load ([`SyncCtx::load`]).
    SyncLoad,
    /// A synchronization store ([`SyncCtx::store`]).
    SyncStore,
    /// An atomic read-modify-write (`swap`, `cas`, `fetch_add`).
    Rmw,
    /// A race-checked data load ([`ProcCtx::data_load`]).
    DataLoad,
    /// A race-checked data store ([`ProcCtx::data_store`]).
    DataStore,
    /// One probe of a watchpoint spin (`spin_while` / `spin_until`).
    SpinRead,
    /// The atomic compare-and-block of [`SyncCtx::wait`] (also the
    /// resume step a woken waiter takes to re-read the word).
    FutexWait,
    /// A [`SyncCtx::wake`] or [`SyncCtx::wake_tagged`] draining parked waiters of a word.
    FutexWake,
}

impl OpKind {
    /// Can the operation modify memory?
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::SyncStore | OpKind::Rmw | OpKind::DataStore)
    }

    /// Is the operation part of the futex protocol? Futex ops interact
    /// through the wait queue, not (only) through the word's value, so
    /// dependence treats them like writes even though they modify nothing.
    pub fn is_futex(self) -> bool {
        matches!(self, OpKind::FutexWait | OpKind::FutexWake)
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpKind::SyncLoad => "load",
            OpKind::SyncStore => "store",
            OpKind::Rmw => "rmw",
            OpKind::DataLoad => "data-load",
            OpKind::DataStore => "data-store",
            OpKind::SpinRead => "spin",
            OpKind::FutexWait => "futex-wait",
            OpKind::FutexWake => "futex-wake",
        };
        f.write_str(s)
    }
}

/// The pending operation of a parked thread: what it will do if granted
/// its next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OpMeta {
    pub addr: Addr,
    pub kind: OpKind,
}

impl OpMeta {
    /// Mazurkiewicz dependence: two operations commute unless they touch
    /// the same word and at least one can write it. Spin probes and loads
    /// of the same word commute; anything involving a write to the shared
    /// word does not. Futex operations on a word never commute with any
    /// other operation on it: waits enqueue in FIFO order (a partial wake
    /// observes that order) and wakes transfer queue entries, so reordering
    /// them against each other — or against the reads they compare with —
    /// changes the run. Treating them as conservatively dependent keeps the
    /// sleep-set reduction sound.
    pub(crate) fn dependent(self, other: OpMeta) -> bool {
        self.addr == other.addr
            && (self.kind.is_write()
                || other.kind.is_write()
                || self.kind.is_futex()
                || other.kind.is_futex())
    }
}

/// One executed operation, recorded when the run collects an op log (used
/// by schedule replay to narrate the interleaving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Global step index (0-based) at which the op executed.
    pub step: usize,
    /// Executing thread.
    pub pid: usize,
    /// Operation class.
    pub kind: OpKind,
    /// Word touched.
    pub addr: Addr,
    /// Value of the word *after* the operation (for reads: the value read).
    pub value: Word,
}

impl std::fmt::Display for OpRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {:>4}  t{} {:<10} [{:>3}] = {}",
            self.step,
            self.pid,
            self.kind.to_string(),
            self.addr,
            self.value
        )
    }
}

/// A waiter bypassed while starvation accounting is on: the thread issued
/// [`LockEvent::AcquireStart`] and other threads completed acquisitions of
/// the same lock more than the configured bound allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarvationReport {
    /// The bypassed thread.
    pub victim: usize,
    /// The contended lock's id.
    pub lock: usize,
    /// How many times other threads acquired while the victim waited.
    pub bypasses: usize,
}

impl std::fmt::Display for StarvationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread {} was bypassed {} times while waiting for lock {}",
            self.victim, self.bypasses, self.lock
        )
    }
}

/// Per-waiter accounting while a thread is between `AcquireStart` and
/// `Acquired`.
///
/// Bypass counting must not start at `AcquireStart`: the waiter has not
/// yet executed the acquire path's **doorway** (the swap / fetch-and-add
/// that claims its queue position), and acquisitions racing a
/// not-yet-enqueued waiter are legitimate for any lock. The detector
/// instead activates when the waiter demonstrably *waits*: its first spin
/// probe (queue locks spin only after enqueueing) or the first repetition
/// of an identical operation on the same word (the retry loop of
/// test-and-set-style locks). From that point on, every acquisition by
/// another thread is a bypass.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    lock: usize,
    bypasses: usize,
    /// True once the waiter is past its doorway (see above).
    active: bool,
    /// The waiter's previous operation since `AcquireStart`, for retry
    /// detection.
    last_op: Option<OpMeta>,
}

/// Analysis configuration of one run, fixed before the threads start.
#[derive(Clone, Default)]
pub(crate) struct RunCfg {
    /// Fail a run when a waiter is bypassed more than this many times.
    pub bypass_bound: Option<usize>,
    /// Record every executed op (schedule replay).
    pub record_ops: bool,
}

/// Scheduler-visible state of one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TState {
    /// Executing local code (or not yet at its first operation).
    Running,
    /// Suspended at a schedule point, waiting to be granted a step.
    Ready,
    /// Parked in a spin whose predicate is false.
    Blocked(Addr, Pred),
    /// Parked in a futex wait on the word. Unlike [`TState::Blocked`], the
    /// scheduler never re-readies a parked thread on its own: only a
    /// [`kernels::SyncCtx::wake`] covering it does. That asymmetry is
    /// the whole point — a kernel that loses a wakeup leaves the thread
    /// parked forever, and the explorer reports it as such.
    Parked(Addr),
    /// Body returned (or unwound).
    Finished,
}

/// Shared state of one execution.
pub(crate) struct Shared {
    pub memory: Vec<Word>,
    pub states: Vec<TState>,
    /// First assertion/panic message raised by the program.
    pub panic_msg: Option<String>,
    /// Tear-down flag: a thread resumed while it is set unwinds instead of
    /// taking its step.
    pub aborted: bool,
    /// Each suspended thread's next operation (valid while Ready/Blocked).
    pub pending: Vec<Option<OpMeta>>,
    /// FIFO futex wait queue: `(word, thread, tag)` in park order, across
    /// all words. A wake drains the oldest entries matching its word — and
    /// its tag, when it names one (a tagged wake of `service::protocol`);
    /// `None` is a waiter that parked untagged.
    pub futexq: Vec<(Addr, usize, Option<Word>)>,
    /// Happens-before engine for this run.
    pub race: RaceDetector,
    /// First race detected this run.
    pub race_report: Option<RaceReport>,
    /// First bypass-bound violation this run.
    pub starvation: Option<StarvationReport>,
    /// Bypass accounting for threads inside an acquire, per thread.
    waiting: Vec<Option<Waiting>>,
    /// Executed-op log (empty unless `cfg.record_ops`).
    pub oplog: Vec<OpRecord>,
    /// Ops granted so far (the global step counter).
    steps_taken: usize,
    pub cfg: RunCfg,
}

impl Shared {
    pub(crate) fn new(memory: Vec<Word>, nthreads: usize, cfg: RunCfg) -> Self {
        let words = memory.len();
        Shared {
            memory,
            states: vec![TState::Running; nthreads],
            panic_msg: None,
            aborted: false,
            pending: vec![None; nthreads],
            futexq: Vec::new(),
            race: RaceDetector::new(nthreads, words),
            race_report: None,
            starvation: None,
            waiting: vec![None; nthreads],
            oplog: Vec::new(),
            steps_taken: 0,
            cfg,
        }
    }

    /// Applies the lock events a thread buffered since its last granted
    /// step, at the schedule's own points only: when the thread is granted
    /// a step, or when it finishes.
    fn apply_lock_events(&mut self, pid: usize, events: &mut Vec<LockEvent>) {
        for ev in events.drain(..) {
            match ev {
                LockEvent::AcquireStart(lock) => {
                    self.waiting[pid] = Some(Waiting {
                        lock,
                        bypasses: 0,
                        active: false,
                        last_op: None,
                    });
                }
                LockEvent::Acquired(lock) => {
                    self.waiting[pid] = None;
                    for (u, slot) in self.waiting.iter_mut().enumerate() {
                        if u == pid {
                            continue;
                        }
                        if let Some(w) = slot {
                            if w.lock == lock && w.active {
                                w.bypasses += 1;
                                if let Some(bound) = self.cfg.bypass_bound {
                                    if w.bypasses > bound && self.starvation.is_none() {
                                        self.starvation = Some(StarvationReport {
                                            victim: u,
                                            lock,
                                            bypasses: w.bypasses,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
                LockEvent::Released(_) => {}
            }
        }
    }

    /// Feeds `pid`'s granted operation into its wait-state machine: a spin
    /// probe or a repeated identical op activates bypass counting (the
    /// waiter is demonstrably past its doorway and waiting).
    fn note_wait_op(&mut self, pid: usize, meta: OpMeta) {
        if let Some(w) = &mut self.waiting[pid] {
            if w.active {
                return;
            }
            if meta.kind == OpKind::SpinRead || w.last_op == Some(meta) {
                w.active = true;
            } else {
                w.last_op = Some(meta);
            }
        }
    }

    /// Race-detector bookkeeping for one granted operation.
    fn track_access(&mut self, pid: usize, meta: OpMeta, op_index: usize) {
        match meta.kind {
            OpKind::SyncLoad | OpKind::SpinRead => self.race.sync_read(pid, meta.addr),
            // A wait reads the word (the compare); a wake behaves like a
            // release on it — the waker's prior writes happen-before the
            // wakee's resume, which is exactly the sync-write/sync-read
            // pairing on the futex word.
            OpKind::FutexWait => self.race.sync_read(pid, meta.addr),
            OpKind::SyncStore | OpKind::FutexWake => self.race.sync_write(pid, meta.addr),
            OpKind::Rmw => {
                self.race.sync_read(pid, meta.addr);
                self.race.sync_write(pid, meta.addr);
            }
            OpKind::DataLoad | OpKind::DataStore => {
                let site = AccessSite {
                    pid,
                    op_index,
                    write: meta.kind.is_write(),
                };
                let found = if meta.kind.is_write() {
                    self.race.data_write(pid, meta.addr, site)
                } else {
                    self.race.data_read(pid, meta.addr, site)
                };
                if let Some(r) = found {
                    if self.race_report.is_none() {
                        self.race_report = Some(r);
                    }
                }
            }
        }
    }

    /// Logs one executed op and advances the global step counter.
    fn finish_op(&mut self, pid: usize, meta: OpMeta) {
        if self.cfg.record_ops {
            self.oplog.push(OpRecord {
                step: self.steps_taken,
                pid,
                kind: meta.kind,
                addr: meta.addr,
                value: self.memory[meta.addr],
            });
        }
        self.steps_taken += 1;
    }
}

/// One execution's state, shared by the scheduler loop and the threads'
/// coroutines on its host thread.
pub(crate) type RunState = Rc<RefCell<Shared>>;

/// The execution context handed to each thread of a [`Program`]. Implements
/// [`kernels::SyncCtx`] and [`kernels::ProcCtx`], so lock/barrier kernels
/// and the service's protocols run on it unmodified.
pub struct ChkCtx {
    pid: usize,
    nthreads: usize,
    rs: RunState,
    /// Lock events emitted since the last granted step. Kernel wrappers
    /// emit during unscheduled local code, which the analysis state must
    /// not depend on, so they are buffered and applied at the next granted
    /// step (or at thread finish) — both points of the schedule.
    events: Vec<LockEvent>,
    /// Shared-memory ops this thread has issued (site coordinates).
    ops_done: usize,
}

impl ChkCtx {
    /// The one schedule point. Publishes `meta` as this thread's next
    /// operation, suspends in state `wait_as` until the scheduler grants the
    /// step (or tears the run down, which unwinds the body from here), then
    /// executes `f` on the run's state with the step's bookkeeping around it.
    fn step<R>(&mut self, meta: OpMeta, wait_as: TState, f: impl FnOnce(&mut Shared) -> R) -> R {
        {
            let mut g = self.rs.borrow_mut();
            g.pending[self.pid] = Some(meta);
            g.states[self.pid] = wait_as;
        }
        coro::suspend();
        let mut g = self.rs.borrow_mut();
        if g.aborted {
            drop(g);
            resume_unwind(Box::new(ChkAbort));
        }
        g.states[self.pid] = TState::Running;
        g.apply_lock_events(self.pid, &mut self.events);
        g.note_wait_op(self.pid, meta);
        g.track_access(self.pid, meta, self.ops_done);
        let r = f(&mut g);
        g.finish_op(self.pid, meta);
        self.ops_done += 1;
        r
    }

    /// An operation any ready thread may take: one step, waiting as
    /// [`TState::Ready`].
    fn op<R>(&mut self, addr: Addr, kind: OpKind, f: impl FnOnce(&mut Shared) -> R) -> R {
        self.step(OpMeta { addr, kind }, TState::Ready, f)
    }

    fn watch(&mut self, addr: Addr, pred: Pred) -> Word {
        let meta = OpMeta {
            addr,
            kind: OpKind::SpinRead,
        };
        let mut wait_as = TState::Ready;
        loop {
            let cur = self.step(meta, wait_as, |g| g.memory[addr]);
            if pred.satisfied(cur) {
                return cur;
            }
            // Wake-up raced a conflicting write (or this is the first
            // probe): block until the scheduler re-readies us.
            wait_as = TState::Blocked(addr, pred);
        }
    }

    /// The futex wake: one granted step that drains up to `n` of the
    /// oldest futex-queue entries for `addr` — those that parked with
    /// `tag`, when it is given — and re-readies their threads.
    fn wake_where(&mut self, addr: Addr, tag: Option<Word>, n: usize) -> usize {
        self.op(addr, OpKind::FutexWake, |g| {
            let mut woken = 0;
            let mut i = 0;
            while i < g.futexq.len() && woken < n {
                if g.futexq[i].0 == addr && (tag.is_none() || g.futexq[i].2 == tag) {
                    let (_, thread, _) = g.futexq.remove(i);
                    debug_assert!(
                        matches!(g.states[thread], TState::Parked(_)),
                        "futex queue entry for a non-parked thread"
                    );
                    g.states[thread] = TState::Ready;
                    woken += 1;
                } else {
                    i += 1;
                }
            }
            woken
        })
    }
}

impl SyncCtx for ChkCtx {
    fn load(&mut self, addr: Addr) -> Word {
        self.op(addr, OpKind::SyncLoad, |g| g.memory[addr])
    }
    fn store(&mut self, addr: Addr, val: Word) {
        self.op(addr, OpKind::SyncStore, |g| g.memory[addr] = val);
    }
    fn swap(&mut self, addr: Addr, val: Word) -> Word {
        self.op(addr, OpKind::Rmw, |g| {
            std::mem::replace(&mut g.memory[addr], val)
        })
    }
    fn cas(&mut self, addr: Addr, expected: Word, new: Word) -> Result<Word, Word> {
        self.op(addr, OpKind::Rmw, |g| {
            let old = g.memory[addr];
            if old == expected {
                g.memory[addr] = new;
                Ok(old)
            } else {
                Err(old)
            }
        })
    }
    fn fetch_add(&mut self, addr: Addr, delta: Word) -> Word {
        self.op(addr, OpKind::Rmw, |g| {
            let old = g.memory[addr];
            g.memory[addr] = old.wrapping_add(delta);
            old
        })
    }
    /// The futex wait. The first granted step is the atomic
    /// compare-and-block: the word is read and, if it still equals
    /// `expected`, the thread enqueues on the futex queue (under `tag`) and
    /// becomes parked before anyone else steps — no window for
    /// a wake to slip through. A parked thread is unschedulable until some
    /// wake re-readies it, after which one more granted step re-reads the
    /// word.
    fn wait(&mut self, addr: Addr, expected: Word, tag: Option<Word>) -> Waited {
        let meta = OpMeta {
            addr,
            kind: OpKind::FutexWait,
        };
        let pid = self.pid;
        let cur = self.step(meta, TState::Ready, |g| {
            let cur = g.memory[addr];
            if cur == expected {
                g.futexq.push((addr, pid, tag));
            }
            cur
        });
        if cur != expected {
            return Waited {
                parked: false,
                seen: cur,
            };
        }
        let seen = self.step(meta, TState::Parked(addr), |g| g.memory[addr]);
        Waited { parked: true, seen }
    }
    fn wake(&mut self, addr: Addr, n: usize) -> usize {
        self.wake_where(addr, None, n)
    }
    /// One wake step per pair, in order, where the parking lot sweeps them
    /// all at once: this explores every interleaving the sweep allows and
    /// some it does not.
    fn wake_tagged(&mut self, pairs: &[(Addr, Word)]) -> usize {
        pairs
            .iter()
            .map(|&(addr, tag)| self.wake_where(addr, Some(tag), usize::MAX))
            .sum()
    }
}

impl ProcCtx for ChkCtx {
    fn pid(&self) -> usize {
        self.pid
    }
    fn nprocs(&self) -> usize {
        self.nthreads
    }
    fn spin_while(&mut self, addr: Addr, val: Word) -> Word {
        self.watch(addr, Pred::WhileEq(val))
    }
    fn spin_until(&mut self, addr: Addr, val: Word) {
        self.watch(addr, Pred::UntilEq(val));
    }
    fn data_load(&mut self, addr: Addr) -> Word {
        self.op(addr, OpKind::DataLoad, |g| g.memory[addr])
    }
    fn data_store(&mut self, addr: Addr, val: Word) {
        self.op(addr, OpKind::DataStore, |g| g.memory[addr] = val);
    }
    fn lock_event(&mut self, event: LockEvent) {
        self.events.push(event);
    }
}

/// A multi-threaded program over a small shared memory.
#[derive(Clone)]
pub struct Program {
    pub(crate) nthreads: usize,
    pub(crate) memory_words: usize,
    pub(crate) init: Vec<(Addr, Word)>,
    pub(crate) body: Arc<dyn Fn(&mut ChkCtx) + Send + Sync>,
}

impl Program {
    /// The most threads a program may have: the explorer keeps per-thread
    /// sets as bits of one `u64`.
    pub const MAX_THREADS: usize = 64;

    /// Creates a program: `body` runs once per thread (distinguish roles
    /// with [`ChkCtx::pid`] via the `ProcCtx` trait).
    ///
    /// Each invocation is a coroutine on the host thread exploring the
    /// program, which asks three things of `body`:
    ///
    /// * it has [`simcore::coro::STACK_BYTES`] (256 KiB) of stack where a
    ///   spawned thread had 2 MiB; running past it stops the process on the
    ///   guard page;
    /// * it must not block the host thread on something another thread's
    ///   body does (a mutex, a channel): that body cannot run until this one
    ///   reaches its next operation;
    /// * it must not hold a `RefCell` borrow (or anything else another body
    ///   needs) across an operation, nor issue an operation from a
    ///   destructor: a torn-down run unwinds every body from the operation
    ///   it is suspended in, and an operation issued while unwinding is
    ///   answered by a second unwind — a panic inside a panic.
    pub fn new<F>(nthreads: usize, memory_words: usize, body: F) -> Self
    where
        F: Fn(&mut ChkCtx) + Send + Sync + 'static,
    {
        assert!(
            (1..=Self::MAX_THREADS).contains(&nthreads),
            "1..={} threads supported",
            Self::MAX_THREADS
        );
        Program {
            nthreads,
            memory_words,
            init: Vec::new(),
            body: Arc::new(body),
        }
    }

    /// Sets nonzero initial memory words.
    pub fn with_init(mut self, init: Vec<(Addr, Word)>) -> Self {
        self.init = init;
        self
    }

    /// Number of threads.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// The memory image a run starts from: `memory_words` zeroed words
    /// with the [`Program::with_init`] values applied. Harnesses use its
    /// length to locate trailing workload slots (e.g. the counter).
    pub fn initial_memory(&self) -> Vec<Word> {
        let mut m = vec![0; self.memory_words];
        for &(a, v) in &self.init {
            m[a] = v;
        }
        m
    }

    /// Runs the thread body for `pid` over `rs`, translating panics into
    /// the shared state. The body of one coroutine per run.
    pub(crate) fn run_thread(&self, pid: usize, rs: RunState) {
        let mut ctx = ChkCtx {
            pid,
            nthreads: self.nthreads,
            rs: Rc::clone(&rs),
            events: Vec::new(),
            ops_done: 0,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| (self.body)(&mut ctx)));
        let mut g = rs.borrow_mut();
        // Trailing events (e.g. the Released after a kernel's final store)
        // are applied here: the thread finishing is itself a point of the
        // schedule — the scheduler takes no decision while a thread runs.
        g.apply_lock_events(pid, &mut ctx.events);
        if let Err(payload) = outcome {
            if payload.downcast_ref::<ChkAbort>().is_none() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".to_string());
                if g.panic_msg.is_none() {
                    g.panic_msg = Some(msg);
                }
            }
        }
        g.states[pid] = TState::Finished;
    }
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("nthreads", &self.nthreads)
            .field("memory_words", &self.memory_words)
            .field("init", &self.init)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pred_semantics() {
        assert!(Pred::WhileEq(1).satisfied(0));
        assert!(!Pred::WhileEq(1).satisfied(1));
        assert!(Pred::UntilEq(1).satisfied(1));
        assert!(!Pred::UntilEq(1).satisfied(0));
    }

    #[test]
    fn initial_memory_applies_init() {
        let p = Program::new(1, 4, |_| {}).with_init(vec![(2, 9)]);
        assert_eq!(p.initial_memory(), vec![0, 0, 9, 0]);
    }

    #[test]
    #[should_panic(expected = "threads supported")]
    fn zero_threads_rejected() {
        Program::new(0, 1, |_| {});
    }

    #[test]
    fn op_dependence_is_write_centric() {
        let r = |addr| OpMeta {
            addr,
            kind: OpKind::SyncLoad,
        };
        let w = |addr| OpMeta {
            addr,
            kind: OpKind::SyncStore,
        };
        assert!(!r(0).dependent(r(0)), "two reads commute");
        assert!(r(0).dependent(w(0)));
        assert!(w(0).dependent(w(0)));
        assert!(!w(0).dependent(w(1)), "different words commute");
    }

    #[test]
    fn bypass_accounting_flags_over_bound() {
        let cfg = RunCfg {
            bypass_bound: Some(1),
            ..RunCfg::default()
        };
        let mut g = Shared::new(vec![0; 4], 2, cfg);
        let mut waiter = vec![LockEvent::AcquireStart(7)];
        g.apply_lock_events(0, &mut waiter);
        // The wait arms at AcquireStart and activates at the waiter's
        // first spin probe.
        g.note_wait_op(
            0,
            OpMeta {
                addr: 0,
                kind: OpKind::SpinRead,
            },
        );
        // Thread 1 acquires and releases twice while 0 waits.
        for _ in 0..2 {
            let mut evs = vec![LockEvent::Acquired(7), LockEvent::Released(7)];
            g.apply_lock_events(1, &mut evs);
        }
        let s = g.starvation.expect("second bypass exceeds bound 1");
        assert_eq!(s.victim, 0);
        assert_eq!(s.lock, 7);
        assert_eq!(s.bypasses, 2);
    }
}
