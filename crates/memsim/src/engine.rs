//! The serialized discrete-event executor.
//!
//! Every simulated processor is a stackful coroutine ([`simcore::coro`]), but
//! only as a convenience for writing straight-line kernel code: the engine
//! admits exactly one memory operation at a time, chosen as the pending
//! request with the smallest `(issue time, pid)`. Because a processor
//! suspends on every operation and computes deterministically between
//! them, the whole simulation is a pure function of (machine parameters,
//! program).
//!
//! ## The engine loop (the host-performance core)
//!
//! One host thread — the one that called [`crate::Machine::run`] — owns the
//! `EngineCore` and runs everything. `EngineCore::run_live` alternates
//! two steps until every processor is done:
//!
//! 1. resume each processor that holds a reply; it runs its body up to the
//!    next [`crate::Proc`] operation, leaves the `Request` in its
//!    `Mailbox` and suspends, and the loop files the request as pending;
//! 2. with no reply undelivered, `drive` executes globally-minimal pending
//!    requests until one produces a reply.
//!
//! A handoff is a coroutine switch out and one back in: a jump each way,
//! inlined into this loop and into [`crate::Proc`]'s operations — no host
//! scheduler, no lock, no atomic, and no `ret` the CPU's return predictor
//! did not see the `call` for ([`simcore::coro`] has the measurements). The
//! loop side of that is a rule to keep: a resume must sit in `run_live`'s
//! own frame, never in a helper that returns to it, or every handoff pays
//! mispredicted returns on both stacks. Determinism needs no argument about
//! arrival order: one thread executes the deterministic choice, and the
//! order in which replied processors are resumed cannot matter because
//! between two operations a body touches only its own state, its mailbox
//! and its own trace ring. What that asks of a body is on [`crate::Proc`].
//!
//! Running `drive` on the submitting body's stack instead, so that a reply
//! to the processor that just submitted (a quarter of all steps on the
//! benchmark's sweep) needs no switch at all, was built and measured with
//! this switch in place: it was slower on the sweep, most on the cells
//! where replies rarely go back to the submitter (EXPERIMENTS.md,
//! "sim_sweep — a switch for the price of a jump"). A switch that is
//! predicted costs too little for that to pay.
//!
//! ## Timing model
//!
//! * Cache hit: `hit_cycles`, no shared resource.
//! * Miss / upgrade / remote RMW: one interconnect transaction
//!   ([`crate::interconnect::Interconnect::transaction`]) plus `inv_cycles`
//!   per remote copy invalidated.
//! * `spin_while` / `spin_until`: one probe, then the processor sleeps on a
//!   *watchpoint* until a write actually changes the watched word. Each wake
//!   re-probe is charged as a real coherence miss, which is what produces the
//!   invalidation-storm behaviour of test-and-test-and-set locks.
//!
//! One documented simplification: wake re-probes are scheduled immediately
//! after the write that triggered them (they "win the bus"), even if another
//! processor had an earlier-issued operation still pending. This mirrors how
//! an invalidation burst monopolizes a real bus and keeps the engine simple.

use crate::coherence::{Coherence, LineState};
use crate::interconnect::Interconnect;
use crate::metrics::Metrics;
use crate::params::{MachineParams, SchedParams};
use crate::proc::SimAbort;
use crate::{Addr, SimError, Word};
use simcore::coro::{Coroutine, Step};
use std::any::Any;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use trace::EventKind;

/// Predicate a sleeping processor is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitPred {
    /// Sleep while the word equals the value (wake when it differs).
    WhileEq(Word),
    /// Sleep until the word equals the value.
    UntilEq(Word),
}

impl WaitPred {
    fn satisfied(self, current: Word) -> bool {
        match self {
            WaitPred::WhileEq(v) => current != v,
            WaitPred::UntilEq(v) => current == v,
        }
    }
}

/// One memory/timing operation submitted by a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Load(Addr),
    Store(Addr, Word),
    Swap(Addr, Word),
    Cas(Addr, Word, Word),
    FetchAdd(Addr, Word),
    Spin(Addr, WaitPred),
    /// Park if the word still equals the expected value (checked atomically
    /// against engine memory); return immediately otherwise.
    FutexWait(Addr, Word),
    /// Wake up to `n` processors parked on the word, FIFO.
    FutexWake(Addr, u64),
    Delay(u64),
    Done,
}

/// A submitted request.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    pub pid: usize,
    /// The processor's local clock when it issued the operation.
    pub issue: u64,
    pub op: Op,
}

/// Engine → processor response.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reply {
    /// Operation result (old value for RMWs, observed value for loads/spins).
    pub value: Word,
    /// The processor's new local clock.
    pub now: u64,
    /// The operation was a `FutexWait` that parked, and this is its wake.
    pub parked: bool,
}

/// What a processor's body and the engine loop exchange across a coroutine
/// switch. The body fills `request` and suspends; the loop
/// fills `reply` and resumes it — or resumes it with no reply, which tells
/// the body to unwind. One host thread runs both, in turn.
#[derive(Default)]
pub(crate) struct Mailbox {
    pub(crate) request: Cell<Option<Request>>,
    pub(crate) reply: Cell<Option<Reply>>,
}

/// A processor in a waiter list, stored as `pid + 1`; zero is no processor,
/// so that a table of links allocates zeroed.
type Link = u32;

/// Per-word FIFO waiter lists, keyed directly by word address — the watched
/// span is the simulated shared memory, which is small and dense. A
/// processor waits on at most one word at a time, so the lists are threaded
/// through one `next` link per processor and a word holds only its list's
/// two ends: a run's table is `words` × 8 zero bytes, whatever is parked.
/// Order is park order — wake order is part of the deterministic timing.
#[derive(Debug, Clone)]
struct WatchTable {
    /// Per word: its longest- and its shortest-waiting processor.
    ends: Vec<[Link; 2]>,
    /// Per processor: the waiter behind it in its list.
    next: Vec<Link>,
}

impl WatchTable {
    fn new(words: usize, nprocs: usize) -> Self {
        WatchTable {
            ends: vec![[0; 2]; words],
            next: vec![0; nprocs],
        }
    }

    /// Appends `pid` to the waiters of `addr`.
    fn push(&mut self, addr: Addr, pid: usize) {
        let link = pid as Link + 1;
        self.next[pid] = 0;
        let [first, last] = &mut self.ends[addr];
        match *last {
            0 => *first = link,
            tail => self.next[tail as usize - 1] = link,
        }
        *last = link;
    }

    /// Removes and returns the longest-waiting processor of `addr`.
    fn pop(&mut self, addr: Addr) -> Option<usize> {
        let [first, last] = &mut self.ends[addr];
        let pid = first.checked_sub(1)? as usize;
        *first = self.next[pid];
        if *first == 0 {
            *last = 0;
        }
        Some(pid)
    }

    /// The processor that has waited on `addr` for the shortest time.
    fn last(&self, addr: Addr) -> Option<usize> {
        Some(self.ends[addr][1].checked_sub(1)? as usize)
    }
}

/// Access classes with distinct coherence behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    Rmw,
}

#[derive(Debug, Clone)]
enum ProcState {
    /// Owes the engine a request.
    Running,
    /// Submitted, not yet executed.
    Pending(Request),
    /// Parked on a watchpoint.
    Waiting {
        addr: Addr,
        pred: WaitPred,
        /// Local clock while parked (advanced by charged re-probes).
        clock: u64,
        /// When the processor went to sleep, for spin-wait accounting.
        sleep_start: u64,
    },
    /// Parked in futex `wait`; released only by an explicit wake.
    ParkedFutex {
        addr: Addr,
        /// The value observed at park time (reported on a lost wakeup).
        expected: Word,
        /// When the processor parked, for wait accounting.
        sleep_start: u64,
    },
    /// Off-core with a deferred request, waiting for the scheduler to find
    /// it a core (only with [`MachineParams::sched`] configured).
    ReadyQueued(Request),
    Done,
}

/// Oversubscription scheduler state: P logical processors multiplexed onto
/// `params.cores` anonymous execution slots.
#[derive(Debug, Clone)]
struct SchedState {
    p: SchedParams,
    /// Whether the processor currently holds a core.
    on_core: Vec<bool>,
    /// Free-at times of unoccupied cores, min first. Cores carry no other
    /// state, so a heap of timestamps is the whole allocator.
    free_cores: BinaryHeap<Reverse<u64>>,
    /// FIFO of processors waiting for a core (state [`ProcState::ReadyQueued`]).
    ready: VecDeque<usize>,
    /// When the processor's current quantum started, indexed by pid.
    slice_start: Vec<u64>,
}

/// One entry in a processor's recorded log, in program order: a request
/// its closure submitted, with its issue time.
pub(crate) type LogEntry = (u64, Op);

/// Recording-mode state: per-processor logs of everything submitted, plus
/// machine snapshots captured at fragment boundaries.
#[derive(Debug)]
pub(crate) struct Recorder {
    /// Fragment length in simulated cycles (the K of "snapshot every K").
    fragment: u64,
    /// The boundary the next snapshot will satisfy (a multiple of
    /// `fragment`, monotonically increasing).
    next_boundary: u64,
    /// Per-processor logs, indexed by pid.
    pub(crate) logs: Vec<Vec<LogEntry>>,
    /// Captured machine states; `snapshots[0]` is the pre-run state.
    pub(crate) snapshots: Vec<SnapshotState>,
}

/// Complete machine state at one fragment boundary — everything `drive`
/// reads or writes, captured at a loop top, where no reply is undelivered
/// (every unfinished processor is accounted for in `pending`, `watchers`,
/// `futexq`, or the scheduler's ready queue, so `ready` is empty and needs
/// no representing). Restoring it and feeding the logs reproduces the exact
/// continuation of the run, cycle for cycle.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotState {
    /// The fragment boundary (in cycles) this snapshot satisfies; replay of
    /// the *previous* fragment stops at the loop top where the minimal
    /// pending issue first reaches it.
    pub(crate) boundary: u64,
    memory: Vec<Word>,
    coherence: Coherence,
    net: Interconnect,
    pub(crate) metrics: Metrics,
    states: Vec<ProcState>,
    watchers: WatchTable,
    futexq: WatchTable,
    sched: Option<SchedState>,
    pending: BinaryHeap<Reverse<(u64, usize)>>,
    spin_since: Vec<Option<u64>>,
    /// Per-processor count of log entries consumed at this point — the
    /// index of the next entry replay will feed each processor.
    cursor: Vec<usize>,
}

/// Replay-mode state: the recorded logs, a per-processor read cursor, and
/// the boundary (if any) at which this fragment stops.
#[derive(Debug)]
struct ReplaySource {
    logs: Arc<Vec<Vec<LogEntry>>>,
    cursor: Vec<usize>,
    /// Stop at the first loop top where the minimal pending issue reaches
    /// this; `None` replays to completion.
    stop_at: Option<u64>,
}

/// The engine state proper: coherence machinery, request bookkeeping, and
/// the outcome of the run. Owned by the one thread that runs the loop.
pub(crate) struct EngineCore {
    params: MachineParams,
    memory: Vec<Word>,
    coherence: Coherence,
    net: Interconnect,
    pub(crate) metrics: Metrics,
    states: Vec<ProcState>,
    /// Word address → pids parked on it (details live in `states`).
    watchers: WatchTable,
    /// Word address → pids parked on it by futex `wait`, FIFO.
    futexq: WatchTable,
    /// Oversubscription scheduler, when configured.
    sched: Option<SchedState>,
    /// Pending requests as `(issue, pid)`, min first. Exact — a processor
    /// is pushed when it submits and popped exactly once when executed.
    pending: BinaryHeap<Reverse<(u64, usize)>>,
    /// Replies produced and not yet delivered, in production order; their
    /// processors are [`ProcState::Running`] and owe the engine a request.
    /// `drive` executes only while this is empty. Always empty in replay.
    ready: Vec<(usize, Reply)>,
    /// Set once the run is torn down (error or peer panic); requests
    /// arriving afterwards are dropped and [`EngineCore::run_live`] unwinds
    /// every unfinished processor.
    aborted: bool,
    /// Why the run ended early, if it did.
    pub(crate) error: Option<SimError>,
    /// Event recorder, when the machine has one attached. Recording is
    /// strictly additive: no branch on `tracer` may influence simulated
    /// timing or scheduling.
    tracer: Option<Arc<trace::Tracer>>,
    /// Per-pid flag: the simulated time the processor's current spin wait
    /// began, used to record one `SpinBegin`/`SpinEnd` pair per logical
    /// wait even though the scheduler re-executes the probe every poll
    /// interval. `None` when the processor is not in a spin wait.
    spin_since: Vec<Option<u64>>,
    /// Recording-mode state: present when this run logs submissions and
    /// captures fragment-boundary snapshots. Recording never influences
    /// simulated timing — it only observes.
    recorder: Option<Recorder>,
    /// Replay-mode state: present when this core re-executes a recorded
    /// fragment. Replies are redirected into the logs instead of `ready`
    /// (no processor bodies exist).
    replay: Option<ReplaySource>,
}

impl EngineCore {
    pub(crate) fn new(
        params: MachineParams,
        init_memory: Vec<Word>,
        nprocs: usize,
        tracer: Option<Arc<trace::Tracer>>,
        fragment: Option<u64>,
    ) -> Self {
        params.validate();
        assert!(nprocs >= 1, "a run needs at least one processor");
        let net = Interconnect::new(&params);
        let sched = params.sched.map(|p| SchedState {
            on_core: vec![false; nprocs],
            free_cores: (0..p.cores).map(|_| Reverse(0)).collect(),
            ready: VecDeque::new(),
            slice_start: vec![0; nprocs],
            p,
        });
        let mut core = EngineCore {
            coherence: Coherence::new(init_memory.len().div_ceil(params.line_words), nprocs),
            net,
            metrics: Metrics::new(nprocs),
            states: (0..nprocs).map(|_| ProcState::Running).collect(),
            watchers: WatchTable::new(init_memory.len(), nprocs),
            futexq: WatchTable::new(init_memory.len(), nprocs),
            sched,
            pending: BinaryHeap::with_capacity(nprocs),
            ready: Vec::new(),
            aborted: false,
            error: None,
            memory: init_memory,
            params,
            tracer,
            spin_since: vec![None; nprocs],
            recorder: None,
            replay: None,
        };
        if let Some(k) = fragment {
            assert!(k > 0, "fragment length must be a positive cycle count");
            let mut rec = Recorder {
                fragment: k,
                next_boundary: k,
                logs: vec![Vec::new(); nprocs],
                snapshots: Vec::new(),
            };
            // Snapshot 0 is the pre-run state: all processors Running with
            // nothing submitted and every cursor at zero.
            let snap0 = core.capture_with(&rec, 0);
            rec.snapshots.push(snap0);
            core.recorder = Some(rec);
        }
        core
    }

    /// Rebuilds a core from a boundary snapshot, in replay mode: restored
    /// state plus the recorded logs starting at the snapshot's cursors.
    /// Replay produces no replies, so `drive` runs uninterrupted until
    /// `stop_at`, completion, or an error.
    pub(crate) fn from_snapshot(
        params: MachineParams,
        snap: &SnapshotState,
        logs: Arc<Vec<Vec<LogEntry>>>,
        stop_at: Option<u64>,
    ) -> Self {
        let mut core = EngineCore {
            params,
            memory: snap.memory.clone(),
            coherence: snap.coherence.clone(),
            net: snap.net.clone(),
            metrics: snap.metrics.clone(),
            states: snap.states.clone(),
            watchers: snap.watchers.clone(),
            futexq: snap.futexq.clone(),
            sched: snap.sched.clone(),
            pending: snap.pending.clone(),
            ready: Vec::new(),
            aborted: false,
            error: None,
            tracer: None,
            spin_since: snap.spin_since.clone(),
            recorder: None,
            replay: Some(ReplaySource {
                logs,
                cursor: snap.cursor.clone(),
                stop_at,
            }),
        };
        // Only snapshot 0 holds Running processors (nothing submitted yet);
        // mid-run snapshots are captured at loop tops, where every live
        // processor has exactly one representation in the queues. Feed each
        // Running processor its first logged action so the heap is complete.
        for pid in 0..core.states.len() {
            if matches!(core.states[pid], ProcState::Running) {
                core.feed_replay(pid);
            }
        }
        core
    }

    /// Drains a replayed fragment: runs until the stop boundary, the end of
    /// the recording, or an error (impossible on a clean recording).
    pub(crate) fn replay_drive(&mut self) -> Result<(), SimError> {
        debug_assert!(self.replay.is_some(), "replay_drive outside replay mode");
        self.drive();
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Takes the recorder out of a finished recording run.
    pub(crate) fn take_recorder(&mut self) -> Option<Recorder> {
        self.recorder.take()
    }

    /// Clones the complete machine state into a [`SnapshotState`]. Called
    /// only at drive-loop tops (see [`SnapshotState`]); `rec` supplies the
    /// log cursors (`self.recorder` during a run, the fresh recorder at
    /// construction).
    fn capture_with(&self, rec: &Recorder, boundary: u64) -> SnapshotState {
        SnapshotState {
            boundary,
            memory: self.memory.clone(),
            coherence: self.coherence.clone(),
            net: self.net.clone(),
            metrics: self.metrics.clone(),
            states: self.states.clone(),
            watchers: self.watchers.clone(),
            futexq: self.futexq.clone(),
            sched: self.sched.clone(),
            pending: self.pending.clone(),
            spin_since: self.spin_since.clone(),
            cursor: rec.logs.iter().map(Vec::len).collect(),
        }
    }

    /// Recording mode: captures a snapshot if the minimal pending issue has
    /// crossed the next fragment boundary. One capture per loop top at
    /// most; several boundaries falling into one inter-event gap collapse
    /// into a single snapshot (the next boundary skips past the issue).
    fn maybe_snapshot(&mut self) {
        let Some(&Reverse((issue, _))) = self.pending.peek() else {
            return;
        };
        let Some(rec) = self.recorder.as_ref() else {
            return;
        };
        if issue < rec.next_boundary {
            return;
        }
        let snap = self.capture_with(rec, rec.next_boundary);
        let rec = self.recorder.as_mut().expect("checked above");
        rec.snapshots.push(snap);
        rec.next_boundary = (issue / rec.fragment + 1) * rec.fragment;
    }

    /// Takes a processor's next request, from its body or from its log: a
    /// finished processor leaves the machine, anything else becomes pending.
    fn file(&mut self, req: Request) {
        match req.op {
            Op::Done => {
                self.metrics.per_proc[req.pid].finish_time = req.issue;
                self.metrics.total_cycles = self.metrics.total_cycles.max(req.issue);
                self.states[req.pid] = ProcState::Done;
                self.release_core(req.pid, req.issue);
            }
            _ => {
                self.states[req.pid] = ProcState::Pending(req);
                self.pending.push(Reverse((req.issue, req.pid)));
            }
        }
    }

    /// Replay-mode stand-in for delivering a reply: the processor's closure
    /// is not running, so its recorded reaction — the next entry in its log
    /// — is fed straight back into the engine.
    fn feed_replay(&mut self, pid: usize) {
        let rp = self.replay.as_mut().expect("feed_replay outside replay");
        let (issue, op) = rp.logs[pid][rp.cursor[pid]];
        rp.cursor[pid] += 1;
        self.file(Request { pid, issue, op });
    }

    /// Final metrics and memory image, consumed after the run.
    pub(crate) fn into_memory(self) -> (Metrics, Vec<Word>) {
        (self.metrics, self.memory)
    }

    /// Executes minimal pending requests until one produces a reply (or
    /// the run ends). Called only when every unfinished processor has
    /// reported, i.e. `ready` is empty.
    fn drive(&mut self) {
        while self.ready.is_empty() && !self.aborted {
            // Fragment bookkeeping happens here, at the loop top, where the
            // heap is *complete*: `ready` being empty means every unfinished
            // processor has exactly one representation in the queues and no
            // reply is in flight. Recording captures boundary snapshots at
            // this point, and replay stops fragments at the identical
            // condition evaluated at the identical point — which is what
            // makes fragment N end at exactly the state snapshot N+1 holds.
            if self.recorder.is_some() {
                self.maybe_snapshot();
            }
            if let Some(rp) = &self.replay {
                if let (Some(stop), Some(&Reverse((issue, _)))) = (rp.stop_at, self.pending.peek())
                {
                    if issue >= stop {
                        return;
                    }
                }
            }
            let Some(Reverse((_, pid))) = self.pending.pop() else {
                // No pending work. Either everyone is done, or the remainder
                // are blocked: all-parked ⇒ lost wakeup, otherwise deadlock.
                // (A ReadyQueued processor cannot coexist with an empty heap:
                // every core release dispatches the ready queue, and with no
                // Pending request left no core is held.)
                let mut waiting: Vec<(usize, Addr, Word)> = Vec::new();
                let mut parked: Vec<(usize, Addr, Word)> = Vec::new();
                for (pid, s) in self.states.iter().enumerate() {
                    match s {
                        ProcState::Waiting { addr, pred, .. } => {
                            let shown = match pred {
                                WaitPred::WhileEq(v) => *v,
                                WaitPred::UntilEq(v) => !*v,
                            };
                            waiting.push((pid, *addr, shown));
                        }
                        ProcState::ParkedFutex { addr, expected, .. } => {
                            parked.push((pid, *addr, *expected));
                        }
                        ProcState::ReadyQueued(_) => {
                            unreachable!("p{pid} ready-queued with an idle machine")
                        }
                        _ => {}
                    }
                }
                if waiting.is_empty() && !parked.is_empty() {
                    self.error = Some(SimError::LostWakeup { parked });
                    self.aborted = true;
                } else if !waiting.is_empty() {
                    // Mixed spin/park blockage is still a deadlock; list
                    // every blocked processor.
                    waiting.extend(parked);
                    self.error = Some(SimError::Deadlock { waiting });
                    self.aborted = true;
                }
                return;
            };
            let ProcState::Pending(req) =
                std::mem::replace(&mut self.states[pid], ProcState::Running)
            else {
                unreachable!("heap entry for p{pid} was not Pending");
            };
            // The scheduler may defer the request (no core, or preempted at
            // a quantum boundary) instead of letting it execute now.
            let Some(req) = self.admit(req) else { continue };
            if let Err(e) = self.execute(req) {
                self.error = Some(e);
                self.aborted = true;
                return;
            }
        }
    }

    /// Scheduler admission for a popped request. Returns the request
    /// (possibly the caller should execute it now) or `None` if it was
    /// deferred: re-queued with an adjusted issue time (core assignment),
    /// or parked in the ready queue (no free core / preempted).
    fn admit(&mut self, req: Request) -> Option<Request> {
        let Some(sched) = self.sched.as_mut() else {
            return Some(req);
        };
        let pid = req.pid;
        if sched.on_core[pid] {
            // Lazy preemption: past the quantum and somebody wants the core.
            if !sched.ready.is_empty() && req.issue >= sched.slice_start[pid] + sched.p.quantum {
                sched.on_core[pid] = false;
                sched.free_cores.push(Reverse(req.issue));
                sched.ready.push_back(pid);
                self.states[pid] = ProcState::ReadyQueued(req);
                self.dispatch_ready();
                return None;
            }
            return Some(req);
        }
        // Off-core: grab a core or join the ready queue.
        let Some(Reverse(free_at)) = sched.free_cores.pop() else {
            sched.ready.push_back(pid);
            self.states[pid] = ProcState::ReadyQueued(req);
            return None;
        };
        sched.on_core[pid] = true;
        let start = req.issue.max(free_at) + sched.p.ctx_switch_cycles;
        sched.slice_start[pid] = start;
        self.metrics.per_proc[pid].ctx_switches += 1;
        if let Some(tr) = &self.tracer {
            tr.record(pid, start, EventKind::CtxSwitchIn);
        }
        if start > req.issue {
            // Re-queue at the adjusted issue so execution order stays
            // globally sorted; at the next pop the processor is on-core.
            self.states[pid] = ProcState::Pending(Request {
                issue: start,
                ..req
            });
            self.pending.push(Reverse((start, pid)));
            return None;
        }
        Some(req)
    }

    /// Hands free cores to ready-queued processors, FIFO.
    fn dispatch_ready(&mut self) {
        let Some(sched) = self.sched.as_mut() else {
            return;
        };
        while !sched.ready.is_empty() && !sched.free_cores.is_empty() {
            let pid = sched.ready.pop_front().expect("checked non-empty");
            let Reverse(free_at) = sched.free_cores.pop().expect("checked non-empty");
            let ProcState::ReadyQueued(req) =
                std::mem::replace(&mut self.states[pid], ProcState::Running)
            else {
                unreachable!("ready-queue entry for p{pid} was not ReadyQueued");
            };
            sched.on_core[pid] = true;
            let start = req.issue.max(free_at) + sched.p.ctx_switch_cycles;
            sched.slice_start[pid] = start;
            self.metrics.per_proc[pid].ctx_switches += 1;
            if let Some(tr) = &self.tracer {
                tr.record(pid, start, EventKind::CtxSwitchIn);
            }
            self.states[pid] = ProcState::Pending(Request {
                issue: start,
                ..req
            });
            self.pending.push(Reverse((start, pid)));
        }
    }

    /// Releases the core a processor holds (park, finish) and re-dispatches.
    fn release_core(&mut self, pid: usize, now: u64) {
        if let Some(sched) = self.sched.as_mut() {
            if sched.on_core[pid] {
                sched.on_core[pid] = false;
                sched.free_cores.push(Reverse(now));
            }
        }
        self.dispatch_ready();
    }

    fn execute(&mut self, req: Request) -> Result<(), SimError> {
        let pid = req.pid;
        // Validate addresses up front so a stray kernel bug surfaces as a
        // structured fault instead of an engine panic.
        let touched = match req.op {
            Op::Load(a)
            | Op::Store(a, _)
            | Op::Swap(a, _)
            | Op::Cas(a, _, _)
            | Op::FetchAdd(a, _)
            | Op::Spin(a, _)
            | Op::FutexWait(a, _)
            | Op::FutexWake(a, _) => Some(a),
            Op::Delay(_) | Op::Done => None,
        };
        if let Some(addr) = touched {
            if addr >= self.memory.len() {
                return Err(SimError::Fault { pid, addr });
            }
        }
        let (value, done) = match req.op {
            Op::Load(addr) => {
                self.metrics.per_proc[pid].loads += 1;
                let t = self.access(pid, addr, AccessKind::Read, req.issue);
                (self.memory[addr], t)
            }
            Op::Store(addr, val) => {
                self.metrics.per_proc[pid].stores += 1;
                let t = self.access(pid, addr, AccessKind::Write, req.issue);
                let t = self.commit_write(addr, val, t);
                (0, t)
            }
            Op::Swap(addr, val) => {
                self.metrics.per_proc[pid].rmws += 1;
                let t = self.access(pid, addr, AccessKind::Rmw, req.issue);
                let old = self.memory[addr];
                let t = self.commit_write(addr, val, t);
                (old, t)
            }
            Op::Cas(addr, expected, new) => {
                self.metrics.per_proc[pid].rmws += 1;
                // CAS acquires ownership before it can compare — failures
                // cost the same interconnect traffic as successes.
                let t = self.access(pid, addr, AccessKind::Rmw, req.issue);
                let old = self.memory[addr];
                let t = if old == expected {
                    self.commit_write(addr, new, t)
                } else {
                    t
                };
                (old, t)
            }
            Op::FetchAdd(addr, delta) => {
                self.metrics.per_proc[pid].rmws += 1;
                let t = self.access(pid, addr, AccessKind::Rmw, req.issue);
                let old = self.memory[addr];
                let t = self.commit_write(addr, old.wrapping_add(delta), t);
                (old, t)
            }
            Op::Spin(addr, pred) => {
                // Initial probe, charged like a load.
                self.metrics.per_proc[pid].loads += 1;
                let t = self.access(pid, addr, AccessKind::Read, req.issue);
                let cur = self.memory[addr];
                if pred.satisfied(cur) {
                    if self.spin_since[pid].take().is_some() {
                        // A scheduler-polled spin just observed its value.
                        if let Some(tr) = &self.tracer {
                            tr.record(pid, t, EventKind::SpinEnd { addr });
                        }
                    }
                    (cur, t)
                } else if let Some(sched) = &self.sched {
                    // Under the scheduler a spinner busy-polls its core
                    // instead of sleeping on a watchpoint: the probe is
                    // re-queued after the poll interval, the core stays
                    // occupied, and quantum preemption applies as to any
                    // other processor. This is what makes pure spinning
                    // collapse once threads outnumber cores.
                    let next = t + sched.p.spin_poll_cycles;
                    if self.spin_since[pid].is_none() {
                        self.spin_since[pid] = Some(t);
                        if let Some(tr) = &self.tracer {
                            tr.record(pid, t, EventKind::SpinBegin { addr });
                        }
                    }
                    self.metrics.per_proc[pid].spin_wait_cycles += next - req.issue;
                    self.states[pid] = ProcState::Pending(Request {
                        pid,
                        issue: next,
                        op: req.op,
                    });
                    self.pending.push(Reverse((next, pid)));
                    return self.check_time(t);
                } else {
                    self.spin_since[pid] = Some(t);
                    if let Some(tr) = &self.tracer {
                        tr.record(pid, t, EventKind::SpinBegin { addr });
                    }
                    self.states[pid] = ProcState::Waiting {
                        addr,
                        pred,
                        clock: t,
                        sleep_start: t,
                    };
                    self.watchers.push(addr, pid);
                    // No reply yet; the processor stays parked.
                    return self.check_time(t);
                }
            }
            Op::FutexWait(addr, expected) => {
                // The probe is charged like a load; the value check happens
                // against engine memory with no other operation in between,
                // which is the atomic compare-and-block the futex contract
                // requires.
                self.metrics.per_proc[pid].loads += 1;
                let t = self.access(pid, addr, AccessKind::Read, req.issue);
                let cur = self.memory[addr];
                if cur != expected {
                    (cur, t)
                } else {
                    self.metrics.per_proc[pid].futex_parks += 1;
                    if let Some(tr) = &self.tracer {
                        tr.record(pid, t, EventKind::FutexPark { addr });
                    }
                    self.states[pid] = ProcState::ParkedFutex {
                        addr,
                        expected,
                        sleep_start: t,
                    };
                    self.futexq.push(addr, pid);
                    // A parked processor yields its core immediately.
                    self.release_core(pid, t);
                    return self.check_time(t);
                }
            }
            Op::FutexWake(addr, n) => {
                let mut woken = 0u64;
                let mut t = req.issue;
                let wake_cost = self.params.wake_cycles();
                while woken < n {
                    let Some(wpid) = self.futexq.pop(addr) else {
                        break;
                    };
                    woken += 1;
                    self.metrics.per_proc[pid].futex_woken += 1;
                    // The waker pays a modeled remote write into each
                    // wakee's parker state, serialized per wakee.
                    t += wake_cost;
                    self.metrics.interconnect_transactions += 1;
                    let ProcState::ParkedFutex { sleep_start, .. } = self.states[wpid] else {
                        unreachable!("futex queue out of sync for p{wpid}");
                    };
                    self.metrics.per_proc[wpid].wakeups += 1;
                    self.metrics.per_proc[wpid].spin_wait_cycles += t.saturating_sub(sleep_start);
                    if let Some(tr) = &self.tracer {
                        tr.record(pid, t, EventKind::FutexWake { addr, wakee: wpid });
                        tr.record(wpid, t, EventKind::FutexResume { addr, waker: pid });
                    }
                    // The wakee resumes off-core; its next submission
                    // re-enters through the scheduler's ready queue.
                    self.reply(wpid, self.memory[addr], t, true);
                }
                (woken, t)
            }
            Op::Delay(cycles) => (0, req.issue.saturating_add(cycles)),
            Op::Done => unreachable!("handled at submission"),
        };
        self.reply(pid, value, done, false);
        self.check_time(done)
    }

    fn check_time(&self, t: u64) -> Result<(), SimError> {
        if t > self.params.max_cycles {
            Err(SimError::TimeLimit {
                limit: self.params.max_cycles,
            })
        } else {
            Ok(())
        }
    }

    /// Answers `pid`'s operation; `parked` iff the answer ends a futex park.
    fn reply(&mut self, pid: usize, value: Word, now: u64, parked: bool) {
        if self.replay.is_some() {
            // No body to resume: the logged next action stands in for the
            // processor's deterministic reaction to (value, now).
            self.feed_replay(pid);
            return;
        }
        self.states[pid] = ProcState::Running;
        self.ready.push((pid, Reply { value, now, parked }));
    }

    /// Performs the coherence side of an access; returns its completion time.
    fn access(&mut self, pid: usize, addr: Addr, kind: AccessKind, issue: u64) -> u64 {
        debug_assert!(addr < self.memory.len(), "execute() validates addresses");
        let line = self.params.line_of(addr);
        let state = self.coherence.state(pid, line);
        let m = &mut self.metrics.per_proc[pid];
        let rmw_extra = match kind {
            AccessKind::Rmw => self.params.rmw_extra_cycles,
            AccessKind::Read | AccessKind::Write => 0,
        };
        let done = if state == Some(LineState::Modified)
            || (state.is_some() && kind == AccessKind::Read)
        {
            m.hits += 1;
            issue + self.params.hit_cycles + rmw_extra
        } else {
            let invalidated = if kind == AccessKind::Read {
                m.misses += 1;
                // A dirty remote copy is downgraded (its data is written back
                // as part of this same transaction).
                self.coherence.share(pid, line);
                0
            } else {
                if state.is_some() {
                    m.upgrades += 1;
                } else {
                    m.misses += 1;
                }
                self.coherence.own(pid, line)
            };
            self.metrics.interconnect_transactions += 1;
            self.metrics.invalidations += invalidated;
            self.net.transaction(
                issue,
                self.params.node_of_proc(pid),
                self.params.home_node(line),
                self.params.inv_cycles * invalidated + rmw_extra,
            )
        };
        if cfg!(debug_assertions) {
            self.coherence.check_line(line);
        }
        done
    }

    /// Writes the value, then wakes watchers whose predicate now holds.
    /// Returns the (unchanged) completion time of the triggering write.
    fn commit_write(&mut self, addr: Addr, val: Word, done_at: u64) -> u64 {
        let changed = self.memory[addr] != val;
        self.memory[addr] = val;
        if changed {
            self.wake_watchers(addr, done_at);
        }
        done_at
    }

    /// Re-probes every processor parked on `addr`, in park order. Watchers
    /// whose predicate holds are released; the rest pay the probe and park
    /// again, behind one another as before (their line was invalidated by
    /// the triggering write).
    fn wake_watchers(&mut self, addr: Addr, write_done: u64) {
        let Some(last) = self.watchers.last(addr) else {
            return;
        };
        loop {
            let pid = self.watchers.pop(addr).expect("waiters up to `last`");
            let ProcState::Waiting {
                pred,
                clock,
                sleep_start,
                ..
            } = self.states[pid]
            else {
                unreachable!("watcher list out of sync for p{pid}");
            };
            // The spinner re-probes as soon as it observes the invalidation.
            let issue = clock.max(write_done);
            self.metrics.per_proc[pid].loads += 1;
            let t = self.access(pid, addr, AccessKind::Read, issue);
            let cur = self.memory[addr];
            if pred.satisfied(cur) {
                self.metrics.per_proc[pid].wakeups += 1;
                self.metrics.per_proc[pid].spin_wait_cycles += t.saturating_sub(sleep_start);
                self.spin_since[pid] = None;
                if let Some(tr) = &self.tracer {
                    tr.record(pid, t, EventKind::SpinEnd { addr });
                }
                self.reply(pid, cur, t, false);
            } else {
                self.states[pid] = ProcState::Waiting {
                    addr,
                    pred,
                    clock: t,
                    sleep_start,
                };
                self.watchers.push(addr, pid);
            }
            if pid == last {
                return;
            }
        }
    }
}

/// The live run: processor bodies as coroutines around the core.
impl EngineCore {
    /// Resumes processor `pid` until its next request (a body that returns
    /// leaves [`Op::Done`]), which is logged, when recording, and filed —
    /// or dropped, once the run is being torn down. A body that panics
    /// tears the run down; the first payload that is not the engine's own
    /// [`SimAbort`] is kept in `panic`.
    // Inlined, so that the switch sits in `run_live` itself: the loop must
    // not return through a frame it did not enter since the last switch, or
    // every handoff costs mispredicted returns on both stacks
    // (`simcore::coro`).
    #[inline(always)]
    fn step(
        &mut self,
        pid: usize,
        procs: &mut [Coroutine<'_>],
        mail: &[Rc<Mailbox>],
        panic: &mut Option<Box<dyn Any + Send>>,
    ) {
        match procs[pid].resume() {
            Step::Suspended | Step::Done(Ok(())) => {
                let req = mail[pid].request.take();
                let req = req.expect("a processor suspended without a request");
                if self.aborted {
                    return;
                }
                if let Some(rec) = self.recorder.as_mut() {
                    rec.logs[pid].push((req.issue, req.op));
                }
                self.file(req);
            }
            Step::Done(Err(payload)) => {
                self.aborted = true;
                if panic.is_none() && !payload.is::<SimAbort>() {
                    *panic = Some(payload);
                }
            }
        }
    }

    /// Runs every processor to completion on the calling thread (module
    /// docs). On an error or a body's panic, every processor still suspended
    /// in an operation is resumed without a reply until it has unwound, so
    /// no frame of a body outlives the run. Returns a body's panic
    /// payload, if one panicked, for the machine to re-raise.
    pub(crate) fn run_live(
        &mut self,
        procs: &mut [Coroutine<'_>],
        mail: &[Rc<Mailbox>],
    ) -> Option<Box<dyn Any + Send>> {
        let mut panic = None;
        // Every body runs to its first request before anything executes —
        // and so, should the run abort, is suspended inside an operation.
        for pid in 0..procs.len() {
            self.step(pid, procs, mail, &mut panic);
        }
        let mut batch = Vec::new();
        while !self.aborted {
            self.drive();
            if self.ready.is_empty() {
                break;
            }
            std::mem::swap(&mut batch, &mut self.ready);
            for (pid, reply) in batch.drain(..) {
                mail[pid].reply.set(Some(reply));
                self.step(pid, procs, mail, &mut panic);
            }
        }
        if self.aborted {
            for pid in 0..procs.len() {
                // A body may catch the unwind and carry on: every further
                // operation is answered the same way.
                while !procs[pid].is_done() {
                    self.step(pid, procs, mail, &mut panic);
                }
            }
        }
        panic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_pred_semantics() {
        assert!(!WaitPred::WhileEq(3).satisfied(3));
        assert!(WaitPred::WhileEq(3).satisfied(4));
        assert!(WaitPred::UntilEq(3).satisfied(3));
        assert!(!WaitPred::UntilEq(3).satisfied(4));
    }

    #[test]
    fn watch_lists_are_fifo_per_word_and_survive_requeueing() {
        let mut table = WatchTable::new(3, 10);
        for pid in 0..10 {
            table.push(pid % 2, pid);
        }
        assert_eq!(table.last(0), Some(8));
        assert_eq!(table.last(2), None);
        assert_eq!(table.pop(2), None);
        // What `wake_watchers` does: pop everyone up to the last, re-park
        // some. Those keep their relative order, behind nobody new.
        for expect in [1, 3, 5, 7, 9] {
            let pid = table.pop(1).unwrap();
            assert_eq!(pid, expect);
            if pid != 5 {
                table.push(1, pid);
            }
        }
        let snapshot = table.clone();
        let drain =
            |mut t: WatchTable, addr| std::iter::from_fn(move || t.pop(addr)).collect::<Vec<_>>();
        assert_eq!(drain(table.clone(), 1), vec![1, 3, 7, 9]);
        assert_eq!(drain(table, 0), vec![0, 2, 4, 6, 8]);
        assert_eq!(
            drain(snapshot, 1),
            vec![1, 3, 7, 9],
            "a clone is a snapshot"
        );
    }
}
