//! The processor handle passed to simulated programs.
//!
//! [`Proc`] implements the instruction set a kernel may use, `syncctx`'s
//! [`SyncCtx`] and [`ProcCtx`]: word loads and stores, the atomic
//! read-modify-writes 1991 hardware offered (swap, compare-and-swap,
//! fetch-and-add, test-and-set), futex waits and wakes, watchpoint-based
//! local spinning, and a local `delay`. Every operation suspends the calling body
//! until the engine has scheduled the operation, so kernel code reads like
//! ordinary sequential Rust.
//!
//! A body runs as a coroutine on the host thread that called
//! [`crate::Machine::run`] ([`simcore::coro`]): an operation leaves its
//! request in the processor's mailbox, switches to the engine loop, and
//! picks the reply up when the loop switches back. The switch is inlined
//! into `Proc::roundtrip`, the one function every operation goes through,
//! so the loop's jump back always lands at the same address.

use crate::engine::{Mailbox, Op, Reply, Request, WaitPred};
use crate::{Addr, Word};
use simcore::coro;
use std::rc::Rc;
use std::sync::Arc;
use syncctx::{LockEvent, ProcCtx, SyncCtx, Waited};

/// Sentinel panic payload that unwinds a processor's body when the engine
/// aborts a simulation (deadlock, time limit, fault, or a peer's panic).
/// Raised with `resume_unwind`, so no panic hook sees it; the engine loop
/// swallows it, user panics propagate normally.
pub(crate) struct SimAbort;

/// Handle through which a simulated processor issues operations.
///
/// The body holding it is a coroutine on the thread that called
/// [`crate::Machine::run`], which asks three things of it:
///
/// * the handle stays on that thread (it is not `Send`);
/// * the body has [`simcore::coro::STACK_BYTES`] (256 KiB) of stack, and
///   running past it stops the process on the guard page;
/// * the body must not wait on a host primitive (a mutex, a channel) for
///   something another processor's body does: that body cannot run until
///   this one reaches its next operation. Nor may a destructor issue an
///   operation while the body unwinds from an aborted run — the reply is
///   another abort, a panic inside a panic.
pub struct Proc {
    pub(crate) pid: usize,
    pub(crate) nprocs: usize,
    pub(crate) now: u64,
    /// The machine's simulated-time limit, mirrored here so locally
    /// executed delays still trigger [`crate::SimError::TimeLimit`].
    pub(crate) max_cycles: u64,
    pub(crate) mail: Rc<Mailbox>,
    /// The machine's event recorder, when one is attached.
    pub(crate) tracer: Option<Arc<trace::Tracer>>,
}

impl Proc {
    fn request(&self, op: Op) {
        self.mail.request.set(Some(Request {
            pid: self.pid,
            issue: self.now,
            op,
        }));
    }

    fn roundtrip(&mut self, op: Op) -> Reply {
        self.request(op);
        coro::suspend();
        let Some(reply) = self.mail.reply.take() else {
            // Resumed with nothing: the run is being torn down.
            std::panic::resume_unwind(Box::new(SimAbort));
        };
        self.now = reply.now;
        reply
    }

    /// This processor's id in `0..nprocs`.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Records a trace event at the processor's current local clock — the
    /// hook kernels and workloads use to report semantic events (lock
    /// acquire/release via `kernels`' instrumented locks, barrier episode
    /// boundaries). No-op unless the machine has a tracer attached; never
    /// affects simulated time.
    pub fn trace_event(&self, kind: trace::EventKind) {
        if let Some(tr) = &self.tracer {
            tr.record(self.pid, self.now, kind);
        }
    }

    /// Leaves the body's last word for the engine; the coroutine then ends.
    pub(crate) fn done(&self) {
        self.request(Op::Done);
    }
}

impl SyncCtx for Proc {
    fn load(&mut self, addr: Addr) -> Word {
        self.roundtrip(Op::Load(addr)).value
    }

    fn store(&mut self, addr: Addr, val: Word) {
        self.roundtrip(Op::Store(addr, val));
    }

    fn swap(&mut self, addr: Addr, val: Word) -> Word {
        self.roundtrip(Op::Swap(addr, val)).value
    }

    /// A failed CAS costs the same coherence traffic as a successful one.
    fn cas(&mut self, addr: Addr, expected: Word, new: Word) -> Result<Word, Word> {
        let old = self.roundtrip(Op::Cas(addr, expected, new)).value;
        if old == expected {
            Ok(old)
        } else {
            Err(old)
        }
    }

    fn fetch_add(&mut self, addr: Addr, delta: Word) -> Word {
        self.roundtrip(Op::FetchAdd(addr, delta)).value
    }

    /// The check and the park are one atomic step inside the engine; a
    /// parked processor yields its core. The machine has no tags: a tagged
    /// waiter parks untagged, and `wake_tagged` wakes every waiter of the
    /// word.
    fn wait(&mut self, addr: Addr, expected: Word, _tag: Option<Word>) -> Waited {
        let reply = self.roundtrip(Op::FutexWait(addr, expected));
        Waited {
            parked: reply.parked,
            seen: reply.value,
        }
    }

    /// The waker is charged a modeled remote write per wakee.
    fn wake(&mut self, addr: Addr, n: usize) -> usize {
        self.roundtrip(Op::FutexWake(addr, n as u64)).value as usize
    }

    /// Advances the local clock by `cycles` without touching memory —
    /// models computation, critical-section work, or backoff.
    ///
    /// Executed locally, with no engine roundtrip: a delay has no shared
    /// effect, so the engine only ever needs to see its result — the issue
    /// time of this processor's *next* shared operation, which carries the
    /// accumulated delay. The conservative gather still orders that next
    /// operation exactly where the old explicit delay request would have
    /// placed it, so simulated cycle counts are unchanged. The one
    /// observable duty of the old roundtrip, the time-limit check, is
    /// preserved by submitting a zero-cycle probe once the local clock
    /// crosses the limit (also what keeps a delay-only livelock detectable).
    fn delay(&mut self, cycles: u64) {
        self.now = self.now.saturating_add(cycles);
        if self.now > self.max_cycles {
            self.roundtrip(Op::Delay(0));
        }
    }
}

impl ProcCtx for Proc {
    fn pid(&self) -> usize {
        self.pid
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The wait is a cached local spin: it costs one probe to arm and one
    /// coherence miss per wake, not one access per iteration.
    fn spin_while(&mut self, addr: Addr, val: Word) -> Word {
        self.roundtrip(Op::Spin(addr, WaitPred::WhileEq(val))).value
    }

    fn spin_until(&mut self, addr: Addr, val: Word) {
        self.roundtrip(Op::Spin(addr, WaitPred::UntilEq(val)));
    }

    /// Lock events from instrumented kernels flow into the machine's event
    /// tracer (when one is attached), timestamped with the processor's
    /// simulated local clock — this is what turns an instrumented lock into
    /// per-lock wait/hold-time distributions on the simulator.
    fn lock_event(&mut self, event: LockEvent) {
        let kind = match event {
            LockEvent::AcquireStart(lock) => trace::EventKind::LockAcquireStart { lock },
            LockEvent::Acquired(lock) => trace::EventKind::LockAcquired { lock },
            LockEvent::Released(lock) => trace::EventKind::LockReleased { lock },
        };
        self.trace_event(kind);
    }
}
