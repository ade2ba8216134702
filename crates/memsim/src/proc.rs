//! The processor handle passed to simulated programs.
//!
//! [`Proc`] is the entire instruction set a kernel may use: word loads and
//! stores, the atomic read-modify-writes 1991 hardware offered (swap,
//! compare-and-swap, fetch-and-add, test-and-set), watchpoint-based local
//! spinning, and a local `delay`. Every method suspends the calling body
//! until the engine has scheduled the operation, so kernel code reads like
//! ordinary sequential Rust.
//!
//! A body runs as a coroutine on the host thread that called
//! [`crate::Machine::run`] ([`simcore::coro`]): an operation leaves its
//! request in the processor's mailbox, switches to the engine loop, and
//! picks the reply up when the loop switches back. The switch is inlined
//! into `Proc::roundtrip`, the one function every operation goes through,
//! so the loop's jump back always lands at the same address.

use crate::engine::{Mailbox, Op, Request, WaitPred};
use crate::{Addr, Word};
use simcore::coro;
use std::rc::Rc;
use std::sync::Arc;

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

    fn roundtrip(&mut self, op: Op) -> Word {
        self.request(op);
        coro::suspend();
        let Some(reply) = self.mail.reply.take() else {
            // Resumed with nothing: the run is being torn down.
            std::panic::resume_unwind(Box::new(SimAbort));
        };
        self.now = reply.now;
        reply.value
    }

    /// This processor's id in `0..nprocs`.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Number of processors in the machine.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// This processor's local clock, in simulated cycles.
    pub fn now(&self) -> u64 {
        self.now
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

    /// Reads a word.
    pub fn load(&mut self, addr: Addr) -> Word {
        self.roundtrip(Op::Load(addr))
    }

    /// Writes a word.
    pub fn store(&mut self, addr: Addr, val: Word) {
        self.roundtrip(Op::Store(addr, val));
    }

    /// Atomically writes `val` and returns the previous value.
    pub fn swap(&mut self, addr: Addr, val: Word) -> Word {
        self.roundtrip(Op::Swap(addr, val))
    }

    /// Atomic compare-and-swap: installs `new` iff the word equals
    /// `expected`. Returns `Ok(old)` on success, `Err(observed)` on failure.
    /// Failed CAS costs the same coherence traffic as a successful one.
    pub fn cas(&mut self, addr: Addr, expected: Word, new: Word) -> Result<Word, Word> {
        let old = self.roundtrip(Op::Cas(addr, expected, new));
        if old == expected {
            Ok(old)
        } else {
            Err(old)
        }
    }

    /// Atomic fetch-and-add (wrapping); returns the previous value.
    pub fn fetch_add(&mut self, addr: Addr, delta: Word) -> Word {
        self.roundtrip(Op::FetchAdd(addr, delta))
    }

    /// Atomic test-and-set: sets the word to 1, returns `true` if it was
    /// already nonzero (i.e. the "lock" was held).
    pub fn test_and_set(&mut self, addr: Addr) -> bool {
        self.swap(addr, 1) != 0
    }

    /// Blocks while the word equals `val`; returns the first differing value
    /// observed. The wait is a cached local spin: it costs one probe to
    /// arm and one coherence miss per wake, not one access per iteration.
    pub fn spin_while(&mut self, addr: Addr, val: Word) -> Word {
        self.roundtrip(Op::Spin(addr, WaitPred::WhileEq(val)))
    }

    /// Blocks until the word equals `val`; returns it (i.e. `val`).
    pub fn spin_until(&mut self, addr: Addr, val: Word) -> Word {
        self.roundtrip(Op::Spin(addr, WaitPred::UntilEq(val)))
    }

    /// Futex wait: parks iff the word still equals `expected` — the check
    /// and the park are one atomic step inside the engine, so a waker that
    /// changes the word *then* wakes can never be missed. Returns the word's
    /// value as observed either at the failed check or after the wake;
    /// callers must re-check their condition (wakes may be consumed by an
    /// earlier waiter, exactly as with an OS futex).
    pub fn futex_wait(&mut self, addr: Addr, expected: Word) -> Word {
        self.roundtrip(Op::FutexWait(addr, expected))
    }

    /// Wakes up to `n` processors parked on `addr` (FIFO park order) and
    /// returns how many were woken. The waker is charged a modeled remote
    /// write per wakee.
    pub fn futex_wake(&mut self, addr: Addr, n: usize) -> usize {
        self.roundtrip(Op::FutexWake(addr, n as u64)) as usize
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
    pub fn delay(&mut self, cycles: u64) {
        self.now = self.now.saturating_add(cycles);
        if self.now > self.max_cycles {
            self.roundtrip(Op::Delay(0));
        }
    }

    /// Leaves the body's last word for the engine; the coroutine then ends.
    pub(crate) fn done(&self) {
        self.request(Op::Done);
    }
}
