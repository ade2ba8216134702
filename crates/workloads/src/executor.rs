//! A minimal deterministic single-threaded executor with a **virtual
//! clock** — the async driver's analogue of `sim_load`'s discrete-event
//! core.
//!
//! The figures need async runs that are pure functions of their
//! configuration, which rules out every wall-clock runtime. This executor
//! gets there the same way the simulator does: time is a counter, every
//! wake is timestamped, and all ties break on a global sequence number.
//! Specifically:
//!
//! - Tasks are polled from a FIFO ready queue, one at a time, on the
//!   calling thread.
//! - [`Handle::sleep`]/[`Handle::sleep_until`] park a task until a
//!   virtual deadline; expiry costs nothing (time simply passes).
//! - A waker invoked from a *poll* (a lock release waking a parked
//!   future, say) re-schedules the woken task [`WAKE_COST`] cycles later
//!   — the futex-wake latency the blocking drivers price into their grant
//!   costs. The cost is configurable per executor.
//! - When nothing is ready, the clock jumps to the next scheduled event;
//!   when nothing is scheduled and tasks remain, [`Executor::run`]
//!   returns [`Outcome::Stalled`] with the survivors instead of spinning
//!   — which is how the `lock_many` ordering tests *detect* a deadlock
//!   deterministically. Dropping the executor drops the stalled futures,
//!   exercising their cancellation paths.
//!
//! [`Handle::timeout`] wraps a future with a virtual deadline and **drops
//! it** on expiry — in this codebase cancellation *is* drop, so a timeout
//! is nothing more than a race against a [`Sleep`].
//!
//! Both kinds of scheduled event — wake-cost re-polls and sleep expiries —
//! sit in one heap ordered by `(time, seq)`, on a clock that only the
//! polling thread touches, so [`Handle`] and [`Sleep`] are not `Send`.
//! The one thing that crosses threads is the queue of woken task ids
//! behind each [`Waker`]: a `Waker` must be `Send + Sync`, and a thread
//! blocked in the service may wake a task through the lot they share.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// Default cycles between a waker firing inside a poll and the woken task
/// being re-polled: the executor's price for a futex wake, and the QSM
/// constant grant cost of `service_load::sim_load`'s model.
pub const WAKE_COST: u64 = 40;

/// Task ids whose wakers fired since the executor last drained them.
type Woken = Arc<Mutex<Vec<usize>>>;

const POISONED: &str = "no code panics holding the waker queue";

/// The virtual clock and everything scheduled on it, shared between the
/// executor, its handles and its sleeps.
#[derive(Default)]
struct Clock {
    /// The virtual time, in cycles.
    now: Cell<u64>,
    /// Global tie-break sequence for scheduled events of both kinds.
    seq: Cell<u64>,
    /// Scheduled events: min-heap on (time, seq).
    events: RefCell<BinaryHeap<Reverse<Event>>>,
}

impl Clock {
    fn schedule(&self, at: u64, kind: EventKind) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let event = Event { at, seq, kind };
        self.events.borrow_mut().push(Reverse(event));
    }

    /// Removes the earliest event if it is due by `t`.
    fn pop_due(&self, t: u64) -> Option<Event> {
        let mut events = self.events.borrow_mut();
        let next = events.peek_mut()?;
        (next.0.at <= t).then(|| PeekMut::pop(next).0)
    }
}

/// A scheduled event. Ordered by (time, seq) only; `seq` is unique, so
/// the order is total.
struct Event {
    at: u64,
    seq: u64,
    kind: EventKind,
}

enum EventKind {
    /// A wake-cost re-poll of `task`, whose waker fired at `woke_at` (for
    /// the wake-to-poll histogram).
    Resume { task: usize, woke_at: u64 },
    /// A sleep's expiry: wakes the sleeping task.
    Expire(Waker),
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The per-task waker: records the task id for the executor to re-poll.
/// Safe to invoke from any thread (blocking threads wake async tasks
/// through the shared parking lot), though the deterministic figures
/// never do.
struct TaskWaker {
    id: usize,
    woken: Woken,
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.woken.lock().expect(POISONED).push(self.id);
    }
}

/// Poll/wake statistics of one executor, accumulated across `run` calls —
/// the executor's contribution to the service telemetry story (task polls
/// and wake-to-poll latency, both in deterministic virtual units).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutorMetrics {
    /// Task polls dispatched.
    pub polls: u64,
    /// Virtual cycles between a waker firing inside a poll and the woken
    /// task's re-poll. Polls take no virtual time, so a task waits in the
    /// ready queue at no cost and every sample is exactly the wake cost.
    /// Timer expiries are time passing, not wakes, and are not recorded.
    pub wake_to_poll: trace::Histogram,
}

/// How an [`Executor::run`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every spawned task ran to completion.
    Completed,
    /// No task is ready and nothing is scheduled, but these tasks (by
    /// spawn id) never finished — a deadlock or an abandoned wait.
    Stalled {
        /// Spawn ids of the unfinished tasks.
        unfinished: Vec<usize>,
    },
}

/// A spawned task: its future, and the waker every poll of it passes.
struct Task<'a> {
    fut: Pin<Box<dyn Future<Output = ()> + 'a>>,
    waker: Waker,
}

/// The executor. See the module docs for the discipline.
pub struct Executor<'a> {
    clock: Rc<Clock>,
    woken: Woken,
    tasks: Vec<Option<Task<'a>>>,
    ready: VecDeque<usize>,
    wake_cost: u64,
    metrics: ExecutorMetrics,
}

impl Default for Executor<'_> {
    fn default() -> Self {
        Self::new(WAKE_COST)
    }
}

impl<'a> Executor<'a> {
    /// An executor whose waker-wakes cost `wake_cost` virtual cycles.
    pub fn new(wake_cost: u64) -> Self {
        Executor {
            clock: Rc::default(),
            woken: Woken::default(),
            tasks: Vec::new(),
            ready: VecDeque::new(),
            wake_cost,
            metrics: ExecutorMetrics::default(),
        }
    }

    /// Poll/wake statistics accumulated so far.
    pub fn metrics(&self) -> &ExecutorMetrics {
        &self.metrics
    }

    /// A clock/timer handle, cloneable into tasks.
    pub fn handle(&self) -> Handle {
        Handle {
            clock: Rc::clone(&self.clock),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> u64 {
        self.clock.now.get()
    }

    /// Spawns a task; it is polled first at the current virtual time, in
    /// spawn order. Returns the task's id (its index in stall reports).
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'a) -> usize {
        let id = self.tasks.len();
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            woken: Arc::clone(&self.woken),
        }));
        self.tasks.push(Some(Task {
            fut: Box::pin(fut),
            waker,
        }));
        self.ready.push_back(id);
        id
    }

    /// Runs until every task completes ([`Outcome::Completed`]) or
    /// nothing can make progress ([`Outcome::Stalled`]). Deterministic:
    /// single-threaded polling, FIFO ready order, and all time ties
    /// broken by one global sequence counter.
    pub fn run(&mut self) -> Outcome {
        loop {
            // Price the wakes fired during the last poll: each woken task
            // is re-polled wake_cost cycles from now.
            let now = self.now();
            for task in self.woken.lock().expect(POISONED).drain(..) {
                let resume = EventKind::Resume { task, woke_at: now };
                self.clock.schedule(now + self.wake_cost, resume);
            }
            if let Some(id) = self.ready.pop_front() {
                self.poll_task(id);
                continue;
            }
            // Idle: jump the clock to the next scheduled event and
            // dispatch everything due, in (time, seq) order.
            let next = self.clock.events.borrow().peek().map(|e| e.0.at);
            let Some(t) = next else {
                let unfinished: Vec<usize> = (0..self.tasks.len())
                    .filter(|&i| self.tasks[i].is_some())
                    .collect();
                return if unfinished.is_empty() {
                    Outcome::Completed
                } else {
                    Outcome::Stalled { unfinished }
                };
            };
            debug_assert!(t >= now, "scheduled events never predate the clock");
            self.clock.now.set(t);
            while let Some(event) = self.clock.pop_due(t) {
                match event.kind {
                    EventKind::Resume { task, woke_at } => {
                        self.metrics.wake_to_poll.record(event.at - woke_at);
                        self.ready.push_back(task);
                    }
                    EventKind::Expire(waker) => {
                        waker.wake();
                        // A timer expiry is time passing, not a futex
                        // wake: the woken task is ready *now*, cost-free.
                        self.ready
                            .extend(self.woken.lock().expect(POISONED).drain(..));
                    }
                }
            }
        }
    }

    fn poll_task(&mut self, id: usize) {
        let Some(task) = self.tasks[id].as_mut() else {
            // A stale duplicate wake of a completed task.
            return;
        };
        self.metrics.polls += 1;
        let mut cx = Context::from_waker(&task.waker);
        if task.fut.as_mut().poll(&mut cx).is_ready() {
            self.tasks[id] = None;
        }
    }
}

/// Clock and timer access for tasks; clone freely.
#[derive(Clone)]
pub struct Handle {
    clock: Rc<Clock>,
}

impl Handle {
    /// The current virtual time.
    pub(crate) fn now(&self) -> u64 {
        self.clock.now.get()
    }

    /// Resolves `cycles` of virtual time from now.
    pub fn sleep(&self, cycles: u64) -> Sleep {
        self.sleep_until(self.now() + cycles)
    }

    /// Resolves once the virtual clock reaches `at` (immediately if it
    /// already has).
    pub fn sleep_until(&self, at: u64) -> Sleep {
        Sleep {
            clock: Rc::clone(&self.clock),
            at,
            registered: false,
        }
    }

    /// Races `fut` against a `cycles`-long sleep: `Some(output)` if the
    /// future resolves first, else `None` with the future **dropped** —
    /// which is exactly the service futures' cancellation path.
    pub fn timeout<F: Future + Unpin>(&self, cycles: u64, fut: F) -> Timeout<F> {
        Timeout {
            sleep: self.sleep(cycles),
            inner: Some(fut),
        }
    }
}

/// Future of [`Handle::sleep`]/[`Handle::sleep_until`].
#[must_use = "futures do nothing unless polled"]
pub struct Sleep {
    clock: Rc<Clock>,
    at: u64,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.clock.now.get() >= this.at {
            return Poll::Ready(());
        }
        if !this.registered {
            // One registration suffices: the sleep belongs to one task,
            // so later polls carry a waker for the same task.
            this.clock
                .schedule(this.at, EventKind::Expire(cx.waker().clone()));
            this.registered = true;
        }
        Poll::Pending
    }
}

/// Future of [`Handle::timeout`]; resolves to `Some(output)` or, on
/// expiry, drops the inner future and resolves to `None`.
#[must_use = "futures do nothing unless polled"]
pub struct Timeout<F: Future + Unpin> {
    sleep: Sleep,
    inner: Option<F>,
}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Option<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let inner = this
            .inner
            .as_mut()
            .expect("Timeout polled after completion");
        if let Poll::Ready(v) = Pin::new(inner).poll(cx) {
            this.inner = None;
            return Poll::Ready(Some(v));
        }
        if Pin::new(&mut this.sleep).poll(cx).is_ready() {
            // Expired: cancellation is drop.
            this.inner = None;
            return Poll::Ready(None);
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn tasks_run_in_spawn_order_at_time_zero() {
        let order = RefCell::new(Vec::new());
        let mut ex = Executor::new(WAKE_COST);
        for i in 0..3 {
            let order = &order;
            ex.spawn(async move {
                order.borrow_mut().push(i);
            });
        }
        assert_eq!(ex.run(), Outcome::Completed);
        assert_eq!(ex.now(), 0);
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn sleeps_advance_the_clock_in_deadline_order() {
        let log = RefCell::new(Vec::new());
        let mut ex = Executor::new(WAKE_COST);
        let h = ex.handle();
        for (i, delay) in [30u64, 10, 20].into_iter().enumerate() {
            let (h, log) = (h.clone(), &log);
            ex.spawn(async move {
                h.sleep(delay).await;
                log.borrow_mut().push((h.now(), i));
            });
        }
        assert_eq!(ex.run(), Outcome::Completed);
        assert_eq!(ex.now(), 30);
        assert_eq!(*log.borrow(), vec![(10, 1), (20, 2), (30, 0)]);
    }

    #[test]
    fn a_repoll_and_an_expiry_due_together_dispatch_in_seq_order() {
        // A task that wakes itself at t = 0 is re-polled at t = 10, the
        // deadline of a sleep made at t = 0 too. The event scheduled
        // first, by the task spawned first, is dispatched first.
        for first in ["re-poll", "expiry"] {
            let log = &RefCell::new(Vec::new());
            let mut ex = Executor::new(10);
            let h = ex.handle();
            let waker = async move {
                let mut woken = false;
                std::future::poll_fn(|cx| {
                    if std::mem::replace(&mut woken, true) {
                        return Poll::Ready(());
                    }
                    cx.waker().wake_by_ref();
                    Poll::Pending
                })
                .await;
                log.borrow_mut().push("re-poll");
            };
            let sleeper = async move {
                h.sleep_until(10).await;
                log.borrow_mut().push("expiry");
            };
            if first == "re-poll" {
                ex.spawn(waker);
                ex.spawn(sleeper);
            } else {
                ex.spawn(sleeper);
                ex.spawn(waker);
            }
            assert_eq!(ex.run(), Outcome::Completed);
            assert_eq!(ex.now(), 10);
            drop(ex);
            assert_eq!(log.take()[0], first);
        }
    }

    #[test]
    fn every_wake_to_poll_sample_is_the_wake_cost() {
        // One poll wakes three parked tasks: their re-polls fall due
        // together and run one after another at the same virtual time. The
        // cost is a power of two, the only value its log2 bucket holds up to
        // the histogram's maximum, so equal histograms mean equal samples.
        const COST: u64 = 8;
        let parked = &RefCell::new(Vec::new());
        let mut ex = Executor::new(COST);
        for _ in 0..3 {
            ex.spawn(async move {
                let mut first = true;
                std::future::poll_fn(|cx| {
                    if std::mem::take(&mut first) {
                        parked.borrow_mut().push(cx.waker().clone());
                        return Poll::Pending;
                    }
                    Poll::Ready(())
                })
                .await;
            });
        }
        ex.spawn(async move { parked.take().into_iter().for_each(Waker::wake) });
        assert_eq!(ex.run(), Outcome::Completed);
        assert_eq!(ex.now(), COST);
        let mut want = trace::Histogram::new();
        (0..3).for_each(|_| want.record(COST));
        assert_eq!(ex.metrics().wake_to_poll, want);
    }

    #[test]
    fn waker_wakes_are_priced_at_wake_cost() {
        let svc = service::AsyncLockService::with_shards(1);
        let granted_at = RefCell::new(0u64);
        let mut ex = Executor::new(7);
        let h = ex.handle();
        {
            let (h, svc) = (h.clone(), &svc);
            ex.spawn(async move {
                let _g = svc.lock(1).await;
                h.sleep(100).await;
            });
        }
        {
            let (h, svc, granted_at) = (h.clone(), &svc, &granted_at);
            ex.spawn(async move {
                let _g = svc.lock(1).await;
                *granted_at.borrow_mut() = h.now();
            });
        }
        assert_eq!(ex.run(), Outcome::Completed);
        // Task 0 releases at t=100; the wake costs 7 cycles.
        assert_eq!(*granted_at.borrow(), 107);
        drop(ex);
        assert_eq!(svc.sync().stats().live, 0);
    }

    #[test]
    fn timeout_expires_and_drops_the_inner_future() {
        let svc = service::AsyncLockService::with_shards(1);
        let outcome = RefCell::new(None);
        let mut ex = Executor::new(WAKE_COST);
        let h = ex.handle();
        {
            let (h, svc) = (h.clone(), &svc);
            ex.spawn(async move {
                let _g = svc.lock(1).await;
                h.sleep(1000).await;
            });
        }
        {
            let (h, svc, outcome) = (h.clone(), &svc, &outcome);
            ex.spawn(async move {
                // Times out long before the holder releases; the inner
                // LockFuture is dropped mid-wait (the cancellation path).
                let r = h.timeout(50, svc.lock(1)).await;
                *outcome.borrow_mut() = Some(r.is_some());
            });
        }
        assert_eq!(ex.run(), Outcome::Completed);
        assert_eq!(*outcome.borrow(), Some(false));
        drop(ex);
        assert_eq!(svc.sync().stats().live, 0);
    }

    #[test]
    fn timeout_completion_beats_the_clock() {
        let svc = service::AsyncLockService::with_shards(1);
        let outcome = RefCell::new(None);
        let mut ex = Executor::new(WAKE_COST);
        let h = ex.handle();
        {
            let (h, svc, outcome) = (h.clone(), &svc, &outcome);
            ex.spawn(async move {
                let r = h.timeout(50, svc.lock(1)).await;
                *outcome.borrow_mut() = Some(r.is_some());
            });
        }
        assert_eq!(ex.run(), Outcome::Completed);
        assert_eq!(*outcome.borrow(), Some(true));
        drop(ex);
        assert_eq!(svc.sync().stats().live, 0);
    }

    #[test]
    fn deadlock_is_reported_as_a_stall_not_a_hang() {
        let svc = service::AsyncLockService::with_shards(4);
        let mut ex = Executor::new(WAKE_COST);
        let h = ex.handle();
        // The classic reversed-order deadlock, staged with sleeps so each
        // task holds its first key before wanting the second.
        {
            let (h, svc) = (h.clone(), &svc);
            ex.spawn(async move {
                let _a = svc.lock(1).await;
                h.sleep(10).await;
                let _b = svc.lock(2).await;
            });
        }
        {
            let (h, svc) = (h.clone(), &svc);
            ex.spawn(async move {
                let _b = svc.lock(2).await;
                h.sleep(10).await;
                let _a = svc.lock(1).await;
            });
        }
        ex.spawn(async {});
        assert_eq!(
            ex.run(),
            Outcome::Stalled {
                unfinished: vec![0, 1]
            }
        );
        // Dropping the executor drops the deadlocked futures, releasing
        // everything through their cancellation paths.
        drop(ex);
        assert_eq!(svc.sync().stats().live, 0);
    }

    #[test]
    fn executor_runs_are_deterministic() {
        let run = || {
            let svc = service::AsyncLockService::with_shards(8);
            let log = RefCell::new(Vec::new());
            let mut ex = Executor::new(WAKE_COST);
            let h = ex.handle();
            for i in 0..8u64 {
                let (h, svc, log) = (h.clone(), &svc, &log);
                ex.spawn(async move {
                    h.sleep(i % 3).await;
                    let _g = svc.lock(i % 2).await;
                    h.sleep(5).await;
                    log.borrow_mut().push((i, h.now()));
                });
            }
            assert_eq!(ex.run(), Outcome::Completed);
            let t = ex.now();
            drop(ex);
            (t, log.into_inner())
        };
        assert_eq!(run(), run());
    }
}
