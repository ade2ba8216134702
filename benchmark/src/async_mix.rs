//! `async_mix`: the async front end under a closed loop of 64 tasks on the
//! repo's deterministic virtual-clock executor, driven by one host thread.
//!
//! Each iteration of a task takes a pool permit (`acquire_async`, 32
//! permits), then does one of: `lock(zipf key)` (80 %), `lock_many` of three
//! keys (15 %), or `timeout(short, lock(hot key))` (5 %), holding what it
//! got across a virtual-time `sleep`. One iteration is one operation. A
//! timeout that fires is the designed outcome of that operation — dropping
//! the future is the service's cancellation path — not a failure.
//!
//! The task set is bounded on purpose: the existing open-loop
//! `workloads::service_load::async_load` grows quadratically with its
//! backlog (≈2 000 polls per request at 200 k requests), which would swamp
//! any time budget.
//!
//! Work comes in batches of fixed size, each on a fresh executor fed the
//! same inputs, so every batch must reproduce the first one's poll count,
//! virtual makespan and timeout count bit for bit.

use crate::keys::thread_rng;
use crate::layers::Counts;
use crate::spans::{Marks, Track};
use crate::spec::SAMPLE_EVERY;
use crate::workload::{ns_since, Region, Rep, Workload};
use service::{AsyncLockService, MetricsMode, WaitingArraySemaphore};
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};
use workloads::executor::{Executor, Handle, Outcome, WAKE_COST};
use workloads::service_load::Zipf;

const TASKS: usize = 64;
const PERMITS: usize = 32;
/// Iterations per task in one batch.
const ITERS: usize = 128;
const KEYS: usize = 4096;
const HOT_KEY: u64 = 0;
/// Virtual cycles a grant is held.
const HOLD_CYCLES: u64 = 100;
/// Virtual cycles the timeout branch is willing to wait for the hot key.
const TIMEOUT_CYCLES: u64 = 150;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Lock(u64),
    Many([u64; 3]),
    Timeout,
}

/// Adds the host time spent in each poll of `inner` to `acc`, when given
/// one: the wait of an async acquisition is the sum over its polls.
struct Timed<'a, F> {
    inner: F,
    acc: Option<&'a Cell<u64>>,
}

impl<F: Future + Unpin> Future for Timed<'_, F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let this = self.get_mut();
        let Some(acc) = this.acc else {
            return Pin::new(&mut this.inner).poll(cx);
        };
        let t0 = Instant::now();
        let out = Pin::new(&mut this.inner).poll(cx);
        acc.set(acc.get() + t0.elapsed().as_nanos() as u64);
        out
    }
}

/// What the tasks of one batch record, shared through a `RefCell` (one
/// host thread polls them all).
#[derive(Default)]
struct Recording {
    waits: Vec<u32>,
    releases: Vec<u32>,
    tracks: Vec<Track>,
    timeouts: u64,
    over_permits: u64,
}

pub struct AsyncMix {
    svc: AsyncLockService,
    pool: WaitingArraySemaphore,
    /// `plan[task][iteration]`: the same for every batch.
    plan: Vec<Vec<Kind>>,
    /// One plain counter per key, read before and written after the hold.
    counters: Vec<Cell<u64>>,
    /// Lock acquisitions made so far, which `counters` must sum to.
    total_locks: u64,
    /// `(polls, makespan, timeouts)` of the first batch.
    first_batch: Option<(u64, u64, u64)>,
}

impl AsyncMix {
    pub fn new(seed: u64) -> Self {
        let zipf = Zipf::new(KEYS, 1.1);
        let plan = (0..TASKS)
            .map(|task| {
                let mut rng = thread_rng(seed, task);
                (0..ITERS)
                    .map(|_| match rng.next_below(100) {
                        0..80 => Kind::Lock(zipf.sample(&mut rng)),
                        80..95 => {
                            // lock_many rejects duplicate keys.
                            let mut keys = [0u64; 3];
                            let mut n = 0;
                            while n < 3 {
                                let k = zipf.sample(&mut rng);
                                if !keys[..n].contains(&k) {
                                    keys[n] = k;
                                    n += 1;
                                }
                            }
                            Kind::Many(keys)
                        }
                        _ => Kind::Timeout,
                    })
                    .collect()
            })
            .collect();
        let svc =
            AsyncLockService::with_metrics_mode(service::DEFAULT_SHARDS, MetricsMode::Counters);
        AsyncMix {
            // One slot per task: no two waiters ever share a slot, so the
            // wake-all-per-slot herd cannot make poll counts depend on how
            // far the ticket counter has run.
            pool: WaitingArraySemaphore::with_metrics(PERMITS, TASKS, Arc::clone(svc.metrics())),
            svc,
            plan,
            counters: (0..KEYS).map(|_| Cell::new(0)).collect(),
            total_locks: 0,
            first_batch: None,
        }
    }

    /// Holds whatever was granted across the virtual hold, bumping the
    /// plain counter of every key held around it.
    async fn hold(&self, h: &Handle, keys: &[u64]) {
        let seen: Vec<u64> = keys
            .iter()
            .map(|&k| self.counters[k as usize].get())
            .collect();
        h.sleep(HOLD_CYCLES).await;
        for (&k, v) in keys.iter().zip(seen) {
            self.counters[k as usize].set(v + 1);
        }
    }

    /// The loop of one task over its planned iterations.
    async fn task(
        &self,
        id: usize,
        h: Handle,
        rec: &RefCell<Recording>,
        inside: &Cell<usize>,
        epoch: Instant,
        traced: bool,
    ) {
        let now = || ns_since(epoch, Instant::now());
        // Span boundaries are only read off the clock when traced.
        let stamp = || if traced { now() } else { 0 };
        let mut track = Track::new(format!("task{id}"));
        let mut op_start = now();
        for (i, kind) in self.plan[id].iter().enumerate() {
            let sampled = traced || ((id * ITERS + i) as u64).is_multiple_of(SAMPLE_EVERY);
            let wait = Cell::new(0u64);
            let acc = sampled.then_some(&wait);
            let mut marks: Marks = [op_start, stamp(), 0, 0, 0, 0];
            self.pool.acquire_async().await;
            inside.set(inside.get() + 1);
            if inside.get() > PERMITS {
                rec.borrow_mut().over_permits += 1;
            }
            marks[2] = stamp();
            match *kind {
                Kind::Lock(k) => {
                    let guard = Timed {
                        inner: self.svc.lock(k),
                        acc,
                    }
                    .await;
                    marks[3] = stamp();
                    self.hold(&h, &[k]).await;
                    marks[4] = stamp();
                    drop(guard);
                }
                Kind::Many(keys) => {
                    let guard = Timed {
                        inner: self.svc.lock_many(&keys),
                        acc,
                    }
                    .await;
                    marks[3] = stamp();
                    self.hold(&h, &keys).await;
                    marks[4] = stamp();
                    drop(guard);
                }
                Kind::Timeout => {
                    let inner = h.timeout(TIMEOUT_CYCLES, self.svc.lock(HOT_KEY));
                    let guard = Timed { inner, acc }.await;
                    marks[3] = stamp();
                    match &guard {
                        Some(_) => self.hold(&h, &[HOT_KEY]).await,
                        None => rec.borrow_mut().timeouts += 1,
                    }
                    marks[4] = stamp();
                    drop(guard);
                }
            }
            inside.set(inside.get() - 1);
            self.pool.release();
            let mut rec = rec.borrow_mut();
            if sampled {
                rec.waits
                    .push(u32::try_from(wait.get()).unwrap_or(u32::MAX));
            }
            if traced {
                marks[5] = now();
                rec.releases
                    .push(u32::try_from(marks[5] - marks[4]).unwrap_or(u32::MAX));
                track.record((id * ITERS + i) as u64, marks, 4);
                op_start = marks[5];
            }
        }
        if traced {
            rec.borrow_mut().tracks.push(track);
        }
    }

    /// One batch: every task runs its plan on a fresh executor.
    /// Returns `(polls, makespan, wake-to-poll p50)`.
    fn batch(
        &self,
        rec: &RefCell<Recording>,
        epoch: Instant,
        traced: bool,
    ) -> Result<(u64, u64, u64), String> {
        let inside = Cell::new(0usize);
        let mut ex = Executor::new(WAKE_COST);
        for id in 0..TASKS {
            ex.spawn(self.task(id, ex.handle(), rec, &inside, epoch, traced));
        }
        match ex.run() {
            Outcome::Completed => {
                let m = ex.metrics();
                Ok((m.polls, ex.now(), m.wake_to_poll.quantile(0.5)))
            }
            Outcome::Stalled { unfinished } => Err(format!(
                "executor stalled with tasks {unfinished:?} unfinished"
            )),
        }
    }
}

impl Workload for AsyncMix {
    fn children(&self) -> &'static [&'static str] {
        &["permit", "acquire", "hold", "release"]
    }

    fn rep(&mut self, dur: Duration, traced: bool) -> Rep {
        let before = Counts::read(self.svc.sync());
        let rec = RefCell::new(Recording::default());
        let region = Region::start();
        let mut rep = Rep::default();
        let (mut polls, mut p50) = (0, 0);
        let mut batches = 0u64;
        while batches == 0 || region.epoch().elapsed() < dur {
            let timeouts_before = rec.borrow().timeouts;
            // Spans of the last batch only: 64 tracks of 128 operations.
            rec.borrow_mut().tracks.clear();
            match self.batch(&rec, region.epoch(), traced) {
                Ok((batch_polls, makespan, wake_p50)) => {
                    let this = (
                        batch_polls,
                        makespan,
                        rec.borrow().timeouts - timeouts_before,
                    );
                    let first = *self.first_batch.get_or_insert(this);
                    if this != first {
                        rep.fail(
                            (TASKS * ITERS) as u64,
                            format!("batch (polls, makespan, timeouts) = {this:?}, first batch had {first:?}"),
                        );
                    }
                    polls += batch_polls;
                    p50 = wake_p50;
                }
                Err(stall) => rep.fail((TASKS * ITERS) as u64, stall),
            }
            batches += 1;
        }
        (rep.wall_ns, rep.cpu_ns) = region.stop();
        rep.ops = batches * (TASKS * ITERS) as u64;

        let rec = rec.into_inner();
        if rec.over_permits > 0 {
            rep.fail(
                rec.over_permits,
                format!(
                    "{} permit grants beyond the pool's {PERMITS}",
                    rec.over_permits
                ),
            );
        }
        let locks_per_batch: u64 = self
            .plan
            .iter()
            .flatten()
            .map(|k| match k {
                Kind::Lock(_) | Kind::Timeout => 1,
                Kind::Many(_) => 3,
            })
            .sum();
        self.total_locks += batches * locks_per_batch - rec.timeouts;
        let counted: u64 = self.counters.iter().map(Cell::get).sum();
        if counted != self.total_locks {
            rep.fail(
                counted.abs_diff(self.total_locks),
                format!(
                    "per-key counters sum to {counted}, expected {}",
                    self.total_locks
                ),
            );
            self.total_locks = counted;
        }
        Counts::close(&before, self.svc.sync(), &mut rep);
        rep.waits = rec.waits;
        rep.releases = rec.releases;
        rep.waits.sort_unstable();
        rep.releases.sort_unstable();
        rep.tracks = rec.tracks;
        // Per batch, a count that must repeat exactly whatever the length
        // of the repetition.
        for (name, value) in &mut rep.layers {
            if *name == "async.cancellations" {
                *value /= batches as f64;
            }
        }
        let (_, makespan, _) = self.first_batch.unwrap_or_default();
        rep.layers.extend([
            ("async.polls_per_op", polls as f64 / rep.ops as f64),
            ("async.virtual_makespan_cycles", makespan as f64),
            ("async.wake_to_poll_p50_cycles", p50 as f64),
            (
                "executor.host_ns_per_poll",
                rep.wall_ns as f64 / polls.max(1) as f64,
            ),
        ]);
        rep
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        let mut violations = Counts::read(self.svc.sync()).quiescent_violations();
        if self.pool.permits() != PERMITS as i64 {
            violations.push(format!(
                "pool ends with {} of {PERMITS} permits",
                self.pool.permits()
            ));
        }
        violations
    }
}
