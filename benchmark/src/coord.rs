//! `coord_mix`: the three coordination primitives no mutex workload
//! touches, back to back in rounds of fixed operation counts —
//!
//! 1. `WaitingArraySemaphore` acquire/release with `max(1, T/2)` permits
//!    and a ~0.5 µs hold;
//! 2. an eventcount ring: wait for the neighbour's count, advance one's own;
//! 3. `barrier_wait` with `T` parties.
//!
//! One operation is one acquire/release pair, one ring step or one barrier
//! crossing of one thread; its wait is the time in the waiting call.

use crate::keys;
use crate::layers::Counts;
use crate::spec::SEMAPHORE_HOLD;
use crate::workload::{run_clients, Recorder, Rep, Workload, OP_CHILDREN};
use service::{LockService, MetricsMode, WaitingArraySemaphore};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Operations per thread in each phase of one round. Sized so a round
/// lasts a few milliseconds: long against the two std-barrier waits that
/// frame it, short against a repetition.
const SEM_OPS: u64 = 256;
const RING_OPS: u64 = 64;
const BARRIER_OPS: u64 = 64;

const EVENT_KEY_BASE: u64 = 1 << 20;
const BARRIER_KEY: u64 = 2 << 20;

pub struct CoordMix {
    svc: LockService,
    sem: WaitingArraySemaphore,
    permits: u32,
    recorders: Vec<Recorder>,
    /// Threads inside the semaphore right now; never above `permits`.
    inside: AtomicU32,
    /// Per-thread barrier round stamps, checked across each crossing.
    stamps: Vec<AtomicU64>,
    violations: AtomicU64,
}

impl CoordMix {
    pub fn new(_seed: u64, threads: usize) -> Self {
        // No keys are drawn: the workload's inputs are its fixed counts.
        let svc = LockService::with_metrics_mode(service::DEFAULT_SHARDS, MetricsMode::Counters);
        let permits = (threads / 2).max(1);
        CoordMix {
            sem: WaitingArraySemaphore::with_metrics(permits, 8, Arc::clone(svc.metrics())),
            svc,
            permits: permits as u32,
            recorders: (0..threads).map(|_| Recorder::new()).collect(),
            inside: AtomicU32::new(0),
            stamps: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            violations: AtomicU64::new(0),
        }
    }

    /// Runs rounds until told to stop; returns how many barrier crossings
    /// this thread led.
    fn client<const TRACED: bool>(
        &self,
        tid: usize,
        rec: &mut Recorder,
        sync: &Barrier,
        go: &AtomicBool,
        stop: &AtomicBool,
    ) -> u64 {
        let threads = self.stamps.len();
        let next = (tid + 1) % threads;
        let violate = || {
            self.violations.fetch_add(1, Ordering::Relaxed);
        };
        // Handles live for the whole repetition so the counts persist.
        let own = self
            .svc
            .eventcount(EVENT_KEY_BASE + tid as u64 * keys::KEY_STRIDE);
        let neighbour = self
            .svc
            .eventcount(EVENT_KEY_BASE + next as u64 * keys::KEY_STRIDE);
        let mut step = 0u64;
        let mut crossing = 0u64;
        let mut led = 0u64;
        loop {
            // All threads must agree to run another round, so one decides.
            if sync.wait().is_leader() {
                go.store(!stop.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            sync.wait();
            if !go.load(Ordering::Relaxed) {
                break;
            }
            for _ in 0..SEM_OPS {
                rec.op::<TRACED, _>(
                    || self.sem.acquire(),
                    |_| {
                        if self.inside.fetch_add(1, Ordering::SeqCst) >= self.permits {
                            violate();
                        }
                        keys::hold(step, SEMAPHORE_HOLD);
                        self.inside.fetch_sub(1, Ordering::SeqCst);
                    },
                    |_| self.sem.release(),
                );
            }
            for _ in 0..RING_OPS {
                rec.op::<TRACED, _>(
                    || neighbour.await_at_least(step),
                    |&seen| {
                        if (seen.wrapping_sub(step) as i64) < 0 {
                            violate();
                        }
                    },
                    |_| {
                        own.advance();
                    },
                );
                step += 1;
            }
            for _ in 0..BARRIER_OPS {
                crossing += 1;
                self.stamps[tid].store(crossing, Ordering::SeqCst);
                rec.op::<TRACED, _>(
                    || self.svc.barrier_wait(BARRIER_KEY, threads as u32),
                    |&leader| {
                        led += u64::from(leader);
                        // Released before the neighbour arrived?
                        if self.stamps[next].load(Ordering::SeqCst) < crossing {
                            violate();
                        }
                    },
                    |_| {},
                );
            }
        }
        led
    }
}

impl Workload for CoordMix {
    fn children(&self) -> &'static [&'static str] {
        OP_CHILDREN
    }

    fn rep(&mut self, dur: Duration, traced: bool) -> Rep {
        let before = Counts::read(&self.svc);
        let mut recorders = std::mem::take(&mut self.recorders);
        let sync = Barrier::new(recorders.len());
        let go = AtomicBool::new(false);
        let this = &*self;
        let (led, wall_ns, cpu_ns) = run_clients(&mut recorders, dur, |tid, rec, epoch, stop| {
            rec.begin(format!("client{tid}"), epoch, traced);
            if traced {
                this.client::<true>(tid, rec, &sync, &go, stop)
            } else {
                this.client::<false>(tid, rec, &sync, &go, stop)
            }
        });
        self.recorders = recorders;
        let mut rep = Rep {
            wall_ns,
            cpu_ns,
            ..Rep::default()
        };
        rep.collect(self.recorders.iter_mut(), traced);

        let broken = self.violations.swap(0, Ordering::Relaxed);
        if broken > 0 {
            rep.fail(
                broken,
                format!(
                    "{broken} semaphore bound, eventcount order or barrier release violation(s)"
                ),
            );
        }
        let crossings =
            rep.ops / self.stamps.len() as u64 / (SEM_OPS + RING_OPS + BARRIER_OPS) * BARRIER_OPS;
        // Each crossing has exactly one leader across the threads.
        let leaders: u64 = led.iter().sum();
        for stamp in &self.stamps {
            stamp.store(0, Ordering::SeqCst);
        }
        if leaders != crossings {
            rep.fail(
                leaders.abs_diff(crossings),
                format!("{leaders} barrier leaders over {crossings} crossings"),
            );
        }
        Counts::close(&before, &self.svc, &mut rep);
        rep
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        let mut violations = Counts::read(&self.svc).quiescent_violations();
        if self.sem.permits() != i64::from(self.permits) {
            violations.push(format!(
                "semaphore ends with {} of {} permits",
                self.sem.permits(),
                self.permits
            ));
        }
        violations
    }
}
