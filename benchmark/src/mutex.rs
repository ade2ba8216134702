//! The four real-thread mutex workloads. One driver; they differ only in
//! how keys are drawn and how long a lock is held:
//!
//! - `mutex_disjoint` — private keys, empty hold: nothing ever contends, so
//!   the table's attach/detach and the lock-word CAS do all the work.
//! - `mutex_churn` — uniform keys over 2^22, empty hold: almost no key is
//!   touched twice, the bypass case for anything that keeps slots resident.
//! - `mutex_zipf` — Zipf(1.1) over 4096 keys, ~1 µs hold: the server mix.
//! - `mutex_convoy` — two keys, a hold long enough that waiters park.

use crate::keys::{self, KeyDist, RING_LEN};
use crate::layers::Counts;
use crate::workload::{run_clients, Recorder, Rep, Workload, OP_CHILDREN};
use service::{LockService, MetricsMode};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::Duration;

/// What distinguishes one mutex workload from another.
#[derive(Debug, Clone, Copy)]
pub struct MutexSpec {
    pub dist: KeyDist,
    /// Links of the hash chain run while the lock is held.
    pub hold: u32,
}

struct ThreadState {
    ring: Vec<u64>,
    cursor: usize,
    rec: Recorder,
}

pub struct MutexWorkload {
    svc: LockService,
    hold: u32,
    threads: Vec<ThreadState>,
    /// One plain counter per key, bumped under that key's lock by a racy
    /// load-then-store: a failure of mutual exclusion loses an update.
    counters: Vec<AtomicU32>,
    /// Operations completed so far, which `counters` must sum to.
    total_ops: u64,
}

impl MutexWorkload {
    pub fn new(spec: MutexSpec, seed: u64, threads: usize) -> Self {
        MutexWorkload {
            svc: LockService::with_metrics_mode(service::DEFAULT_SHARDS, MetricsMode::Counters),
            hold: spec.hold,
            threads: (0..threads)
                .map(|t| ThreadState {
                    ring: spec.dist.ring(seed, t, RING_LEN),
                    cursor: 0,
                    rec: Recorder::new(),
                })
                .collect(),
            counters: (0..spec.dist.key_space(threads))
                .map(|_| AtomicU32::new(0))
                .collect(),
            total_ops: 0,
        }
    }
}

/// The closed loop of one client thread: lock, bump the key's counter
/// around the hold work, unlock, next key, no think time.
fn client<const TRACED: bool>(
    svc: &LockService,
    counters: &[AtomicU32],
    hold: u32,
    st: &mut ThreadState,
    stop: &AtomicBool,
) {
    let mut i = st.cursor;
    while !stop.load(Ordering::Relaxed) {
        let key = st.ring[i & (RING_LEN - 1)];
        let counter = &counters[key as usize];
        st.rec.op::<TRACED, _>(
            || svc.lock(key),
            |_| {
                let seen = counter.load(Ordering::Relaxed);
                keys::hold(key, hold);
                counter.store(seen.wrapping_add(1), Ordering::Relaxed);
            },
            drop,
        );
        i += 1;
    }
    st.cursor = i & (RING_LEN - 1);
}

impl Workload for MutexWorkload {
    fn children(&self) -> &'static [&'static str] {
        OP_CHILDREN
    }

    fn rep(&mut self, dur: Duration, traced: bool) -> Rep {
        let before = Counts::read(&self.svc);
        let (svc, counters, hold) = (&self.svc, &self.counters[..], self.hold);
        let (_, wall_ns, cpu_ns) = run_clients(&mut self.threads, dur, |tid, st, epoch, stop| {
            st.rec.begin(format!("client{tid}"), epoch, traced);
            if traced {
                client::<true>(svc, counters, hold, st, stop);
            } else {
                client::<false>(svc, counters, hold, st, stop);
            }
        });
        let mut rep = Rep {
            wall_ns,
            cpu_ns,
            ..Rep::default()
        };
        rep.collect(self.threads.iter_mut().map(|st| &mut st.rec), traced);

        self.total_ops += rep.ops;
        let counted: u64 = self
            .counters
            .iter()
            .map(|c| u64::from(c.load(Ordering::Relaxed)))
            .sum();
        if counted != self.total_ops {
            let lost = self.total_ops.abs_diff(counted);
            rep.fail(
                lost,
                format!(
                    "per-key counters sum to {counted}, expected {}",
                    self.total_ops
                ),
            );
            // Re-base so one violation is not charged to every later repetition.
            self.total_ops = counted;
        }
        Counts::close(&before, &self.svc, &mut rep);
        rep
    }

    fn finish(self: Box<Self>) -> Vec<String> {
        Counts::read(&self.svc).quiescent_violations()
    }
}
