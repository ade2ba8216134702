//! Isolated probes of single layers: each times calls into one layer's
//! public functions from outside, with nothing else running, so that a
//! later change to that layer has a number of its own to move. They do not
//! depend on the workload; every traced run takes them afresh.
//!
//! Each probe reports the median over `BATCHES` batches of the mean time
//! per call within a batch. `scale` shrinks the batch sizes for the quick
//! smoke run.

use crate::host;
use crate::sim::{self, Family, CELLS};
use crate::stats::median;
use kernels::SyncCtx;
use memsim::{FragmentReplayer, Machine, MachineParams};
use parking::futex::{addr_of, mix64, ParkingLot};
use service::{
    AsyncLockService, LockService, MetricsMode, ServiceMetrics, ShardedTable, SlotKind,
    WaitingArraySemaphore,
};
use std::future::Future;
use std::hint::black_box;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::task::{Context, Waker};
use std::time::Instant;
use workloads::executor::{Executor, WAKE_COST};

const BATCHES: usize = 5;

/// Batch sizes at `scale` 1, by the rough cost of one call.
const CHEAP: u64 = 200_000;
const HANDOFF: u64 = 4_000;

struct Probe {
    scale: f64,
}

impl Probe {
    fn iters(&self, base: u64) -> u64 {
        ((base as f64 * self.scale) as u64).max(8)
    }

    /// Median over batches of the mean ns per call of `f`.
    fn solo(&self, base: u64, mut f: impl FnMut(u64)) -> f64 {
        let iters = self.iters(base);
        let per_call: Vec<f64> = (0..BATCHES as u64)
            .map(|batch| {
                let t0 = Instant::now();
                for i in 0..iters {
                    f(batch * iters + i);
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        median(&per_call)
    }

    /// The same with `threads` threads calling `f(thread, step)` side by
    /// side: wall time of a batch over the calls of *one* thread, so a
    /// ping-pong reports its round trip and a contended call its latency
    /// under contention. `step` keeps rising across batches.
    fn side_by_side(&self, threads: usize, base: u64, f: impl Fn(usize, u64) + Sync) -> f64 {
        let iters = self.iters(base);
        let gate = Barrier::new(threads + 1);
        let per_call: Vec<f64> = std::thread::scope(|s| {
            for tid in 0..threads {
                let (gate, f) = (&gate, &f);
                s.spawn(move || {
                    for batch in 0..BATCHES as u64 {
                        gate.wait();
                        for i in 0..iters {
                            f(tid, batch * iters + i);
                        }
                        gate.wait();
                    }
                });
            }
            (0..BATCHES)
                .map(|_| {
                    gate.wait();
                    let t0 = Instant::now();
                    gate.wait();
                    t0.elapsed().as_nanos() as f64 / iters as f64
                })
                .collect()
        });
        median(&per_call)
    }
}

fn service(mode: MetricsMode) -> LockService {
    LockService::with_metrics_mode(service::DEFAULT_SHARDS, mode)
}

/// Polls `fut` once with a waker that does nothing.
fn poll_once<F: Future + Unpin>(fut: &mut F) -> std::task::Poll<F::Output> {
    Pin::new(fut).poll(&mut Context::from_waker(Waker::noop()))
}

/// Runs every probe. `seed` picks the key stream of the telemetry probe.
pub fn run_all(seed: u64, scale: f64) -> Vec<(&'static str, f64)> {
    let p = Probe { scale };
    let threads = host::client_threads();
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // Floors: what any lock word and any timed span cost at the least.
    let word = AtomicU64::new(0);
    out.push((
        "floor.cas_pair_ns",
        p.solo(CHEAP, |_| {
            let _ = black_box(word.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst));
            black_box(word.swap(0, Ordering::SeqCst));
        }),
    ));
    out.push((
        "floor.clock_ns",
        p.solo(CHEAP, |_| {
            black_box(Instant::now().elapsed());
        }),
    ));
    let mut x = seed;
    out.push(("futex.mix64_ns", p.solo(5 * CHEAP, |_| x = mix64(x))));
    black_box(x);

    // service::table.
    let table = ShardedTable::with_metrics(
        service::DEFAULT_SHARDS,
        Arc::new(ServiceMetrics::new(MetricsMode::Counters)),
    );
    out.push((
        "table.shard_of_ns",
        p.solo(5 * CHEAP, |i| {
            black_box(table.shard_of(black_box(i)));
        }),
    ));
    out.push((
        "table.attach_detach_solo_ns",
        p.solo(CHEAP, |i| {
            drop(table.attach(i & 63, SlotKind::Mutex));
        }),
    ));
    {
        let keep = table.attach(7, SlotKind::Mutex);
        out.push((
            "table.attach_detach_shared_ns",
            p.solo(CHEAP, |_| {
                drop(table.attach(7, SlotKind::Mutex));
            }),
        ));
        drop(keep);
    }
    out.push((
        "table.attach_detach_mt_ns",
        p.side_by_side(threads, CHEAP, |tid, i| {
            drop(table.attach(tid as u64 * 1024 + (i & 63), SlotKind::Mutex));
        }),
    ));
    // 64 keys per thread that all fall into shard 0.
    let same_shard: Vec<u64> = (0u64..)
        .filter(|&k| table.shard_of(k) == 0)
        .take(64 * threads)
        .collect();
    out.push((
        "table.attach_detach_same_shard_mt_ns",
        p.side_by_side(threads, CHEAP, |tid, i| {
            drop(table.attach(same_shard[tid * 64 + (i & 63) as usize], SlotKind::Mutex));
        }),
    ));

    // service::lock, mutex paths.
    let svc = service(MetricsMode::Counters);
    let fast_roundtrip = p.solo(CHEAP, |_| drop(svc.lock(7)));
    out.push(("lock.fast_roundtrip_ns", fast_roundtrip));
    {
        let held = svc.lock(9);
        out.push((
            "lock.try_lock_fail_ns",
            p.solo(CHEAP, |_| {
                black_box(svc.try_lock(9).is_none());
            }),
        ));
        drop(held);
    }

    // parking::futex.
    let lot = ParkingLot::with_buckets(256);
    out.push((
        "futex.wait_mismatch_ns",
        p.solo(CHEAP, |_| {
            black_box(lot.wait(&word, 1));
        }),
    ));
    out.push((
        "futex.wake_empty_ns",
        p.solo(CHEAP, |_| {
            black_box(lot.wake_addr(addr_of(&word), 1));
        }),
    ));
    let ball = [AtomicU64::new(0), AtomicU64::new(0)];
    let wait_for = |w: &AtomicU64, target: u64| loop {
        let seen = w.load(Ordering::SeqCst);
        if seen == target {
            break;
        }
        lot.wait(w, seen);
    };
    out.push((
        "futex.pingpong_rtt_ns",
        p.side_by_side(2, HANDOFF, |tid, step| {
            // Thread 0 serves on word 0 and waits for the return on word 1.
            let (mine, theirs) = (&ball[tid], &ball[1 - tid]);
            if tid == 1 {
                wait_for(theirs, step + 1);
            }
            mine.store(step + 1, Ordering::SeqCst);
            lot.wake_addr(addr_of(mine), 1);
            if tid == 0 {
                wait_for(theirs, step + 1);
            }
        }),
    ));
    out.push((
        "futex.wake_batch_ns_per_addr",
        wake_batch_per_addr(&p, &lot),
    ));
    out.push((
        "futex.register_cancel_ns",
        p.solo(CHEAP, |_| {
            let entry = lot
                .register(&word, 0, Waker::noop())
                .expect("word still holds 0");
            black_box(lot.cancel(entry));
        }),
    ));
    out.push((
        "futex.register_wake_resume_ns",
        p.solo(CHEAP, |_| {
            let entry = lot
                .register(&word, 0, Waker::noop())
                .expect("word still holds 0");
            lot.wake_addr(addr_of(&word), 1);
            entry.resume();
        }),
    ));

    // Eventcount and barrier.
    {
        let (a, b) = (svc.eventcount(100), svc.eventcount(116));
        out.push((
            "event.advance_ns",
            p.solo(CHEAP, |_| {
                black_box(a.advance());
            }),
        ));
        let (base_a, base_b) = (a.read(), b.read());
        out.push((
            "event.pingpong_rtt_ns",
            p.side_by_side(2, HANDOFF, |tid, step| {
                if tid == 0 {
                    a.advance();
                    b.await_at_least(base_b + step + 1);
                } else {
                    a.await_at_least(base_a + step + 1);
                    b.advance();
                }
            }),
        ));
    }
    out.push((
        "barrier.solo_episode_ns",
        p.solo(CHEAP, |_| {
            black_box(svc.barrier_wait(200, 1));
        }),
    ));
    out.push((
        "barrier.episode_ns",
        p.side_by_side(threads, HANDOFF, |_, _| {
            svc.barrier_wait(216, threads as u32);
        }),
    ));

    // service::semaphore.
    let sem_metrics = || Arc::new(ServiceMetrics::new(MetricsMode::Counters));
    let sem = WaitingArraySemaphore::with_metrics(8, 8, sem_metrics());
    out.push((
        "semaphore.acquire_release_ns",
        p.solo(CHEAP, |_| {
            sem.acquire();
            sem.release();
        }),
    ));
    let one = WaitingArraySemaphore::with_metrics(1, 8, sem_metrics());
    out.push((
        "semaphore.handoff_rtt_ns",
        p.side_by_side(2, HANDOFF, |_, _| {
            one.acquire();
            one.release();
        }),
    ));
    // release_n(8) onto an idle semaphore, timed in runs of 64 with the
    // permits taken back outside the timed part.
    let idle = WaitingArraySemaphore::with_metrics(0, 8, sem_metrics());
    let per_permit: Vec<f64> = (0..p.iters(CHEAP / 64))
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..64 {
                black_box(idle.release_n(8));
            }
            let ns = t0.elapsed().as_nanos() as f64 / (64.0 * 8.0);
            while idle.try_acquire() {}
            ns
        })
        .collect();
    out.push(("semaphore.release_n_ns_per_permit", median(&per_permit)));

    // service::async_lock and the executor.
    let asvc = AsyncLockService::with_metrics_mode(service::DEFAULT_SHARDS, MetricsMode::Counters);
    out.push((
        "async.lock_ready_ns",
        p.solo(CHEAP, |_| {
            let mut fut = asvc.lock(7);
            drop(black_box(poll_once(&mut fut)));
        }),
    ));
    out.push((
        "async.lock_many3_ready_ns",
        p.solo(CHEAP / 2, |_| {
            let mut fut = asvc.lock_many(&[7, 23, 39]);
            drop(black_box(poll_once(&mut fut)));
        }),
    ));
    {
        let held = asvc.sync().lock(9);
        out.push((
            "async.pending_cancel_ns",
            p.solo(CHEAP, |_| {
                let mut fut = asvc.lock(9);
                assert!(poll_once(&mut fut).is_pending());
                drop(fut);
            }),
        ));
        drop(held);
    }
    let tasks = p.iters(CHEAP / 20);
    let per_task: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let mut ex = Executor::new(WAKE_COST);
            for _ in 0..tasks {
                ex.spawn(async {});
            }
            black_box(ex.run());
            t0.elapsed().as_nanos() as f64 / tasks as f64
        })
        .collect();
    out.push(("executor.spawn_ns", median(&per_task)));

    // service::telemetry: the mutex_disjoint stream of one thread through
    // services that differ only in metrics mode, interleaved.
    let keys = crate::keys::KeyDist::Private { per_thread: 64 }.ring(seed, 0, 4096);
    let modes = [
        MetricsMode::Off,
        MetricsMode::Counters,
        MetricsMode::Sampled(64),
    ];
    let services: Vec<LockService> = modes.iter().map(|&m| service(m)).collect();
    let iters = p.iters(CHEAP);
    // Each mode is held against the `off` run of its own round, so that a
    // slow spell of the host cancels instead of landing on one mode.
    let (mut counters_share, mut sampled_share, mut count_ns) =
        (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let [off, counters, sampled] = [0, 1, 2].map(|mode: usize| {
            let t0 = Instant::now();
            for i in 0..iters {
                drop(services[mode].lock(keys[i as usize & 4095]));
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        });
        counters_share.push(1.0 - off / counters);
        sampled_share.push(1.0 - off / sampled);
        count_ns.push(counters - off);
    }
    out.push(("telemetry.counters_cost_share", median(&counters_share)));
    out.push(("telemetry.sampled64_cost_share", median(&sampled_share)));
    out.push(("telemetry.count_ns", median(&count_ns)));
    out.push((
        "telemetry.snapshot_ns",
        p.solo(CHEAP / 100, |_| {
            black_box(svc.metrics_snapshot());
        }),
    ));

    // The reconciliation: do the layers of an uncontended round trip add
    // up to the round trip?
    let get = |name: &str| out.iter().find(|(n, _)| *n == name).expect("probe ran").1;
    let layer_sum =
        get("table.attach_detach_solo_ns") + get("floor.cas_pair_ns") + get("telemetry.count_ns");
    out.push(("lock.layer_sum_share", layer_sum / fast_roundtrip));

    out.extend(memsim_probes(threads));
    out
}

/// `wake_batch` over eight addresses with one thread parked on each: the
/// cost to the waker, per address.
fn wake_batch_per_addr(p: &Probe, lot: &ParkingLot) -> f64 {
    const ADDRS: usize = 8;
    let words: Vec<AtomicU64> = (0..ADDRS).map(|_| AtomicU64::new(0)).collect();
    let rounds = p.iters(HANDOFF / 16);
    let addrs: Vec<usize> = words.iter().map(addr_of).collect();
    let per_addr: Vec<f64> = std::thread::scope(|s| {
        for w in &words {
            s.spawn(move || {
                for round in 0..rounds {
                    while w.load(Ordering::SeqCst) == round {
                        lot.wait(w, round);
                    }
                }
            });
        }
        (0..rounds)
            .map(|round| {
                while words.iter().any(|w| lot.parked_count(w) == 0) {
                    std::thread::yield_now();
                }
                for w in &words {
                    w.store(round + 1, Ordering::SeqCst);
                }
                let t0 = Instant::now();
                lot.wake_batch(&addrs);
                t0.elapsed().as_nanos() as f64 / ADDRS as f64
            })
            .collect()
    });
    median(&per_addr)
}

/// The simulator's layers: host time per cell family over one sweep, the
/// engine-handoff share (one processor needs none), what recording costs,
/// and whether fragment replay pays.
fn memsim_probes(threads: usize) -> Vec<(&'static str, f64)> {
    let mut family_ns = [0f64; 3];
    let mut family_events = [0u64; 3];
    let (mut cycles, mut hits, mut misses) = (0u64, 0u64, 0u64);
    for cell in &CELLS {
        let t0 = Instant::now();
        let m = cell.run();
        let f = cell.family as usize;
        family_ns[f] += t0.elapsed().as_nanos() as f64;
        family_events[f] += sim::events(&m);
        cycles += m.total_cycles;
        hits += m.hits();
        misses += m.misses();
    }
    let rate = |f: Family| family_events[f as usize] as f64 * 1e9 / family_ns[f as usize];
    let events: u64 = family_events.iter().sum();
    let ns_per_event = family_ns.iter().sum::<f64>() / events as f64;

    // One bus cell by hand, so that it can also be recorded and replayed.
    let machine = Machine::new(MachineParams::bus_1991(16));
    let lock = kernels::locks::lock_by_name("qsm").expect("registered lock kernel");
    let trial = |nprocs: usize, iters: usize| {
        let (fix, memory) =
            kernels::locks::fixture(lock.as_ref(), nprocs, machine.params().line_words, 1);
        let counter = fix.scratch.slot(0);
        let lock = &lock;
        let body = move |p: &mut memsim::Proc| {
            let mut ps = lock.proc_init(p.pid(), &fix.region);
            for _ in 0..iters {
                let token = lock.acquire(p, &fix.region, &mut ps);
                let v = SyncCtx::load(p, counter);
                SyncCtx::delay(p, 20);
                SyncCtx::store(p, counter, v + 1);
                lock.release(p, &fix.region, &mut ps, token);
            }
        };
        (memory, body)
    };
    let timed = |f: &mut dyn FnMut() -> u64| {
        let per_event: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let n = f();
                t0.elapsed().as_nanos() as f64 / n.max(1) as f64
            })
            .collect();
        median(&per_event)
    };
    let (solo_memory, solo_body) = trial(1, 400);
    let solo = timed(&mut || {
        let report = machine
            .run_with_init(1, solo_memory.clone(), solo_body)
            .expect("solo trial completes");
        sim::events(&report.metrics)
    });
    let (memory, body) = trial(16, 12);
    let plain = timed(&mut || {
        let report = machine
            .run_with_init(16, memory.clone(), body)
            .expect("trial completes");
        sim::events(&report.metrics)
    });
    const FRAGMENT_CYCLES: u64 = 5_000;
    let mut recording = None;
    let recorded = timed(&mut || {
        let rec = machine
            .run_recorded(16, memory.clone(), FRAGMENT_CYCLES, body)
            .expect("recording completes");
        let n = sim::events(&rec.report().metrics);
        recording = Some(rec);
        n
    });
    let recording = recording.expect("recorded at least once");
    let replayed =
        timed(&mut || sim::events(&FragmentReplayer::new(&recording, threads).run().metrics));

    let pool = memsim::pool_stats();
    vec![
        ("memsim.bus_events_per_s", rate(Family::Bus)),
        ("memsim.numa_events_per_s", rate(Family::Numa)),
        ("memsim.oversub_events_per_s", rate(Family::Oversub)),
        ("memsim.host_ns_per_event", ns_per_event),
        ("memsim.solo_ns_per_event", solo),
        ("memsim.handoff_share", 1.0 - solo / plain),
        ("memsim.record_cost_share", 1.0 - plain / recorded),
        ("memsim.replay_speedup", plain / replayed),
        ("memsim.sim_cycles_total", cycles as f64),
        ("memsim.sim_events_total", events as f64),
        (
            "memsim.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        ("memsim.pool_spawned", pool.spawned as f64),
        ("memsim.pool_reused", pool.reused as f64),
    ]
}
