//! Multi-thread stress on real threads: every `kernels` lock run through
//! `workloads::realhw` (the harness fig8 times), and the `qsm` crate's
//! hand-written primitives — the QSM mutex over a plain cell, the barrier,
//! an eventcount/sequencer queue — which CI's ThreadSanitizer job re-runs
//! to judge their orderings as written.

use kernels::locks::{all_locks, LockKernel};
use kernels::{ProcCtx, Region};
use qsm::{EventCount, Mutex, QsmBarrier, Sequencer};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workloads::realhw;

#[test]
fn all_locks_protect_a_shared_vec() {
    // The fixture sizes the Anderson kernel to exactly `THREADS` slots, so
    // it runs at its capacity bound here.
    const THREADS: usize = 4;
    const PUSHES: u64 = 300;
    struct Shared(UnsafeCell<Vec<u64>>);
    // SAFETY: every access to the vector happens under the lock under test.
    unsafe impl Sync for Shared {}
    impl Shared {
        fn push(&self, x: u64) {
            // SAFETY: called only by the holder of the lock under test.
            unsafe { (*self.0.get()).push(x) };
        }
    }
    for lock in all_locks() {
        let name = lock.name();
        let shared = Shared(UnsafeCell::new(Vec::new()));
        let pushed: [AtomicU64; THREADS] = Default::default();
        let run = realhw::run(&*lock, THREADS, PUSHES, |ctx, _| {
            let id = ctx.pid() as u64;
            let i = pushed[ctx.pid()].fetch_add(1, Ordering::Relaxed);
            shared.push(id * 1000 + i);
        });
        assert!(run.failures.is_empty(), "{name}: {:?}", run.failures);
        let v = shared.0.into_inner();
        assert_eq!(v.len(), THREADS * PUSHES as usize, "{name} lost pushes");
        // Per-thread subsequences must appear in order (a torn push or a
        // lost update would break this).
        for id in 0..THREADS as u64 {
            let mine: Vec<u64> = v.iter().copied().filter(|x| x / 1000 == id).collect();
            assert_eq!(
                mine.len(),
                PUSHES as usize,
                "{name}: thread {id} lost entries"
            );
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "{name}: thread {id} entries out of order"
            );
        }
    }
}

#[test]
fn a_store_only_lock_fails_the_harness() {
    // The harness's exclusion witness is the counter itself, incremented by
    // a data load and a data store: a "lock" that lets both threads in must
    // lose updates, and the harness must say so.
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        eprintln!("a_store_only_lock_fails_the_harness: skipped, needs two cores");
        return;
    }
    struct StoreOnly;
    impl LockKernel for StoreOnly {
        fn name(&self) -> &'static str {
            "store-only"
        }
        fn lines_needed(&self, _nprocs: usize) -> usize {
            1
        }
        fn acquire(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64) -> u64 {
            ctx.store(region.slot(0), 1);
            0
        }
        fn release(&self, ctx: &mut dyn ProcCtx, region: &Region, _ps: &mut u64, _t: u64) {
            ctx.store(region.slot(0), 0);
        }
    }
    // A run only loses updates if the two threads really run at once. A
    // virtual machine can keep them on one host core for tens of
    // milliseconds (one release process in forty on a 2-vCPU guest, every
    // run of it), so the harness gets runs for up to five seconds.
    let start = std::time::Instant::now();
    loop {
        let run = std::panic::catch_unwind(|| {
            realhw::contended_throughput(&StoreOnly, 2, 100_000);
        });
        let msg = run.err().and_then(|e| e.downcast::<String>().ok());
        if msg.is_some_and(|m| m.contains("lost critical sections")) {
            return;
        }
        assert!(
            start.elapsed().as_secs() < 5,
            "two unserialised threads lost no increment in five seconds"
        );
    }
}

#[test]
fn mutex_with_every_raw_lock_via_type_params() {
    fn hammer() {
        let m: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..400 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*m.lock(), 1200, "qsm lost updates");
    }
    hammer();
}

#[test]
fn barrier_phases_order_effects() {
    const THREADS: usize = 4;
    const EPISODES: u64 = 200;
    let barrier = Arc::new(QsmBarrier::new(THREADS));
    let phase_sum = Arc::new(AtomicU64::new(0));
    let threads: Vec<_> = (0..THREADS)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            let phase_sum = Arc::clone(&phase_sum);
            std::thread::spawn(move || {
                for ep in 1..=EPISODES {
                    phase_sum.fetch_add(1, Ordering::Relaxed);
                    barrier.wait();
                    // After the episode, exactly THREADS*ep arrivals happened.
                    let seen = phase_sum.load(Ordering::Relaxed);
                    assert!(seen >= THREADS as u64 * ep, "episode {ep}: {seen}");
                    barrier.wait();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(phase_sum.load(Ordering::Relaxed), THREADS as u64 * EPISODES);
}

#[test]
fn eventcount_and_sequencer_run_a_lockless_queue() {
    // Two producers + one consumer over a 4-slot ring (the pipeline example
    // in miniature, asserted strictly).
    const TOTAL: u64 = 4000;
    const CAP: u64 = 4;
    let turns = Arc::new(Sequencer::new());
    let produced = Arc::new(EventCount::new());
    let consumed = Arc::new(EventCount::new());
    let cells: Arc<Vec<AtomicU64>> = Arc::new((0..CAP).map(|_| AtomicU64::new(0)).collect());

    let consumer = {
        let produced = Arc::clone(&produced);
        let consumed = Arc::clone(&consumed);
        let cells = Arc::clone(&cells);
        std::thread::spawn(move || {
            let mut sum = 0u64;
            for seq in 0..TOTAL {
                produced.await_at_least(seq + 1);
                sum += cells[(seq % CAP) as usize].load(Ordering::Acquire);
                consumed.advance();
            }
            sum
        })
    };

    let producers: Vec<_> = (0..2)
        .map(|_| {
            let turns = Arc::clone(&turns);
            let produced = Arc::clone(&produced);
            let consumed = Arc::clone(&consumed);
            let cells = Arc::clone(&cells);
            std::thread::spawn(move || {
                loop {
                    let seq = turns.ticket();
                    if seq >= TOTAL {
                        return;
                    }
                    if seq >= CAP {
                        consumed.await_at_least(seq - CAP + 1);
                    }
                    produced.await_at_least(seq); // strict fill order
                    cells[(seq % CAP) as usize].store(seq + 1, Ordering::Release);
                    produced.advance();
                }
            })
        })
        .collect();

    for p in producers {
        p.join().unwrap();
    }
    let sum = consumer.join().unwrap();
    assert_eq!(sum, (1..=TOTAL).sum::<u64>());
}
