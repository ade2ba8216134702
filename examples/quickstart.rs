//! Quickstart: the three services of the Queueing Synchronization
//! Mechanism on real hardware — lock, barrier, eventcount.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qsm::{EventCount, Mutex, QsmBarrier};
use std::sync::Arc;

fn main() {
    const THREADS: usize = 4;
    const ROUNDS: u64 = 1000;

    // 1. Mutual exclusion: a QSM-protected counter.
    let counter: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));

    // 2. Barrier episodes: everyone finishes round k before round k+1.
    let barrier = Arc::new(QsmBarrier::new(THREADS));

    // 3. Condition synchronization: each phase's leader prints its phase
    //    and then announces it through an eventcount, so the monitor
    //    thread that awaits both announcements prints after both lines.
    let phases = Arc::new(EventCount::new());

    let monitor = {
        let phases = Arc::clone(&phases);
        std::thread::spawn(move || {
            let seen = phases.await_at_least(2);
            println!("monitor: observed phase count {seen}");
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|id| {
            let counter = Arc::clone(&counter);
            let barrier = Arc::clone(&barrier);
            let phases = Arc::clone(&phases);
            std::thread::spawn(move || {
                // Phase 1: contended increments.
                for _ in 0..ROUNDS {
                    *counter.lock() += 1;
                }
                if barrier.wait().is_leader() {
                    println!("phase 1 complete: counter = {}", *counter.lock());
                    phases.advance();
                }
                // Every thread verifies phase 1's total — possible only
                // because the barrier ordered the phases. A second barrier
                // keeps phase-2 increments from racing these checks.
                assert_eq!(*counter.lock(), THREADS as u64 * ROUNDS);
                barrier.wait();
                // Phase 2.
                for _ in 0..ROUNDS {
                    *counter.lock() += 1;
                }
                if barrier.wait().is_leader() {
                    println!("phase 2 complete: counter = {}", *counter.lock());
                    phases.advance();
                }
                id
            })
        })
        .collect();

    for w in workers {
        w.join().unwrap();
    }
    monitor.join().unwrap();

    let total = *counter.lock();
    assert_eq!(total, 2 * THREADS as u64 * ROUNDS);
    println!("quickstart OK: {total} increments, protected by {}", counter.raw_name());
}
