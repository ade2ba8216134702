//! Dining philosophers on QSM mutexes — the classic deadlock-avoidance
//! demo, here used to show `qsm::Mutex` guards composing lexically and the
//! ordered-acquisition discipline that makes the composition safe.
//!
//! Each philosopher always picks up the lower-numbered fork first, so the
//! wait-for graph is acyclic and the run always completes. A contended
//! philosopher spins only for what a park costs and then parks, so five
//! threads on fewer than five cores do not fight the host scheduler.
//!
//! ```text
//! cargo run --release --example philosophers
//! ```

use qsm::Mutex;
use std::sync::Arc;

const PHILOSOPHERS: usize = 5;
const MEALS: u64 = 200;

fn main() {
    let forks: Arc<Vec<Mutex<u64>>> = Arc::new((0..PHILOSOPHERS).map(|_| Mutex::new(0)).collect());

    let diners: Vec<_> = (0..PHILOSOPHERS)
        .map(|seat| {
            let forks = Arc::clone(&forks);
            std::thread::spawn(move || {
                let left = seat;
                let right = (seat + 1) % PHILOSOPHERS;
                // Global order: lower index first — no circular wait.
                let (first, second) = if left < right {
                    (left, right)
                } else {
                    (right, left)
                };
                for _ in 0..MEALS {
                    let mut f1 = forks[first].lock();
                    let mut f2 = forks[second].lock();
                    *f1 += 1; // each fork counts the meals it served
                    *f2 += 1;
                }
                seat
            })
        })
        .collect();

    for d in diners {
        let seat = d.join().unwrap();
        println!("philosopher {seat} finished {MEALS} meals");
    }

    let total: u64 = forks.iter().map(|f| *f.lock()).sum();
    // Every meal uses exactly two forks.
    assert_eq!(total, 2 * MEALS * PHILOSOPHERS as u64);
    println!("philosophers OK: {total} fork uses, no deadlock, no lost update");
}
