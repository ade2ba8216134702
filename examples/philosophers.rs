//! Dining philosophers on QSM mutexes — the classic deadlock-avoidance
//! demo, here used to show (a) `qsm::Mutex` guards composing lexically,
//! (b) the ordered-acquisition discipline that makes the composition safe,
//! and (c) the spin and blocking lock variants being interchangeable
//! behind the same `RawLock` interface.
//!
//! Each philosopher always picks up the lower-numbered fork first, so the
//! wait-for graph is acyclic and the run always completes.
//!
//! ```text
//! cargo run --release --example philosophers              # spin QSM forks
//! cargo run --release --example philosophers -- --blocking  # futex-parking forks
//! ```
//!
//! `--blocking` swaps the forks to [`parking::QsmMutexBlocking`] — same
//! queue discipline, but a contended philosopher spins only for what a
//! park costs and then parks on the futex. With five threads on fewer than
//! five cores the blocking variant is the one that doesn't fight the host
//! scheduler.

use parking::QsmMutexBlocking;
use qsm::{Mutex, RawLock};
use std::sync::Arc;

const PHILOSOPHERS: usize = 5;
const MEALS: u64 = 200;

fn dine<L: RawLock + Default + 'static>(variant: &str) {
    let forks: Arc<Vec<Mutex<u64, L>>> =
        Arc::new((0..PHILOSOPHERS).map(|_| Mutex::new(0)).collect());

    let diners: Vec<_> = (0..PHILOSOPHERS)
        .map(|seat| {
            let forks = Arc::clone(&forks);
            std::thread::spawn(move || {
                let left = seat;
                let right = (seat + 1) % PHILOSOPHERS;
                // Global order: lower index first — no circular wait.
                let (first, second) = if left < right { (left, right) } else { (right, left) };
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
        println!("philosopher {seat} finished {MEALS} meals ({variant} forks)");
    }

    let total: u64 = forks.iter().map(|f| *f.lock()).sum();
    // Every meal uses exactly two forks.
    assert_eq!(total, 2 * MEALS * PHILOSOPHERS as u64);
    println!("philosophers OK: {total} fork uses, no deadlock, no lost update");
}

fn main() {
    let mut blocking = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--blocking" => blocking = true,
            other => {
                eprintln!("unrecognized argument {other:?}");
                eprintln!("usage: philosophers [--blocking]");
                std::process::exit(2);
            }
        }
    }
    if blocking {
        dine::<QsmMutexBlocking>("blocking");
    } else {
        dine::<qsm::Qsm>("spin");
    }
}
