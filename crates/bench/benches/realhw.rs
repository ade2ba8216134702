//! Benches of the real-hardware primitives (`qsm` crate).
//!
//! Complements the fig8 binary (whose uncontended column is each lock
//! kernel's acquire/release on real threads) with single-thread overhead
//! measurements of the `qsm` crate's primitives — `service::protocol`
//! over the process-global lot: eventcount advance, sequencer
//! tickets, a solo barrier episode and a mutex-protected increment. Uses
//! the workspace's own `bench::timing` harness; run with
//! `cargo bench -p bench --bench realhw`.

use bench::timing::report;
use std::hint::black_box;

fn main() {
    let ec = qsm::EventCount::new();
    report("eventcount_advance", || {
        black_box(ec.advance());
    });
    report("eventcount_read", || {
        black_box(ec.read());
    });
    let seq = qsm::Sequencer::new();
    report("sequencer_ticket", || {
        black_box(seq.ticket());
    });

    let barrier = qsm::QsmBarrier::new(1);
    report("qsm_barrier_solo_episode", || {
        black_box(barrier.wait());
    });

    let mutex: qsm::Mutex<u64> = qsm::Mutex::new(0);
    report("qsm_mutex_lock_increment", || {
        *mutex.lock() += 1;
    });
}
