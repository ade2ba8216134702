//! Where the simulator's host time goes, cell by cell: the nine cells of the
//! benchmark's `sim_sweep` workload (`benchmark/src/sim.rs`), each timed on
//! its own, with how many engine steps (coroutine switches) a simulated event
//! takes — and what a run costs before its first event.
//!
//! ```text
//! cargo run --release --example sim_cells [rounds]
//! ```
//!
//! Per cell: host ns per simulated event (median and best of `rounds` × 50
//! runs timed one by one, default 5 — on a shared host the best is the
//! number that repeats), events and engine steps per run, and
//! `coro::switches()` per event. A step is one resume of a body by the
//! engine loop — a switch in and, at the body's next request, one back out —
//! so `coro::switches()` counts them; a run takes more steps than events
//! when bodies end or futex-wake, fewer when spinners re-probe without being
//! resumed. The last row is the one-processor run the benchmark's
//! `memsim.solo_ns_per_event` times. Then the time of an empty run at P = 1,
//! 16, 64 and 1024 (and at P = 64 on fig5/fig6's 6656-word dissemination
//! image, at P = 1024 on twice that): engine and coroutine set-up, the fixed
//! cost of every cell.

use kernels::barriers::{barrier_by_name, timing_trial};
use kernels::locks::{counter_trial, lock_by_name};
use memsim::{Machine, MachineParams, Metrics};
use simcore::coro;
use std::time::Instant;
use workloads::csbench::{self, CsConfig};
use workloads::oversub::oversub_machine;

/// Simulated processors in every `sim_sweep` cell.
const P: usize = 16;

#[derive(Clone, Copy)]
enum Family {
    Bus,
    Numa,
    Oversub,
}

/// `sim_sweep`'s cells — name, family, kernel, processors, iterations — and
/// the benchmark's one-processor probe.
const CELLS: [(&str, Family, &str, usize, u64); 10] = [
    ("bus16_tas", Family::Bus, "tas", P, 3),
    ("bus16_ticket", Family::Bus, "ticket", P, 8),
    ("bus16_mcs", Family::Bus, "mcs", P, 12),
    ("bus16_qsm", Family::Bus, "qsm", P, 12),
    ("numa16_central", Family::Numa, "central", P, 12),
    ("numa16_dissemination", Family::Numa, "dissemination", P, 8),
    ("numa16_qsm_tree", Family::Numa, "qsm-tree", P, 12),
    ("oversub16on4_qsm_block", Family::Oversub, "qsm-block", P, 8),
    (
        "oversub16on4_qsm_block_park",
        Family::Oversub,
        "qsm-block-park",
        P,
        8,
    ),
    ("bus1_qsm", Family::Bus, "qsm", 1, 400),
];

fn run_cell(family: Family, kernel: &str, nprocs: usize, iters: u64) -> Metrics {
    let result = match family {
        Family::Bus => {
            let machine = Machine::new(MachineParams::bus_1991(nprocs));
            let lock = lock_by_name(kernel).expect("registered lock kernel");
            counter_trial(&machine, lock.as_ref(), nprocs, iters as usize, 20)
                .map(|(_, report)| report.metrics)
        }
        Family::Numa => {
            let machine = Machine::new(MachineParams::numa_1991(nprocs));
            let barrier = barrier_by_name(kernel).expect("registered barrier kernel");
            timing_trial(&machine, barrier.as_ref(), nprocs, iters, 50).map(|report| report.metrics)
        }
        Family::Oversub => {
            let machine = oversub_machine(nprocs, 4);
            let lock = lock_by_name(kernel).expect("registered lock kernel");
            let cfg = CsConfig {
                think: 0,
                jitter: false,
                hold: 20,
                ..CsConfig::new(nprocs, iters as usize)
            };
            csbench::run(&machine, lock.as_ref(), &cfg).map(|result| result.metrics)
        }
    };
    result.expect("cell completes")
}

/// Times `run` `count` times; the median and the best, in nanoseconds.
fn time(count: usize, mut run: impl FnMut()) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..count)
        .map(|_| {
            let t0 = Instant::now();
            run();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[count / 2], samples[0])
}

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|arg| arg.parse().expect("rounds: a positive count"))
        .unwrap_or(5);
    const RUNS: usize = 50;

    println!(
        "{:<30} {:>9} {:>9} {:>8} {:>8} {:>15}",
        "cell", "ns/event", "best", "events", "steps", "switches/event"
    );
    for (name, family, kernel, nprocs, iters) in CELLS {
        let before = coro::switches();
        let metrics = run_cell(family, kernel, nprocs, iters); // also the warm-up
        let steps = coro::switches() - before;
        let events = metrics.loads() + metrics.stores() + metrics.rmws();
        let (median, best) = time(rounds * RUNS, || {
            run_cell(family, kernel, nprocs, iters);
        });
        println!(
            "{name:<30} {:>9.1} {:>9.1} {events:>8} {steps:>8} {:>15.3}",
            median / events as f64,
            best / events as f64,
            steps as f64 / events as f64
        );
    }

    println!();
    for (nprocs, words) in [
        (1, 8),
        (16, 8),
        (64, 8),
        (64, 6656),
        (1024, 8),
        (1024, 13_312),
    ] {
        let machine = Machine::new(MachineParams::bus_1991(nprocs));
        let (median, best) = time(rounds * RUNS, || {
            machine.run(nprocs, words, |_| {}).expect("empty run");
        });
        println!(
            "empty run, P = {nprocs:>4}, {words:>5} words: {:>7.2} us, best {:>7.2}",
            median / 1000.0,
            best / 1000.0
        );
    }
}
