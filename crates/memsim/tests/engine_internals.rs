//! Integration tests for the engine's machinery as seen from outside:
//! watchpoint wake ordering, what a run costs the host (no thread, no
//! stack once the calling thread's cache is warm, one coroutine switch in
//! per engine step), and unwinding every suspended processor on a panic or
//! an engine error.

use memsim::{Machine, MachineParams, SimError};
use simcore::coro::{stacks_mapped, switches};
use std::panic::{catch_unwind, AssertUnwindSafe};
use syncctx::{ProcCtx, SyncCtx};

/// Memory layout used by the wake-ordering tests.
const FLAG: usize = 0;
const RANK_COUNTER: usize = 1;
const RANK_BASE: usize = 8;

/// Spinners arrive at the watchpoint at staggered times, two writers
/// store to the watched word in the same gather round, and every woken
/// spinner records the order it got through the post-wake fetch_add.
/// The recorded ranks are pure simulator outputs: five repetitions must
/// agree bit-for-bit.
#[test]
fn wake_order_under_simultaneous_writers_is_deterministic() {
    let nprocs = 6;
    let run_once = || {
        let machine = Machine::new(MachineParams::bus_1991(nprocs));
        let report = machine
            .run(nprocs, 32, |p| {
                match p.pid() {
                    0 | 1 => {
                        // Two writers racing to the watched word at the
                        // same local time: the engine must order them by
                        // (issue, pid), and the watchers' wake order is
                        // part of the simulated timing.
                        p.delay(500);
                        p.store(FLAG, p.pid() as u64 + 1);
                    }
                    pid => {
                        // Spinners arrive at staggered times so their
                        // park order differs from pid order.
                        p.delay(((nprocs - pid) * 40) as u64);
                        let observed = p.spin_while(FLAG, 0);
                        assert!(observed == 1 || observed == 2);
                        let rank = p.fetch_add(RANK_COUNTER, 1);
                        p.store(RANK_BASE + pid, rank + 1);
                    }
                }
            })
            .expect("wake-order run");
        let ranks: Vec<u64> = (2..nprocs)
            .map(|pid| report.memory[RANK_BASE + pid])
            .collect();
        (ranks, report.metrics.total_cycles)
    };

    let first = run_once();
    // All spinners were woken and ranked exactly once.
    let mut sorted = first.0.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 3, 4]);
    for _ in 0..4 {
        assert_eq!(run_once(), first, "wake order differs between runs");
    }
}

/// The `Threads:` line of `/proc/self/status`.
fn host_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

/// A run is coroutines on the calling thread: the process has as many
/// threads before a P = 64 run, while all 64 bodies are in flight, and
/// after it. The test harness starts and stops threads of its own as other
/// tests come and go, so the count is taken in a child process that runs
/// this test alone.
#[test]
fn a_run_spawns_no_thread() {
    const ALONE: &str = "MEMSIM_TEST_ALONE";
    if std::env::var_os(ALONE).is_none() {
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", "a_run_spawns_no_thread", "--test-threads=1"])
            .env(ALONE, "1")
            .output()
            .expect("rerun this test alone");
        assert!(
            child.status.success(),
            "{}{}",
            String::from_utf8_lossy(&child.stdout),
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }
    let nprocs = 64;
    let before = host_threads();
    let report = Machine::new(MachineParams::bus_1991(nprocs))
        .run(nprocs, 2, |p| {
            // Every body reaches its first operation before any executes,
            // so whoever is admitted here has 63 suspended peers.
            p.fetch_add(0, 1);
            assert_eq!(host_threads(), before, "p{} sees a new thread", p.pid());
            p.fetch_add(1, 1);
        })
        .expect("P = 64 run");
    assert_eq!(report.memory, vec![nprocs as u64; 2]);
    assert_eq!(host_threads(), before);
}

/// The engine loop resumes a body once to start it and once per reply, so
/// `coro::switches()` counts engine steps: operations plus processors.
/// (`delay` is local to the body and is no step.)
#[test]
fn a_run_switches_once_per_operation_and_once_per_body() {
    for (nprocs, ops) in [(1, 1000), (2, 300), (16, 20)] {
        let before = switches();
        let report = Machine::new(MachineParams::bus_1991(nprocs))
            .run(nprocs, 1, |p| {
                for _ in 0..ops {
                    p.fetch_add(0, 1);
                    p.delay(7);
                }
            })
            .expect("counter run");
        assert_eq!(report.memory[0], (nprocs * ops) as u64);
        assert_eq!(
            switches() - before,
            (nprocs * ops + nprocs) as u64,
            "P = {nprocs}"
        );
    }
}

/// Stacks are mapped once per host thread: after a warm-up run, five more
/// runs of the same width obtain none — also after runs that unwound every
/// processor, which must hand their stacks back like any other.
#[test]
fn a_warm_thread_maps_no_stack() {
    let nprocs = 8;
    let machine = Machine::new(MachineParams::bus_1991(nprocs));
    let body = |p: &mut memsim::Proc| {
        for _ in 0..10 {
            p.fetch_add(0, 1);
        }
    };

    let first = machine.run(nprocs, 4, body).expect("warm-up run");
    let warm = stacks_mapped();
    assert!(warm >= nprocs, "one stack per processor, {warm} mapped");
    for _ in 0..5 {
        let report = machine.run(nprocs, 4, body).expect("repeat run");
        assert_eq!(report.metrics, first.metrics, "runs must be identical");
    }
    assert_eq!(stacks_mapped(), warm, "a warm thread must not map stacks");

    // A user panic on one processor while its peers are parked in
    // watchpoints unwinds everyone and propagates the payload.
    let result = catch_unwind(AssertUnwindSafe(|| {
        machine.run(nprocs, 8, |p| {
            if p.pid() == 3 {
                p.delay(100);
                panic!("deliberate test panic");
            }
            // Everyone else parks forever on a word nobody writes.
            p.spin_until(FLAG, 7);
        })
    }));
    let payload = result.expect_err("user panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "deliberate test panic");

    // So does an engine-raised error, without panicking the caller.
    let deadlock = machine.run(nprocs, 8, |p| {
        p.spin_until(FLAG, 7 + p.pid() as u64);
    });
    match deadlock {
        Err(SimError::Deadlock { waiting }) => assert_eq!(waiting.len(), nprocs),
        other => panic!("expected deadlock, got {other:?}"),
    }

    // Both left the thread's stacks reusable, and the thread usable.
    let report = machine.run(nprocs, 4, body).expect("run after unwinding");
    assert_eq!(report.metrics, first.metrics);
    assert_eq!(stacks_mapped(), warm, "an unwound stack was not reused");
}
