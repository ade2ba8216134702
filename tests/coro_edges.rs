//! The edges of running simulated processors as coroutines on one host
//! thread (`memsim::coro`): every way a run ends early unwinds every body,
//! a body's panic crosses the coroutine root intact, the widest machine
//! fits, host threads do not share anything, and the stack budget and its
//! guard page are what the docs say.

use kernels::locks::{counter_trial, lock_by_name};
use memsim::{Machine, MachineParams, Proc, SimError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

const P: usize = 4;

/// Counts its drops.
struct Guard<'a>(&'a AtomicUsize);

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn bus(max_cycles: u64) -> Machine {
    let mut params = MachineParams::bus_1991(P);
    params.max_cycles = max_cycles;
    Machine::new(params)
}

/// Runs `body` on `P` processors, each holding a [`Guard`] across it, and
/// checks that every guard was dropped exactly once and that the thread
/// then hosts a clean run. Returns what the run returned, or the payload
/// it panicked with.
fn run_guarded(
    machine: &Machine,
    body: impl Fn(&mut Proc) + Send + Sync,
) -> std::thread::Result<Result<(), SimError>> {
    let drops = AtomicUsize::new(0);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        machine
            .run(P, 2, |p| {
                let _held = Guard(&drops);
                body(p);
            })
            .map(|_| ())
    }));
    assert_eq!(drops.load(Ordering::Relaxed), P, "one drop per processor");
    let after = bus(1_000_000)
        .run(P, 1, |p| {
            p.fetch_add(0, 1);
        })
        .expect("the thread hosts another run");
    assert_eq!(after.memory[0], P as u64);
    outcome
}

#[test]
fn every_early_end_unwinds_every_body_exactly_once() {
    let machine = bus(1_000_000);

    let deadlock = run_guarded(&machine, |p| {
        p.spin_until(0, 1); // nobody stores 1
    });
    assert!(matches!(deadlock, Ok(Err(SimError::Deadlock { ref waiting })) if waiting.len() == P));

    let lost = run_guarded(&machine, |p| {
        p.futex_wait(0, 0); // nobody wakes
    });
    assert!(matches!(lost, Ok(Err(SimError::LostWakeup { ref parked })) if parked.len() == P));

    let limit = run_guarded(&bus(5_000), |p| {
        if p.pid() == 0 {
            loop {
                p.delay(100);
            }
        }
        p.spin_until(0, 1);
    });
    assert_eq!(limit.unwrap(), Err(SimError::TimeLimit { limit: 5_000 }));

    let fault = run_guarded(&machine, |p| {
        if p.pid() == 0 {
            p.delay(500);
            p.load(99);
        }
        p.futex_wait(0, 0);
    });
    assert_eq!(fault.unwrap(), Err(SimError::Fault { pid: 0, addr: 99 }));

    let panicked = run_guarded(&machine, |p| {
        if p.pid() == P - 1 {
            p.delay(500);
            panic!("peer bug");
        }
        if p.pid() % 2 == 0 {
            p.spin_until(0, 1);
        } else {
            p.futex_wait(1, 0);
        }
    });
    let payload = panicked.expect_err("the peer's panic propagates");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"peer bug"));
}

/// Tearing a run down unwinds each body from the operation it is suspended
/// in. A body may catch that unwind; the next operation it issues is then
/// answered the same way, and so on until it ends.
#[test]
fn a_body_that_catches_the_abort_is_answered_with_it_again() {
    let caught = AtomicUsize::new(0);
    let carried_on = AtomicUsize::new(0);
    let deadlock = run_guarded(&bus(1_000_000), |p| {
        let first = catch_unwind(AssertUnwindSafe(|| p.spin_until(0, 1))); // nobody stores 1
        assert!(first.is_err(), "the spin can only end by the abort");
        let second = catch_unwind(AssertUnwindSafe(|| p.fetch_add(1, 1)));
        assert!(second.is_err(), "an aborted run executes nothing more");
        caught.fetch_add(1, Ordering::Relaxed);
        p.load(1);
        carried_on.fetch_add(1, Ordering::Relaxed);
    });
    assert!(matches!(deadlock, Ok(Err(SimError::Deadlock { ref waiting })) if waiting.len() == P));
    assert_eq!(caught.load(Ordering::Relaxed), P);
    assert_eq!(carried_on.load(Ordering::Relaxed), 0);
}

#[test]
fn user_panic_payload_propagates() {
    let outcome = catch_unwind(|| {
        let _ = bus(1_000_000).run(P, 1, |p| {
            if p.pid() == 1 {
                std::panic::panic_any(String::from("kernel bug"));
            }
            p.spin_until(0, 1);
        });
    });
    let payload = outcome.expect_err("the body's panic propagates");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("kernel bug")
    );
}

/// With backtraces on, the panic hook walks the panicking body's stack,
/// which is a coroutine's: the walk has to end at the coroutine root. The
/// setting is per process, so the test above is rerun in one that has it.
#[test]
fn user_panic_propagates_with_backtraces_on() {
    let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", "user_panic_payload_propagates", "--nocapture"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("rerun the panic test");
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert!(child.status.success(), "{stderr}");
    assert!(
        stderr.contains("stack backtrace:"),
        "no backtrace printed:\n{stderr}"
    );
    assert!(
        stderr.contains("src/coro.rs"),
        "the walk did not reach the coroutine root:\n{stderr}"
    );
}

#[test]
fn the_widest_machine_completes() {
    let report = Machine::new(MachineParams::bus_1991(128))
        .run(128, 1, |p| {
            p.fetch_add(0, 1);
            p.spin_until(0, 128);
        })
        .expect("P = 128 run");
    assert_eq!(report.memory[0], 128);
}

/// The `parallel_cells` shape: host threads running simulations side by
/// side share no engine state, no stack cache and no worker pool.
#[test]
fn concurrent_host_threads_match_a_serial_run() {
    let machine = Machine::new(MachineParams::bus_1991(8));
    let lock = lock_by_name("qsm").expect("registered lock kernel");
    let trial = || counter_trial(&machine, lock.as_ref(), 8, 10, 20).expect("trial completes");
    let (count, serial) = trial();
    assert_eq!(count, 80);
    let start = std::sync::Barrier::new(8);
    std::thread::scope(|s| {
        let hosts: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    trial()
                })
            })
            .collect();
        for host in hosts {
            let (count, report) = host.join().expect("host thread");
            assert_eq!(count, 80);
            assert_eq!(report.metrics, serial.metrics);
        }
    });
}

/// Descends `depth` frames of at least 1 KiB each, issues an operation at
/// the bottom, and reports the address of the deepest frame.
fn descend(p: &mut Proc, depth: usize) -> usize {
    let mut frame = [0u8; 1024];
    frame[depth % 1024] = 1;
    let frame = std::hint::black_box(&mut frame);
    let deepest = if depth == 0 {
        p.fetch_add(0, 1);
        frame.as_ptr() as usize
    } else {
        descend(p, depth - 1)
    };
    frame[0] = frame[0].wrapping_add(1); // the frame outlives the call below it
    deepest
}

/// A body has `STACK_BYTES` (256 KiB) of stack: 128 frames of 1 KiB fit
/// twice over, in debug builds too. Below the stack sits a page no access
/// is allowed to — what turns an overflow into a fault instead of a write
/// into some other mapping — which `/proc/self/maps` shows.
#[test]
fn a_body_has_its_stack_budget_above_a_guard_page() {
    let deepest = AtomicUsize::new(0);
    Machine::new(MachineParams::bus_1991(2))
        .run(2, 1, |p| {
            let at = descend(p, 128);
            if p.pid() == 0 {
                deepest.store(at, Ordering::Relaxed);
            }
        })
        .expect("128 KiB of frames fit");
    let at = deepest.load(Ordering::Relaxed);

    // Lines are `start-end perms ...`; the thread's cache keeps the stack
    // mapped after the run.
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    let regions: Vec<(usize, usize, &str)> = maps
        .lines()
        .map(|line| {
            let mut fields = line.split(' ');
            let (start, end) = fields
                .next()
                .and_then(|r| r.split_once('-'))
                .expect("range");
            let parse = |hex| usize::from_str_radix(hex, 16).expect("hex address");
            (parse(start), parse(end), fields.next().expect("perms"))
        })
        .collect();
    let &(start, end, perms) = regions
        .iter()
        .find(|&&(start, end, _)| (start..end).contains(&at))
        .expect("the body's stack is mapped");
    assert_eq!(perms, "rw-p");
    let top = start + memsim::coro::STACK_BYTES;
    assert!(
        top <= end && at < top,
        "frame at {at:#x} outside {start:#x}..{top:#x}"
    );
    assert!(
        top - at >= 128 * 1024,
        "the descent used {} bytes",
        top - at
    );
    let guard = regions
        .iter()
        .find(|&&(_, guard_end, _)| guard_end == start);
    assert!(
        matches!(guard, Some(&(guard_start, _, "---p")) if start - guard_start >= 4096),
        "no PROT_NONE page below the stack at {start:#x}: {guard:?}"
    );
}
