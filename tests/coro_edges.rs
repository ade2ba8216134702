//! The edges of running bodies as coroutines on one host thread
//! (`simcore::coro`), under both of its clients. `memsim`'s simulated
//! processors first: every way a run ends early unwinds every body, a
//! body's panic crosses the coroutine root intact, the widest machine
//! fits, host threads do not share anything, and the stack budget and its
//! guard page are what the docs say. Then `interleave`'s checked threads,
//! which got the same from `std::thread` until they became coroutines:
//! every ending of an execution unwinds every body once and leaks no
//! stack, an abort caught is an abort repeated, a body's panic is a verdict
//! and a torn-down run prints nothing, and the widest program is one host
//! thread.

use interleave::{ChkCtx, DporMode, Explorer, Failure, Program, ReplayEnd, Verdict};
use kernels::locks::{counter_trial, lock_by_name};
use kernels::{LockEvent, ProcCtx, SyncCtx};
use memsim::{Machine, MachineParams, Proc, SimError};
use simcore::coro::stacks_mapped;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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
        p.wait(0, 0, None); // nobody wakes
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
        p.wait(0, 0, None);
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
            p.wait(1, 0, None);
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

/// Host threads running simulations side by side share no engine state,
/// no stack cache and no worker pool.
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
    let top = start + simcore::coro::STACK_BYTES;
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

/// A checked program whose every thread holds a [`Guard`] across `body`.
fn guarded(
    nthreads: usize,
    words: usize,
    drops: &'static AtomicUsize,
    body: impl Fn(&mut ChkCtx) + Send + Sync + 'static,
) -> Program {
    Program::new(nthreads, words, move |ctx| {
        let _held = Guard(drops);
        body(ctx);
    })
}

/// Calls `batch` — some executions of a program of `guarded` threads,
/// returning how many bodies they started — once to warm the thread's stack
/// cache and then until 1 000 executions are through, and checks that the
/// thread mapped no stack meanwhile and every body's guard dropped once.
fn leaks_nothing(
    what: &str,
    nthreads: usize,
    drops: &AtomicUsize,
    mut batch: impl FnMut() -> usize,
) {
    batch();
    let (mapped, dropped) = (stacks_mapped(), drops.load(Ordering::Relaxed));
    let mut bodies = 0;
    while bodies < 1_000 * nthreads {
        bodies += batch();
    }
    assert_eq!(stacks_mapped(), mapped, "{what}: a body kept its stack");
    assert_eq!(
        drops.load(Ordering::Relaxed) - dropped,
        bodies,
        "{what}: one drop per body"
    );
}

/// Every way an execution of a checked program ends tears the run down
/// with some body suspended in an operation. Each such body must unwind —
/// its destructors run, once, and its stack goes back to the thread's
/// cache: a body left suspended would leak its stack (`simcore::coro`
/// never frees a suspended coroutine), and the search would map a fresh
/// one for every execution.
#[test]
fn every_ending_of_a_checked_run_unwinds_every_body_and_leaks_no_stack() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    const N: usize = 3;
    let explorer = Explorer::exhaustive();
    // One execution under the default schedule, which must end as `end`
    // says; `N` bodies started.
    let replays = |what: &'static str,
                   explorer: Explorer,
                   program: Program,
                   schedule: Vec<usize>,
                   end: fn(&ReplayEnd) -> bool| {
        leaks_nothing(what, N, &DROPS, || {
            let replay = explorer.replay(&program, &schedule);
            assert!(end(&replay.end), "{what}: ended in {:?}", replay.end);
            N
        });
    };

    replays(
        "deadlock",
        explorer,
        guarded(N, 1, &DROPS, |ctx| ctx.spin_until(0, 1)), // nobody stores 1
        vec![],
        |end| matches!(end, ReplayEnd::Failed(Failure::Deadlock(blocked)) if blocked.len() == N),
    );
    replays(
        "lost wakeup",
        explorer,
        guarded(N, 1, &DROPS, |ctx| {
            ctx.wait(0, 0, None); // nobody wakes
        }),
        vec![],
        |end| matches!(end, ReplayEnd::Failed(Failure::LostWakeup(parked)) if parked.len() == N),
    );
    replays(
        "race",
        explorer,
        guarded(N, 2, &DROPS, |ctx| {
            ctx.data_store(0, 1);
            ctx.spin_until(1, 1);
        }),
        vec![],
        |end| matches!(end, ReplayEnd::Failed(Failure::Race(_))),
    );
    replays(
        "body panic",
        explorer,
        guarded(N, 1, &DROPS, |ctx| {
            if ctx.fetch_add(0, 1) == 1 {
                // What `panic!` raises, without a thousand hook messages.
                resume_unwind(Box::new("second in"));
            }
            ctx.spin_until(0, 0);
        }),
        vec![],
        |end| matches!(end, ReplayEnd::Failed(Failure::Violation(msg)) if msg == "second in"),
    );
    replays(
        "diverged replay",
        explorer,
        guarded(N, 1, &DROPS, |ctx| {
            ctx.fetch_add(0, 1);
            ctx.spin_until(0, 0);
        }),
        vec![0, 1, 7], // there is no thread 7
        |end| matches!(end, ReplayEnd::Diverged { step: 2, choice: 7 }),
    );

    // A test-and-set lock taken twice by each thread: under this schedule
    // thread 1 retries while thread 0 takes the lock a second time.
    let tas = guarded(N, 1, &DROPS, |ctx| {
        for _ in 0..2 {
            ctx.lock_event(LockEvent::AcquireStart(0));
            while ctx.swap(0, 1) != 0 {}
            ctx.lock_event(LockEvent::Acquired(0));
            ctx.store(0, 0);
            ctx.lock_event(LockEvent::Released(0));
        }
    });
    let bypassed = explorer.with_bypass_bound(0).check(&tas, |_| Ok(()));
    let Verdict::Failed {
        schedule,
        failure: Failure::Starvation(_),
        ..
    } = bypassed
    else {
        panic!("a retry lock bypasses its waiters: {bypassed:?}");
    };
    replays(
        "starvation",
        explorer.with_bypass_bound(0),
        tas,
        schedule,
        |end| matches!(end, ReplayEnd::Failed(Failure::Starvation(_))),
    );

    // The two endings only a search has, a thousand and more to a search.
    let spinner = guarded(N, 1, &DROPS, |ctx| loop {
        ctx.load(0);
    });
    leaks_nothing("step limit", N, &DROPS, || {
        let v = explorer
            .with_dpor(DporMode::None)
            .with_max_steps(12)
            .with_max_runs(500)
            .check(&spinner, |_| Ok(()));
        assert_eq!(v.stats().pruned, 500, "every execution hits the limit");
        v.stats().runs * N
    });
    let independent = guarded(N, N, &DROPS, |ctx| {
        let mine = ctx.pid();
        ctx.store(mine, 1);
        ctx.store(mine, 2);
    });
    leaks_nothing("sleep-blocked", N, &DROPS, || {
        let v = explorer
            .with_dpor(DporMode::Sleep)
            .check(&independent, |_| Ok(()));
        assert!(v.stats().sleep_pruned > 0, "{:?}", v.stats());
        v.stats().runs * N
    });
}

/// The checker's turn at `a_body_that_catches_the_abort_is_answered_with_it_again`.
#[test]
fn a_checked_body_that_catches_the_abort_is_aborted_again() {
    static CAUGHT: AtomicUsize = AtomicUsize::new(0);
    static CARRIED_ON: AtomicUsize = AtomicUsize::new(0);
    let program = Program::new(P, 2, |ctx| {
        let first = catch_unwind(AssertUnwindSafe(|| ctx.spin_until(0, 1))); // nobody stores 1
        assert!(first.is_err(), "the spin can only end by the abort");
        let second = catch_unwind(AssertUnwindSafe(|| ctx.fetch_add(1, 1)));
        assert!(second.is_err(), "a torn-down run executes nothing more");
        CAUGHT.fetch_add(1, Ordering::Relaxed);
        ctx.load(1);
        CARRIED_ON.fetch_add(1, Ordering::Relaxed);
    });
    let replay = Explorer::exhaustive().replay(&program, &[]);
    assert!(
        matches!(replay.end, ReplayEnd::Failed(Failure::Deadlock(ref blocked)) if blocked.len() == P),
        "{:?}",
        replay.end
    );
    assert_eq!(
        replay.ops.len(),
        P,
        "one probe each, and nothing after the abort"
    );
    assert_eq!(CAUGHT.load(Ordering::Relaxed), P);
    assert_eq!(CARRIED_ON.load(Ordering::Relaxed), 0);
}

/// Reruns the test `name` of this binary alone in a child process, with
/// `CORO_EDGES_ALONE` set for it to tell, and returns the child's stderr;
/// `None` in that child.
fn rerun_alone(name: &str) -> Option<String> {
    const ALONE: &str = "CORO_EDGES_ALONE";
    if std::env::var_os(ALONE).is_some() {
        return None;
    }
    let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", name, "--nocapture", "--test-threads=1"])
        .env(ALONE, "1")
        .output()
        .expect("rerun the test alone");
    let stderr = String::from_utf8_lossy(&child.stderr).into_owned();
    assert!(
        child.status.success(),
        "{}{stderr}",
        String::from_utf8_lossy(&child.stdout)
    );
    Some(stderr)
}

/// A body's `panic!` is a verdict with its message and schedule, like any
/// other finding. Tearing a run down is not a panic anyone hears of: the
/// unwind is raised past the panic hook, so a search that tears down
/// thousands of runs prints nothing, and the checker needs no hook of its
/// own to keep it quiet — there used to be a process-wide one.
#[test]
fn a_checked_body_panic_is_a_verdict_and_a_torn_down_run_prints_nothing() {
    let program = Program::new(2, 1, |ctx| {
        if ctx.fetch_add(0, 1) == 1 {
            panic!("second in");
        }
    });
    let verdict = Explorer::exhaustive().check(&program, |_| Ok(()));
    let Verdict::Failed {
        schedule,
        failure: Failure::Violation(message),
        ..
    } = verdict
    else {
        panic!("the body's panic is the finding: {verdict:?}");
    };
    assert_eq!(message, "second in");
    assert_eq!(schedule, [0, 1]);

    let Some(stderr) = rerun_alone("a_torn_down_run_prints_nothing") else {
        return;
    };
    assert!(!stderr.contains("panicked at"), "{stderr}");
    let src = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/interleave/src");
    let mut files = vec![std::path::PathBuf::from(src)];
    while let Some(path) = files.pop() {
        if path.is_dir() {
            files.extend(std::fs::read_dir(&path).unwrap().map(|e| e.unwrap().path()));
        } else {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                !text.contains("take_hook") && !text.contains("set_hook"),
                "{} touches the process's panic hook",
                path.display()
            );
        }
    }
}

/// The child half of the test above: 2 000 executions cut off at the step
/// limit and torn down, by a search whose verdict is a pass. (Alone in the
/// suite it is the same search with nobody reading its stderr.)
#[test]
fn a_torn_down_run_prints_nothing() {
    let spinner = Program::new(2, 1, |ctx| loop {
        ctx.load(0);
    });
    let v = Explorer::exhaustive()
        .with_dpor(DporMode::None)
        .with_max_steps(12)
        .with_max_runs(2_000)
        .check(&spinner, |_| Ok(()));
    assert_eq!(v.stats().pruned, 2_000);
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

/// A checked program's threads are coroutines on the thread that explores
/// it: the process has as many host threads before an execution of the
/// widest program there is (`Program::new` takes 64), while all 64 bodies
/// are in flight, and after it. The test harness starts and stops threads
/// of its own as other tests come and go, so the count is taken in a child
/// process that runs this test alone.
#[test]
fn the_widest_checked_program_runs_on_one_host_thread() {
    if rerun_alone("the_widest_checked_program_runs_on_one_host_thread").is_some() {
        return;
    }
    static BEFORE: AtomicUsize = AtomicUsize::new(0);
    BEFORE.store(host_threads(), Ordering::Relaxed);
    let program = Program::new(64, 2, |ctx| {
        // Every body reaches its first operation before any executes, so
        // whoever is granted this one has 63 suspended peers.
        ctx.fetch_add(0, 1);
        assert_eq!(host_threads(), BEFORE.load(Ordering::Relaxed));
        ctx.fetch_add(1, 1);
    });
    let replay = Explorer::exhaustive().replay(&program, &[]);
    assert!(
        matches!(replay.end, ReplayEnd::Complete(ref mem) if mem == &[64, 64]),
        "{:?}",
        replay.end
    );
    assert_eq!(host_threads(), BEFORE.load(Ordering::Relaxed));
}
