//! `interleave` — command-line front end for the schedule explorer.
//!
//! Checks any registered lock or barrier kernel, and deterministically
//! re-executes a recorded schedule (the list of thread choices a violating
//! verdict prints) with a per-operation narration:
//!
//! ```text
//! interleave list
//! interleave check lock:ticket --threads 2 --iters 1
//! interleave check lock:tas --threads 2 --iters 3 --preemptions 2 --bypass-bound 1
//! interleave check barrier:central --threads 2 --episodes 1
//! interleave replay lock:mcs --schedule 0,0,1,1,0,0 --threads 2 --iters 1
//! interleave trace lock:qsm-block-park --threads 2 --iters 1 --out sched.json
//! interleave fuzz lock:qsm-block --threads 3 --seed 1991 --iters 500 --strategy pct --shrink
//! ```
//!
//! `check` exits 1 when a violation is found (printing the reproducing
//! schedule and the matching `replay` invocation); `replay` exits 1 when
//! the re-execution ends in a violation, so both compose with shell `&&`.
//! `fuzz` samples random schedules instead of searching: same exit
//! convention, and every failure prints the seed, strategy and a
//! ready-to-paste `replay` line (shrunk when `--shrink` is given).
//!
//! A `check` or `fuzz` still running after five seconds says so on stderr,
//! and every five seconds from then on: runs so far, what was pruned, the
//! deepest schedule, runs per second. Stdout is the same either way.

use interleave::fuzz::{self, Fuzzer, Strategy};
use interleave::harness::{barrier_program, check_barrier, check_lock, check_lock_bypass};
use interleave::harness::{check_barrier_parallel, check_lock_parallel};
use interleave::harness::{fuzz_barrier, fuzz_lock, lock_program};
use interleave::{DporMode, Explorer, OpKind, Program, Replay, ReplayEnd};
use interleave::{Stats, Verdict};
use kernels::barriers::{all_barriers, barrier_by_name};
use kernels::lockdep::InstrumentedLock;
use kernels::locks::{all_locks, lock_by_name, LockKernel};
use simcore::knob;
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage:
  interleave list
  interleave check  <lock:NAME|barrier:NAME> [options]
  interleave replay <lock:NAME|barrier:NAME> --schedule N,N,... [options]
  interleave trace  <lock:NAME|barrier:NAME> [--schedule N,N,...] [--out PATH] [options]
  interleave fuzz   <lock:NAME|barrier:NAME> [options]

trace renders a (re-)executed schedule — including a shrunk failure
schedule pasted from fuzz — as a Chrome trace-event JSON timeline
(load into Perfetto / chrome://tracing); --out writes it to a file,
otherwise it goes to stdout.

options:
  --threads N       thread count (default 2)
  --iters N         check/replay: critical sections per thread (default 1)
                    fuzz: schedules to sample (default 1000)
  --episodes N      barrier episodes per thread (default 1)
  --preemptions K   preemption bound (default: exhaustive)
  --max-steps N     per-run step limit
  --max-runs N      run budget
  --bypass-bound K  fail schedules that bypass a waiter more than K times
  --dpor MODE       partial-order reduction: none | sleep | source
                    (default: source when exhaustive, sleep when bounded)
  --workers N       explore check's schedules through the parallel fan-out
                    on N worker threads (default: the serial search); the
                    fan-out's verdict and stats are the same for every N.
                    Starvation checks (--bypass-bound) always explore
                    serially.

fuzz options:
  --seed N          campaign seed (positive; default 1991)
  --strategy S      uniform | pct | pct:<d> (default pct:3)
  --shrink          minimize the failing schedule before reporting
  --cs N            critical sections per thread in the fuzzed workload (default 1)"
    );
    std::process::exit(2);
}

/// What the positional `lock:NAME` / `barrier:NAME` argument named.
enum Target {
    Lock(String),
    Barrier(String),
}

struct Args {
    cmd: String,
    target: Option<Target>,
    threads: usize,
    iters: usize,
    /// Whether `--iters` was given explicitly (fuzz reads it as the
    /// sampling budget, whose default differs from check's).
    iters_flag: Option<usize>,
    episodes: u64,
    preemptions: Option<usize>,
    max_steps: Option<usize>,
    max_runs: Option<usize>,
    bypass_bound: Option<usize>,
    dpor: Option<DporMode>,
    workers: Option<usize>,
    schedule: Option<Vec<usize>>,
    seed: Option<u64>,
    strategy: Option<Strategy>,
    shrink: bool,
    /// Critical sections per thread in the fuzzed lock workload.
    cs: usize,
    /// Output path for `trace` (stdout when absent).
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().unwrap_or_else(|| usage());
    let mut args = Args {
        cmd,
        target: None,
        threads: 2,
        iters: 1,
        iters_flag: None,
        episodes: 1,
        preemptions: None,
        max_steps: None,
        max_runs: None,
        bypass_bound: None,
        dpor: None,
        workers: None,
        schedule: None,
        seed: None,
        strategy: None,
        shrink: false,
        cs: 1,
        out: None,
    };
    fn num<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
        let v = it.next().unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        });
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: bad value {v:?}");
            std::process::exit(2);
        })
    }
    /// A flag whose value must be a positive integer, by the same parser
    /// as the environment knobs.
    fn positive<T: std::str::FromStr + Default + PartialEq>(
        it: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> T {
        let v: String = num(it, flag);
        knob::positive(&v).unwrap_or_else(|why| {
            eprintln!("{flag} {v:?}: {why}");
            std::process::exit(2);
        })
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => args.threads = num(&mut it, "--threads"),
            "--iters" => {
                args.iters = positive(&mut it, "--iters");
                args.iters_flag = Some(args.iters);
            }
            "--episodes" => args.episodes = num(&mut it, "--episodes"),
            "--seed" => args.seed = Some(positive(&mut it, "--seed")),
            "--strategy" => {
                let spec: String = num(&mut it, "--strategy");
                match Strategy::parse(&spec) {
                    Ok(s) => args.strategy = Some(s),
                    Err(msg) => {
                        eprintln!("--strategy: {msg}");
                        std::process::exit(2);
                    }
                }
            }
            "--shrink" => args.shrink = true,
            "--cs" => args.cs = num(&mut it, "--cs"),
            "--out" => args.out = Some(num(&mut it, "--out")),
            "--preemptions" => args.preemptions = Some(num(&mut it, "--preemptions")),
            "--max-steps" => args.max_steps = Some(num(&mut it, "--max-steps")),
            "--max-runs" => args.max_runs = Some(num(&mut it, "--max-runs")),
            "--bypass-bound" => args.bypass_bound = Some(num(&mut it, "--bypass-bound")),
            "--dpor" => {
                let spec: String = num(&mut it, "--dpor");
                match DporMode::parse(&spec) {
                    Ok(m) => args.dpor = Some(m),
                    Err(msg) => {
                        eprintln!("--dpor: {msg}");
                        std::process::exit(2);
                    }
                }
            }
            "--workers" => args.workers = Some(positive(&mut it, "--workers")),
            "--schedule" => {
                let spec: String = num(&mut it, "--schedule");
                let parsed: Result<Vec<usize>, _> =
                    spec.split(',').map(|s| s.trim().parse()).collect();
                match parsed {
                    Ok(v) => args.schedule = Some(v),
                    Err(_) => {
                        eprintln!("--schedule: expected comma-separated thread ids, got {spec:?}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                let target = if let Some(name) = other.strip_prefix("lock:") {
                    Target::Lock(name.to_string())
                } else if let Some(name) = other.strip_prefix("barrier:") {
                    Target::Barrier(name.to_string())
                } else {
                    eprintln!("unrecognized argument {other:?}");
                    usage();
                };
                if args.target.is_some() {
                    eprintln!("only one target allowed");
                    usage();
                }
                args.target = Some(target);
            }
        }
    }
    args
}

fn explorer_from(args: &Args) -> Explorer {
    let mut e = match args.preemptions {
        Some(k) => Explorer::bounded(k),
        None => Explorer::exhaustive(),
    };
    if let Some(s) = args.max_steps {
        e = e.with_max_steps(s);
    }
    if let Some(r) = args.max_runs {
        e = e.with_max_runs(r);
    }
    if let Some(mode) = args.dpor {
        e = e.with_dpor(mode);
    }
    if let Some(k) = args.bypass_bound {
        e = e.with_bypass_bound(k);
    }
    e
}

/// The counts of a finished search's stats line and of a progress line.
fn counts(s: Stats) -> String {
    format!(
        "runs {} (step-limit pruned {}, sleep-set pruned {}, dpor pruned {}), max depth {}",
        s.runs, s.pruned, s.sleep_pruned, s.dpor_pruned, s.max_depth
    )
}

fn render_stats(s: Stats) {
    let how = if s.complete {
        "search complete"
    } else {
        "run budget exhausted"
    };
    println!("{}, {how}", counts(s));
}

/// Runs `command` with a ticker thread beside it that reports on stderr,
/// every five seconds for as long as the command is still going, what
/// [`Stats::live`] says its search has done so far and the rate since the
/// last report.
fn with_progress<T>(command: impl FnOnce() -> T) -> T {
    const EVERY: Duration = Duration::from_secs(5);
    let (finished, still_going) = mpsc::channel::<()>();
    let ticker = std::thread::spawn(move || {
        let (mut last_runs, mut last_at) = (0, Instant::now());
        while still_going.recv_timeout(EVERY) == Err(RecvTimeoutError::Timeout) {
            let (s, now) = (Stats::live(), Instant::now());
            let rate = (s.runs - last_runs) as f64 / (now - last_at).as_secs_f64();
            eprintln!("... {}, {rate:.0} runs/s", counts(s));
            (last_runs, last_at) = (s.runs, now);
        }
    });
    let exit = command();
    drop(finished);
    ticker.join().expect("the progress ticker does not panic");
    exit
}

/// Builds the program a target names, mirroring exactly what `check` runs
/// so recorded schedules replay against the same operation sequence.
fn build_program(args: &Args) -> Program {
    match args.target.as_ref().unwrap_or_else(|| usage()) {
        Target::Lock(name) => {
            let mut lock: Arc<dyn LockKernel + Send + Sync> = lock_by_name(name)
                .unwrap_or_else(|| {
                    eprintln!("unknown lock {name:?}; see `interleave list`");
                    std::process::exit(2);
                })
                .into();
            // Mirror `check --bypass-bound`: the waiter accounting only
            // sees locks wrapped in the event-emitting instrumentation.
            if args.bypass_bound.is_some() {
                lock = Arc::new(InstrumentedLock::new(lock, 0));
            }
            lock_program(lock, args.threads, args.iters)
        }
        Target::Barrier(name) => {
            let barrier = barrier_by_name(name).unwrap_or_else(|| {
                eprintln!("unknown barrier {name:?}; see `interleave list`");
                std::process::exit(2);
            });
            barrier_program(barrier.into(), args.threads, args.episodes)
        }
    }
}

fn run_check(args: &Args) -> ExitCode {
    let explorer = explorer_from(args);
    // An explicit worker count — even 1 — selects the fan-out-based
    // parallel algorithm, whose stats are byte-identical for every
    // worker count (but differ from the plain serial DFS, which only
    // runs when no count was requested at all).
    let workers = args.workers;
    let (verdict, target_spec) = match args.target.as_ref().unwrap_or_else(|| usage()) {
        Target::Lock(name) => {
            let lock: Arc<_> = lock_by_name(name)
                .unwrap_or_else(|| {
                    eprintln!("unknown lock {name:?}; see `interleave list`");
                    std::process::exit(2);
                })
                .into();
            let v = match (args.bypass_bound, workers) {
                // Bypass accounting forces reduction off and stays
                // serial: overtaking counts are not trace-invariant.
                (Some(bound), _) => {
                    check_lock_bypass(lock, args.threads, args.iters, bound, explorer)
                }
                (None, None) => check_lock(lock, args.threads, args.iters, explorer),
                (None, Some(w)) => {
                    check_lock_parallel(lock, args.threads, args.iters, explorer, w)
                }
            };
            (v, format!("lock:{name}"))
        }
        Target::Barrier(name) => {
            let barrier: Arc<_> = barrier_by_name(name)
                .unwrap_or_else(|| {
                    eprintln!("unknown barrier {name:?}; see `interleave list`");
                    std::process::exit(2);
                })
                .into();
            let v = match workers {
                None => check_barrier(barrier, args.threads, args.episodes, explorer),
                Some(w) => {
                    check_barrier_parallel(barrier, args.threads, args.episodes, explorer, w)
                }
            };
            (v, format!("barrier:{name}"))
        }
    };
    render_stats(verdict.stats());
    match &verdict {
        Verdict::Passed(_) => {
            println!("PASS: no violation within the explored bounds");
            ExitCode::SUCCESS
        }
        Verdict::Deadlock { blocked, .. } => {
            println!("FAIL: deadlock; blocked (thread, word): {blocked:?}");
            print_repro(args, &target_spec, &verdict);
            ExitCode::FAILURE
        }
        Verdict::LostWakeup { parked, .. } => {
            println!("FAIL: lost wakeup; parked (thread, word): {parked:?}");
            print_repro(args, &target_spec, &verdict);
            ExitCode::FAILURE
        }
        Verdict::Violation { message, .. } => {
            println!("FAIL: {message}");
            print_repro(args, &target_spec, &verdict);
            ExitCode::FAILURE
        }
        Verdict::Race { report, .. } => {
            println!("FAIL: {report}");
            print_repro(args, &target_spec, &verdict);
            ExitCode::FAILURE
        }
        Verdict::Starvation { report, .. } => {
            println!("FAIL: {report}");
            print_repro(args, &target_spec, &verdict);
            ExitCode::FAILURE
        }
    }
}

fn print_repro(args: &Args, target_spec: &str, verdict: &Verdict) {
    let schedule = verdict.schedule().unwrap_or(&[]);
    let sched: Vec<String> = schedule.iter().map(|p| p.to_string()).collect();
    println!("schedule: {}", sched.join(","));
    let mut extent = match args.target {
        Some(Target::Barrier(_)) => format!("--episodes {}", args.episodes),
        _ => format!("--iters {}", args.iters),
    };
    if let Some(k) = args.bypass_bound {
        extent.push_str(&format!(" --bypass-bound {k}"));
    }
    println!(
        "replay with: interleave replay {target_spec} --threads {} {extent} --schedule {}",
        args.threads,
        sched.join(",")
    );
}

fn run_replay(args: &Args) -> ExitCode {
    let schedule = args.schedule.as_deref().unwrap_or_else(|| {
        eprintln!("replay needs --schedule");
        usage();
    });
    let program = build_program(args);
    let replay = explorer_from(args).replay(&program, schedule);
    print!("{}", replay.render());
    match replay.end {
        interleave::ReplayEnd::Complete(_) | interleave::ReplayEnd::StepLimit => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

/// Converts an executed schedule to Chrome trace-event JSON: one track per
/// thread, timestamps = global step indices, spin probes coalesced into
/// `spin` spans, park/resume pairs rendered as `parked` spans with flow
/// arrows from the wake that ended them.
fn replay_to_chrome(replay: &Replay, process_name: &str, threads: usize) -> String {
    let ops = &replay.ops;
    let last_step = ops.last().map_or(0, |op| op.step as u64);

    // Classify futex waits. A wait op parks when the thread's next op is
    // another wait on the same word with an intervening wake of that word
    // by someone else (the checker re-executes the blocked wait as the
    // waiter's resume step); a final wait in a lost-wakeup or deadlock end
    // parks forever. Everything else returned immediately.
    let wakes: Vec<usize> = (0..ops.len())
        .filter(|&i| ops[i].kind == OpKind::FutexWake)
        .collect();
    let mut wake_used = vec![false; wakes.len()];
    // For op i: does a park interval start here, and which wake (index
    // into `wakes`) resumes op i?
    let mut parks = vec![false; ops.len()];
    let mut resumed_by: Vec<Option<usize>> = vec![None; ops.len()];
    // wake op index -> pids it resumes (for flow arrows).
    let mut wake_targets: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for pid in 0..threads {
        let mine: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].pid == pid).collect();
        for (k, &a) in mine.iter().enumerate() {
            if ops[a].kind != OpKind::FutexWait {
                continue;
            }
            match mine.get(k + 1) {
                Some(&b) if ops[b].kind == OpKind::FutexWait && ops[b].addr == ops[a].addr => {
                    let wake = (0..wakes.len()).find(|&w| {
                        !wake_used[w]
                            && ops[wakes[w]].addr == ops[a].addr
                            && ops[wakes[w]].step > ops[a].step
                            && ops[wakes[w]].step < ops[b].step
                    });
                    if let Some(w) = wake {
                        wake_used[w] = true;
                        parks[a] = true;
                        resumed_by[b] = Some(w);
                        wake_targets.entry(wakes[w]).or_default().push(pid);
                    }
                }
                None if matches!(replay.end, ReplayEnd::LostWakeup(_) | ReplayEnd::Deadlock(_)) => {
                    // Parked at the end of the run and never woken.
                    parks[a] = true;
                }
                _ => {}
            }
        }
    }

    let mut b = trace::chrome::ChromeTraceBuilder::new(process_name);
    for t in 0..threads {
        b.thread(t, &format!("thread {t}"));
    }
    // Open spin span per thread: (addr, begun).
    let mut spinning: Vec<Option<u64>> = vec![None; threads];
    // Open park span per thread (addr).
    let mut parked: Vec<Option<u64>> = vec![None; threads];
    for (i, op) in ops.iter().enumerate() {
        let (pid, ts, addr) = (op.pid, op.step as u64, op.addr as u64);
        if let Some(spin_addr) = spinning[pid] {
            if op.kind != OpKind::SpinRead || spin_addr != addr {
                b.end(pid, ts, &format!("spin @{spin_addr}"));
                spinning[pid] = None;
            }
        }
        match op.kind {
            OpKind::SpinRead => {
                if spinning[pid].is_none() {
                    b.begin(pid, ts, &format!("spin @{addr}"));
                    spinning[pid] = Some(addr);
                }
            }
            OpKind::FutexWait => {
                if let Some(w) = resumed_by[i] {
                    let wake_op = wakes[w];
                    b.end(pid, ts, &format!("parked @{addr}"));
                    parked[pid] = None;
                    b.flow_end(pid, ts, &format!("w{}:{pid}", ops[wake_op].step), "wake");
                }
                if parks[i] {
                    b.begin(pid, ts, &format!("parked @{addr}"));
                    parked[pid] = Some(addr);
                } else if resumed_by[i].is_none() {
                    b.instant(pid, ts, &format!("futex-wait @{addr} (no park)"));
                }
            }
            OpKind::FutexWake => {
                b.instant(pid, ts, &format!("wake @{addr}"));
                for &wakee in wake_targets.get(&i).into_iter().flatten() {
                    b.flow_start(pid, ts, &format!("w{}:{wakee}", op.step), "wake");
                }
            }
            kind => b.instant(pid, ts, &format!("{kind} [{}] = {}", op.addr, op.value)),
        }
    }
    // Close whatever is still open — spinners at a deadlock, waiters a
    // lost wakeup stranded — at the last step so every span balances.
    for pid in 0..threads {
        if let Some(addr) = spinning[pid] {
            b.end(pid, last_step, &format!("spin @{addr}"));
        }
        if let Some(addr) = parked[pid] {
            b.end(pid, last_step, &format!("parked @{addr}"));
        }
    }
    b.finish()
}

fn run_trace(args: &Args) -> ExitCode {
    let program = build_program(args);
    let schedule = args.schedule.clone().unwrap_or_default();
    let replay = explorer_from(args).replay(&program, &schedule);
    let target_name = match args.target.as_ref().unwrap_or_else(|| usage()) {
        Target::Lock(name) => format!("interleave lock:{name}"),
        Target::Barrier(name) => format!("interleave barrier:{name}"),
    };
    let json = replay_to_chrome(&replay, &target_name, args.threads);
    let stats = match trace::chrome::validate(&json) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("internal error: exported trace failed validation: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "trace OK: wrote {path} ({} ops, {} events, {} tracks, {} spans; end: {:?})",
                replay.ops.len(),
                stats.events,
                stats.tracks,
                stats.spans,
                replay.end
            );
        }
        None => print!("{json}"),
    }
    match replay.end {
        ReplayEnd::Complete(_) | ReplayEnd::StepLimit => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

fn run_fuzz(args: &Args) -> ExitCode {
    let seed = args.seed.unwrap_or(fuzz::DEFAULT_FUZZ_SEED);
    let iters = args.iters_flag.unwrap_or(fuzz::DEFAULT_FUZZ_ITERS);
    let strategy = args.strategy.unwrap_or_default();
    let mut fuzzer = Fuzzer::new(seed, iters, strategy);
    if !args.shrink {
        fuzzer = fuzzer.without_shrink();
    }
    if let Some(k) = args.bypass_bound {
        fuzzer = fuzzer.with_bypass_bound(k);
    }
    if let Some(s) = args.max_steps {
        fuzzer = fuzzer.with_max_steps(s);
    }

    let (report, target_spec, extent) = match args.target.as_ref().unwrap_or_else(|| usage()) {
        Target::Lock(name) => {
            let lock: Arc<_> = lock_by_name(name)
                .unwrap_or_else(|| {
                    eprintln!("unknown lock {name:?}; see `interleave list`");
                    std::process::exit(2);
                })
                .into();
            (
                fuzz_lock(lock, args.threads, args.cs, &fuzzer),
                format!("lock:{name}"),
                format!("--iters {}", args.cs),
            )
        }
        Target::Barrier(name) => {
            let barrier: Arc<_> = barrier_by_name(name)
                .unwrap_or_else(|| {
                    eprintln!("unknown barrier {name:?}; see `interleave list`");
                    std::process::exit(2);
                })
                .into();
            (
                fuzz_barrier(barrier, args.threads, args.episodes, &fuzzer),
                format!("barrier:{name}"),
                format!("--episodes {}", args.episodes),
            )
        }
    };

    println!(
        "fuzz {target_spec}: seed {seed}, strategy {strategy}, budget {iters} schedules"
    );
    render_stats(report.verdict.stats());
    let failure = match &report.verdict {
        Verdict::Passed(s) => {
            println!("PASS: no violation in {} sampled schedules", s.runs);
            return ExitCode::SUCCESS;
        }
        Verdict::Deadlock { blocked, .. } => {
            format!("deadlock; blocked (thread, word): {blocked:?}")
        }
        Verdict::LostWakeup { parked, .. } => {
            format!("lost wakeup; parked (thread, word): {parked:?}")
        }
        Verdict::Violation { message, .. } => message.clone(),
        Verdict::Race { report, .. } => format!("{report}"),
        Verdict::Starvation { report, .. } => format!("{report}"),
    };
    let iter = report.failing_iter.unwrap_or(0);
    println!("FAIL at iteration {iter}: {failure}");
    println!("repro: --seed {seed} --strategy {strategy}");
    let mut extent = extent;
    if let Some(k) = args.bypass_bound {
        extent.push_str(&format!(" --bypass-bound {k}"));
    }
    let render = |schedule: &[usize]| {
        schedule
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let schedule = report.verdict.schedule().unwrap_or(&[]);
    println!("schedule: {}", render(schedule));
    if let Some(shrunk) = &report.shrunk {
        println!(
            "shrunk schedule ({} replays): {}",
            shrunk.replays,
            render(&shrunk.schedule)
        );
        println!(
            "replay with: interleave replay {target_spec} --threads {} {extent} --schedule {}",
            args.threads,
            render(&shrunk.schedule)
        );
    } else {
        println!(
            "replay with: interleave replay {target_spec} --threads {} {extent} --schedule {}",
            args.threads,
            render(schedule)
        );
    }
    ExitCode::FAILURE
}

fn run_list() -> ExitCode {
    println!("locks:");
    for lock in all_locks() {
        println!("  lock:{}", lock.name());
    }
    println!("barriers:");
    for barrier in all_barriers() {
        println!("  barrier:{}", barrier.name());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.cmd.as_str() {
        "list" => run_list(),
        "check" => with_progress(|| run_check(&args)),
        "replay" => run_replay(&args),
        "trace" => run_trace(&args),
        "fuzz" => with_progress(|| run_fuzz(&args)),
        _ => usage(),
    }
}
