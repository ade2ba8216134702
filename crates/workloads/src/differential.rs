//! Cross-backend differential testing: one lock kernel, four substrates.
//!
//! Every kernel in the suite is written once against [`kernels::SyncCtx`]
//! and then executed on substrates with very different semantics: the
//! interleave checker (schedule-exhaustive or fuzzed, sequentially
//! consistent), the cycle-level simulator (dedicated and oversubscribed
//! machines), and real std threads over `SeqCst` atomics with the
//! `parking` futex ([`crate::realhw::RealCtx`]). A bug in a kernel shows
//! up on all of them; a bug in a *substrate* — a miscounted futex wake in
//! the simulator, a checker that parks a thread it should not — shows up
//! as the backends disagreeing about the same workload. This module runs
//! the canonical non-atomic counter workload (the same one
//! [`kernels::locks::counter_trial`] and the interleave harness use) on
//! all four and compares:
//!
//! * the **final counter** against `nthreads * iters` — the mutual
//!   exclusion witness every backend shares;
//! * **futex parks vs. wakes** where the substrate counts them (both
//!   simulator machines, real threads): a completed run must balance,
//!   because every parked waiter had to be woken for the run to finish;
//! * **verdicts**: the checker-fuzz backend additionally race-checks the
//!   counter accesses, so a broken lock fails there deterministically
//!   even when the other backends get lucky.
//!
//! The checker backend samples schedules with the fuzzer (PCT by default)
//! rather than searching exhaustively, which keeps the harness cheap
//! enough to run over every lock in CI while still being a real
//! adversary; see the `interleave::fuzz` module docs for the guarantee.

use crate::oversub::oversub_machine;
use crate::realhw;
use interleave::harness::{fuzz_lock, lock_program};
use interleave::{Fuzzer, ReplayEnd, Strategy};
use kernels::locks::{counter_trial, lock_by_name, LockKernel};
use kernels::{ProcCtx, Word};
use memsim::{Machine, MachineParams};
use std::sync::Arc;

/// Shape of one differential trial.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Threads / simulated processors contending for the lock.
    pub nthreads: usize,
    /// Critical sections per thread.
    pub iters: usize,
    /// Cores for the oversubscribed simulator backend (`nthreads` should
    /// exceed this for the scheduler to matter).
    pub cores: usize,
    /// Seed for the checker-fuzz backend.
    pub fuzz_seed: u64,
    /// Schedule budget for the checker-fuzz backend.
    pub fuzz_iters: usize,
    /// Simulated cycles held inside the critical section on the simulator
    /// backends (widens the violation window for broken locks).
    pub hold: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            nthreads: 2,
            iters: 2,
            cores: 1,
            fuzz_seed: interleave::fuzz::DEFAULT_FUZZ_SEED,
            fuzz_iters: 60,
            hold: 10,
        }
    }
}

/// What one backend observed for the shared workload.
#[derive(Debug, Clone)]
pub struct BackendOutcome {
    /// Backend identifier (`checker-fuzz`, `memsim-bus`, `memsim-oversub`,
    /// `real-threads`).
    pub backend: &'static str,
    /// Final counter value, when the backend completed the run.
    pub counter: Option<Word>,
    /// Futex parks, on backends that count them.
    pub futex_parks: Option<u64>,
    /// Waiters dequeued by futex wakes, on backends that count them.
    pub futex_woken: Option<u64>,
    /// Why the backend failed outright (verdict, simulator error, panic).
    pub failure: Option<String>,
}

/// The four backends' outcomes for one lock, plus the comparison logic.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The lock under test.
    pub lock: String,
    /// `nthreads * iters` — the counter value every backend must reach.
    pub expected: Word,
    /// One entry per backend, in a fixed order.
    pub outcomes: Vec<BackendOutcome>,
}

impl DiffReport {
    /// Every way the backends deviate from the expected outcome or from
    /// each other, one human-readable line each. Empty means agreement.
    pub fn disagreements(&self) -> Vec<String> {
        let mut out = Vec::new();
        for o in &self.outcomes {
            if let Some(f) = &o.failure {
                out.push(format!("{}: {f}", o.backend));
                continue;
            }
            if let Some(c) = o.counter {
                if c != self.expected {
                    out.push(format!(
                        "{}: counter {c} != expected {}",
                        o.backend, self.expected
                    ));
                }
            }
            if let (Some(parks), Some(woken)) = (o.futex_parks, o.futex_woken) {
                if parks != woken {
                    out.push(format!(
                        "{}: {parks} futex parks but {woken} futex wakes",
                        o.backend
                    ));
                }
            }
        }
        out
    }

    /// Whether every backend completed, reached the expected counter, and
    /// balanced its futex parks against wakes.
    pub fn all_agree(&self) -> bool {
        self.disagreements().is_empty()
    }

    /// One-line-per-backend summary table for logs and CI artifacts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "differential {}: expected counter {}\n",
            self.lock, self.expected
        );
        for o in &self.outcomes {
            let counter = o.counter.map_or_else(|| "-".to_string(), |c| c.to_string());
            let parks = o
                .futex_parks
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            let woken = o
                .futex_woken
                .map_or_else(|| "-".to_string(), |w| w.to_string());
            let status = o.failure.as_deref().unwrap_or("ok");
            let _ = writeln!(
                s,
                "  {:<14} counter {:<6} parks {:<4} wakes {:<4} {status}",
                o.backend, counter, parks, woken
            );
        }
        s
    }
}

/// Runs the differential trial for a registry lock, resolved by name
/// through [`kernels::locks::lock_by_name`] (spin-lock study and blocking
/// variants alike).
pub fn differential_lock(name: &str, cfg: &DiffConfig) -> Result<DiffReport, String> {
    let lock: Arc<dyn LockKernel + Send + Sync> =
        Arc::from(lock_by_name(name).ok_or_else(|| format!("unknown lock '{name}'"))?);
    Ok(differential_lock_kernel(lock, cfg))
}

/// Runs the differential trial for an arbitrary kernel — the entry point
/// tests use to prove the harness catches a deliberately broken lock.
pub fn differential_lock_kernel(
    lock: Arc<dyn LockKernel + Send + Sync>,
    cfg: &DiffConfig,
) -> DiffReport {
    let expected = (cfg.nthreads * cfg.iters) as Word;
    let outcomes = vec![
        checker_fuzz_backend(&lock, cfg),
        memsim_backend("memsim-bus", dedicated_machine(cfg), &lock, cfg),
        memsim_backend(
            "memsim-oversub",
            oversub_machine(cfg.nthreads, cfg.cores),
            &lock,
            cfg,
        ),
        real_threads_backend(&lock, cfg),
    ];
    DiffReport {
        lock: lock.name().to_string(),
        expected,
        outcomes,
    }
}

/// The paper's dedicated bus machine, with the cycle ceiling raised so the
/// blocking variants' occasional parks fit comfortably.
fn dedicated_machine(cfg: &DiffConfig) -> Machine {
    let mut params = MachineParams::bus_1991(cfg.nthreads);
    params.max_cycles = 50_000_000;
    Machine::new(params)
}

/// Backend 1: the interleave checker driven by the schedule fuzzer. On a
/// pass, the counter is witnessed by replaying the default schedule (the
/// checker's memory is not otherwise exposed through the fuzz report).
fn checker_fuzz_backend(
    lock: &Arc<dyn LockKernel + Send + Sync>,
    cfg: &DiffConfig,
) -> BackendOutcome {
    let fuzzer = Fuzzer::new(cfg.fuzz_seed, cfg.fuzz_iters, Strategy::default());
    let report = fuzz_lock(Arc::clone(lock), cfg.nthreads, cfg.iters, &fuzzer);
    let mut outcome = BackendOutcome {
        backend: "checker-fuzz",
        counter: None,
        futex_parks: None,
        futex_woken: None,
        failure: None,
    };
    match report.verdict.failure() {
        None => {
            let program = lock_program(Arc::clone(lock), cfg.nthreads, cfg.iters);
            let counter = program.initial_memory().len() - 1;
            match fuzzer.explorer().replay(&program, &[]).end {
                ReplayEnd::Complete(mem) => outcome.counter = Some(mem[counter]),
                other => {
                    outcome.failure =
                        Some(format!("counter-witness replay did not complete: {other}"))
                }
            }
        }
        Some(failure) => {
            let mut failure = failure.to_string();
            if let Some(shrunk) = &report.shrunk {
                use std::fmt::Write as _;
                let _ = write!(
                    failure,
                    " (seed {}, shrunk schedule {:?})",
                    cfg.fuzz_seed, shrunk.schedule
                );
            }
            outcome.failure = Some(failure);
        }
    }
    outcome
}

/// Backends 2 and 3: the cycle-level simulator, dedicated or scheduled.
fn memsim_backend(
    name: &'static str,
    machine: Machine,
    lock: &Arc<dyn LockKernel + Send + Sync>,
    cfg: &DiffConfig,
) -> BackendOutcome {
    match counter_trial(&machine, &**lock, cfg.nthreads, cfg.iters, cfg.hold) {
        Ok((count, report)) => {
            // A completed run must have woken every parked waiter; an
            // imbalance here is a substrate bug, not a lock bug.
            assert_eq!(
                report.metrics.futex_parks(),
                report.metrics.futex_woken(),
                "{name}: futex park/wake imbalance on a completed run"
            );
            BackendOutcome {
                backend: name,
                counter: Some(count),
                futex_parks: Some(report.metrics.futex_parks()),
                futex_woken: Some(report.metrics.futex_woken()),
                failure: None,
            }
        }
        Err(e) => BackendOutcome {
            backend: name,
            counter: None,
            futex_parks: None,
            futex_woken: None,
            failure: Some(format!("simulation error: {e}")),
        },
    }
}

/// Backend 4: the kernel on real std threads ([`realhw::run`]). Same
/// layout as the simulator backends ([`kernels::locks::fixture`]), same
/// deliberately non-atomic counter increment in the critical section, with
/// a yield inside it to widen the violation window.
fn real_threads_backend(
    lock: &Arc<dyn LockKernel + Send + Sync>,
    cfg: &DiffConfig,
) -> BackendOutcome {
    let run = realhw::run(&**lock, cfg.nthreads, cfg.iters as u64, |ctx, counter| {
        let v = ctx.data_load(counter);
        std::thread::yield_now();
        ctx.data_store(counter, v + 1);
    });
    let done = run.failures.is_empty();
    BackendOutcome {
        backend: "real-threads",
        counter: done.then_some(run.counter),
        futex_parks: done.then_some(run.parks),
        futex_woken: done.then_some(run.wakes),
        failure: (!done).then(|| run.failures.join("; ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::Region;

    #[test]
    fn differential_agrees_on_qsm() {
        let report = differential_lock("qsm", &DiffConfig::default()).unwrap();
        assert!(
            report.all_agree(),
            "qsm backends disagreed:\n{}",
            report.render()
        );
        for o in &report.outcomes {
            assert_eq!(o.counter, Some(report.expected), "{} counter", o.backend);
        }
    }

    #[test]
    fn differential_agrees_on_blocking_qsm() {
        let report = differential_lock("qsm-block-park", &DiffConfig::default()).unwrap();
        assert!(
            report.all_agree(),
            "qsm-block-park backends disagreed:\n{}",
            report.render()
        );
        // The always-park variant must actually exercise the futex on the
        // oversubscribed machine, and the parks must balance the wakes.
        let oversub = report
            .outcomes
            .iter()
            .find(|o| o.backend == "memsim-oversub")
            .unwrap();
        assert_eq!(oversub.futex_parks, oversub.futex_woken);
    }

    #[test]
    fn differential_flags_a_broken_lock() {
        // "Acquire" is a plain store: no atomicity, no waiting. The
        // checker-fuzz backend must fail it deterministically (race
        // detection), whatever the timing-dependent backends observe.
        #[derive(Debug)]
        struct BrokenLock;
        impl LockKernel for BrokenLock {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn lines_needed(&self, _p: usize) -> usize {
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
        let cfg = DiffConfig {
            iters: 1,
            fuzz_seed: 17,
            fuzz_iters: 200,
            ..DiffConfig::default()
        };
        let report = differential_lock_kernel(Arc::new(BrokenLock), &cfg);
        assert!(
            !report.all_agree(),
            "broken lock slipped through:\n{}",
            report.render()
        );
        let checker = report
            .outcomes
            .iter()
            .find(|o| o.backend == "checker-fuzz")
            .unwrap();
        assert!(
            checker
                .failure
                .as_deref()
                .unwrap_or("")
                .contains("data race"),
            "checker backend should flag the race, got {:?}",
            checker.failure
        );
    }

    #[test]
    fn unknown_lock_name_is_an_error() {
        let err = differential_lock("nonexistent", &DiffConfig::default()).unwrap_err();
        assert!(err.contains("unknown lock"), "got: {err}");
    }

    #[test]
    fn report_render_lists_every_backend() {
        let report = differential_lock("ticket", &DiffConfig::default()).unwrap();
        let rendered = report.render();
        for backend in [
            "checker-fuzz",
            "memsim-bus",
            "memsim-oversub",
            "real-threads",
        ] {
            assert!(rendered.contains(backend), "missing {backend}:\n{rendered}");
        }
    }
}
