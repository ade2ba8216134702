//! The machine: one run's set-up around the engine.
//!
//! [`Machine::run`] builds the engine core, one mailbox and one coroutine
//! per simulated processor, and hands them to the engine loop
//! ([`crate::engine`]) on the calling thread. A run spawns no thread and
//! takes no lock; coroutine stacks come from the calling thread's cache
//! ([`simcore::coro`]), so a sweep maps them once.

use crate::engine::{EngineCore, Mailbox};
use crate::metrics::Metrics;
use crate::params::MachineParams;
use crate::proc::Proc;
use crate::replay::Recording;
use crate::{SimError, Word};
use simcore::coro::Coroutine;
use std::panic::resume_unwind;
use std::rc::Rc;
use std::sync::Arc;

/// Result of a completed simulation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Traffic and timing counters.
    pub metrics: Metrics,
    /// Final contents of the shared memory, for invariant checks.
    pub memory: Vec<Word>,
}

/// A configured simulated multiprocessor.
///
/// `Machine` is cheap to construct and immutable; every [`Machine::run`]
/// creates fresh caches, directory, interconnect and memory, so runs never
/// contaminate each other (only coroutine stacks are recycled).
#[derive(Debug, Clone)]
pub struct Machine {
    params: MachineParams,
    tracer: Option<Arc<trace::Tracer>>,
}

impl Machine {
    /// Creates a machine with the given parameters (validated on first run).
    pub fn new(params: MachineParams) -> Self {
        Machine {
            params,
            tracer: None,
        }
    }

    /// Attaches an event tracer: every run records sync events (spin waits,
    /// futex parks/wakes, context switches, and whatever kernels report via
    /// [`Proc::trace_event`]) into the tracer's per-processor rings.
    ///
    /// Recording is purely additive — the simulated schedule and every
    /// metric are bit-identical with and without a tracer attached.
    ///
    /// The tracer must cover at least as many processors as the largest
    /// `nprocs` passed to [`Machine::run`].
    #[must_use]
    pub fn with_tracer(mut self, tracer: Arc<trace::Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<trace::Tracer>> {
        self.tracer.as_ref()
    }

    /// The machine's parameters.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Runs `body` once per processor over a zero-initialized shared memory
    /// of `shared_words` words.
    ///
    /// `body` receives the processor handle; it is invoked once per
    /// processor, each invocation a coroutine on the calling thread that
    /// advances from one [`Proc`] operation to the next in the order the
    /// engine's deterministic serialization of memory operations dictates
    /// (the [`Proc`] docs state what a body may not do).
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if all unfinished processors are parked on
    /// watchpoints; [`SimError::TimeLimit`] if simulated time exceeds
    /// [`MachineParams::max_cycles`].
    ///
    /// # Panics
    ///
    /// Re-raises any panic from `body` (so `assert!` works inside kernels),
    /// and panics on invalid configuration.
    pub fn run<F>(&self, nprocs: usize, shared_words: usize, body: F) -> Result<RunReport, SimError>
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        self.run_with_init(nprocs, vec![0; shared_words], body)
    }

    /// Like [`Machine::run`] but with explicit initial memory contents.
    pub fn run_with_init<F>(
        &self,
        nprocs: usize,
        init_memory: Vec<Word>,
        body: F,
    ) -> Result<RunReport, SimError>
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        let core = self.run_engine(nprocs, init_memory, None, body)?;
        let (metrics, memory) = core.into_memory();
        Ok(RunReport { metrics, memory })
    }

    /// Runs the workload once, recording per-processor operation logs and
    /// state snapshots every `fragment` simulated cycles, so the run can be
    /// re-executed fragment-by-fragment (see [`crate::replay`]).
    ///
    /// The recording pass is the plain run, traced if the machine has a
    /// tracer; replays from its snapshots are untraced.
    ///
    /// # Errors
    ///
    /// The same errors as [`Machine::run`]; a failed run yields no
    /// recording.
    pub fn run_recorded<F>(
        &self,
        nprocs: usize,
        init_memory: Vec<Word>,
        fragment: u64,
        body: F,
    ) -> Result<Recording, SimError>
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        let mut core = self.run_engine(nprocs, init_memory, Some(fragment), body)?;
        let recorder = core.take_recorder().expect("recording run has a recorder");
        let (metrics, memory) = core.into_memory();
        Ok(Recording::new(
            self.params.clone(),
            nprocs,
            fragment,
            recorder,
            RunReport { metrics, memory },
        ))
    }

    /// The shared live-execution path: runs the workload's processors to
    /// completion and returns the finished engine core. `fragment` turns
    /// on recording mode (snapshots every `fragment` cycles, per-processor
    /// op logs).
    fn run_engine<F>(
        &self,
        nprocs: usize,
        init_memory: Vec<Word>,
        fragment: Option<u64>,
        body: F,
    ) -> Result<EngineCore, SimError>
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        // Validates params and processor count before any stack is taken.
        let mut core = EngineCore::new(
            self.params.clone(),
            init_memory,
            nprocs,
            self.tracer.clone(),
            fragment,
        );
        let mail: Vec<Rc<Mailbox>> = (0..nprocs).map(|_| Rc::default()).collect();
        let mut procs: Vec<Coroutine<'_>> = mail
            .iter()
            .enumerate()
            .map(|(pid, mail)| {
                let mut proc = Proc {
                    pid,
                    nprocs,
                    now: 0,
                    max_cycles: self.params.max_cycles,
                    mail: Rc::clone(mail),
                    tracer: self.tracer.clone(),
                };
                let body = &body;
                Coroutine::new(move || {
                    body(&mut proc);
                    proc.done();
                })
            })
            .collect();

        if let Some(payload) = core.run_live(&mut procs, &mail) {
            resume_unwind(payload);
        }
        if let Some(err) = core.error.take() {
            return Err(err);
        }
        // A completed run must have woken every processor it ever parked:
        // `futex_parks` counts park-side entries, `futex_woken` counts the
        // waker-side dequeues, and an imbalance means a waiter finished the
        // run while still in the futex queue (engine bookkeeping bug).
        assert_eq!(
            core.metrics.futex_parks(),
            core.metrics.futex_woken(),
            "futex park/wake balance violated on a completed run"
        );
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Topology;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use syncctx::{ProcCtx, SyncCtx};

    fn bus(n: usize) -> Machine {
        Machine::new(MachineParams::bus_1991(n))
    }

    /// Exercises futex park/wake and watchpoint spins: pids 1.. park until
    /// pid 0 wakes them, then spin until pid 0's final store.
    fn park_then_spin(p: &mut Proc) {
        if p.pid() == 0 {
            p.delay(200);
            p.store(1, 1);
            p.wake(1, usize::MAX);
            p.store(0, 1);
        } else {
            while p.wait(1, 0, None).seen == 0 {}
            p.spin_until(0, 1);
        }
    }

    #[test]
    fn tracer_records_without_changing_the_simulation() {
        use trace::EventClass as C;
        let base = bus(4).run(4, 2, park_then_spin).unwrap();
        let tracer = trace::Tracer::shared(4);
        let traced = bus(4)
            .with_tracer(Arc::clone(&tracer))
            .run(4, 2, park_then_spin)
            .unwrap();
        // Purely additive: identical metrics, memory, and cycle counts.
        assert_eq!(base.metrics, traced.metrics);
        assert_eq!(base.memory, traced.memory);

        // Every pid 1..4 parked exactly once (pid 0 delays past their
        // first futex wait probe), and every park has a wake and a resume.
        assert_eq!(tracer.class_total(C::FutexPark), 3);
        assert_eq!(
            tracer.class_total(C::FutexPark),
            traced.metrics.futex_parks()
        );
        assert_eq!(tracer.class_total(C::FutexWake), 3);
        assert_eq!(tracer.class_total(C::FutexResume), 3);
        assert_eq!(
            tracer.class_total(C::SpinBegin),
            tracer.class_total(C::SpinEnd)
        );

        // Per-processor streams are time-ordered (the Chrome exporter and
        // the validator both rely on this).
        for pid in 0..4 {
            let evs = tracer.events(pid);
            assert!(evs.windows(2).all(|w| w[0].t <= w[1].t), "p{pid} unordered");
        }
    }

    #[test]
    fn single_proc_load_store() {
        let report = bus(1)
            .run(1, 4, |p| {
                p.store(0, 7);
                assert_eq!(p.load(0), 7);
                p.store(3, 9);
                assert_eq!(p.load(3), 9);
            })
            .unwrap();
        assert_eq!(report.memory, vec![7, 0, 0, 9]);
        assert!(report.metrics.total_cycles > 0);
    }

    #[test]
    fn fetch_add_is_atomic_across_procs() {
        let report = bus(8)
            .run(8, 1, |p| {
                for _ in 0..50 {
                    p.fetch_add(0, 1);
                }
            })
            .unwrap();
        assert_eq!(report.memory[0], 400);
    }

    #[test]
    fn swap_returns_old_value() {
        let report = bus(1)
            .run(1, 1, |p| {
                assert_eq!(p.swap(0, 5), 0);
                assert_eq!(p.swap(0, 9), 5);
            })
            .unwrap();
        assert_eq!(report.memory[0], 9);
    }

    #[test]
    fn cas_success_and_failure() {
        bus(1)
            .run(1, 1, |p| {
                assert_eq!(p.cas(0, 0, 3), Ok(0));
                assert_eq!(p.cas(0, 0, 7), Err(3));
                assert_eq!(p.load(0), 3);
            })
            .unwrap();
    }

    #[test]
    fn test_and_set_reports_prior_state() {
        bus(1)
            .run(1, 1, |p| {
                assert!(!p.test_and_set(0));
                assert!(p.test_and_set(0));
            })
            .unwrap();
    }

    #[test]
    fn spin_until_crosses_processors() {
        // p0 waits for p1's signal; p1 delays first so the wait really parks.
        let report = bus(2)
            .run(2, 2, |p| {
                if p.pid() == 0 {
                    p.spin_until(0, 1);
                    p.store(1, 42);
                } else {
                    p.delay(500);
                    p.store(0, 1);
                }
            })
            .unwrap();
        assert_eq!(report.memory[1], 42);
        assert_eq!(report.metrics.wakeups(), 1);
        assert!(report.metrics.per_proc[0].spin_wait_cycles > 0);
    }

    #[test]
    fn spin_while_returns_changed_value() {
        bus(2)
            .run(2, 1, |p| {
                if p.pid() == 0 {
                    let seen = p.spin_while(0, 0);
                    assert_eq!(seen, 77);
                } else {
                    p.delay(100);
                    p.store(0, 77);
                }
            })
            .unwrap();
    }

    #[test]
    fn spin_satisfied_immediately_does_not_park() {
        let report = bus(1)
            .run_with_init(1, vec![5], |p| {
                assert_eq!(p.spin_while(0, 0), 5);
                p.spin_until(0, 5);
            })
            .unwrap();
        assert_eq!(report.metrics.wakeups(), 0);
    }

    #[test]
    fn deadlock_detected() {
        let err = bus(2)
            .run(2, 1, |p| {
                p.spin_until(0, 1); // nobody ever stores 1
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiting } => assert_eq!(waiting.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_enforced() {
        let mut params = MachineParams::bus_1991(1);
        params.max_cycles = 1000;
        let err = Machine::new(params)
            .run(1, 1, |p| {
                for _ in 0..100 {
                    p.delay(100);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::TimeLimit { limit: 1000 });
    }

    #[test]
    fn user_panic_propagates() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = bus(2).run(2, 1, |p| {
                if p.pid() == 1 {
                    panic!("kernel bug");
                }
                // p0 parks forever; the abort must release it.
                p.spin_until(0, 1);
            });
        }));
        let payload = outcome.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "kernel bug");
    }

    #[test]
    fn panic_before_any_peer_started_propagates() {
        // The first processor resumed panics before any peer has started:
        // the peers must still run to an operation and be unwound from it.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = bus(2).run(2, 1, |p| {
                if p.pid() == 0 {
                    panic!("pid0 bug");
                }
                p.spin_until(0, 1);
            });
        }));
        let payload = outcome.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "pid0 bug");
    }

    #[test]
    fn determinism_same_seedless_program() {
        let run = || {
            bus(4)
                .run(4, 2, |p| {
                    for i in 0..20 {
                        p.fetch_add(0, p.pid() as u64 + i);
                        p.delay((p.pid() as u64 * 7) % 13);
                        p.store(1, p.pid() as u64);
                    }
                })
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.memory, b.memory);
    }

    #[test]
    fn cached_reads_hit_after_first_miss() {
        let report = bus(1)
            .run(1, 1, |p| {
                p.load(0);
                for _ in 0..9 {
                    p.load(0);
                }
            })
            .unwrap();
        let m = &report.metrics.per_proc[0];
        assert_eq!(m.misses, 1);
        assert_eq!(m.hits, 9);
    }

    #[test]
    fn write_invalidates_reader() {
        let report = bus(2)
            .run(2, 1, |p| {
                if p.pid() == 0 {
                    p.load(0); // cache the line shared
                    p.delay(1000);
                    p.load(0); // must miss again after p1's write
                } else {
                    p.delay(500);
                    p.store(0, 1);
                }
            })
            .unwrap();
        assert_eq!(report.metrics.per_proc[0].misses, 2);
        assert!(report.metrics.invalidations >= 1);
    }

    #[test]
    fn sharers_on_different_lines_do_not_interfere() {
        let params = MachineParams::bus_1991(2);
        let stride = params.line_words;
        let report = Machine::new(params)
            .run(2, stride * 2, move |p| {
                let mine = p.pid() * stride;
                for _ in 0..20 {
                    p.store(mine, 1);
                }
            })
            .unwrap();
        // After the first miss each processor owns its own line: all hits.
        assert_eq!(report.metrics.invalidations, 0);
        for m in &report.metrics.per_proc {
            assert_eq!(m.misses, 1);
            assert_eq!(m.hits, 19);
        }
    }

    #[test]
    fn numa_machine_runs_and_counts_transactions() {
        let machine = Machine::new(MachineParams::numa_1991(4));
        assert!(matches!(machine.params().topology, Topology::Numa { .. }));
        let report = machine
            .run(4, 1, |p| {
                for _ in 0..10 {
                    p.fetch_add(0, 1);
                }
            })
            .unwrap();
        assert_eq!(report.memory[0], 40);
        assert!(report.metrics.interconnect_transactions > 0);
    }

    #[test]
    fn out_of_bounds_address_faults() {
        let err = bus(1)
            .run(1, 1, |p| {
                p.load(5);
            })
            .unwrap_err();
        assert_eq!(err, SimError::Fault { pid: 0, addr: 5 });
    }

    #[test]
    fn futex_wait_returns_immediately_on_changed_word() {
        let report = bus(1)
            .run_with_init(1, vec![3], |p| {
                // Word is 3, expected 0: no park, current value returned.
                let waited = p.wait(0, 0, None);
                assert_eq!((waited.parked, waited.seen), (false, 3));
            })
            .unwrap();
        assert_eq!(report.metrics.futex_parks(), 0);
        assert_eq!(report.metrics.wakeups(), 0);
    }

    #[test]
    fn futex_park_and_wake_crosses_processors() {
        let report = bus(2)
            .run(2, 2, |p| {
                if p.pid() == 0 {
                    let mut cur = p.load(0);
                    while cur == 0 {
                        let waited = p.wait(0, 0, None);
                        assert!(waited.parked, "the word was unchanged: the wait parks");
                        cur = waited.seen;
                        if cur == 0 {
                            cur = p.load(0);
                        }
                    }
                    assert_eq!(cur, 1);
                    p.store(1, 42);
                } else {
                    p.delay(500);
                    p.store(0, 1);
                    p.wake(0, 1);
                }
            })
            .unwrap();
        assert_eq!(report.memory[1], 42);
        assert_eq!(report.metrics.futex_parks(), 1);
        assert_eq!(report.metrics.per_proc[0].wakeups, 1);
        assert!(report.metrics.per_proc[0].spin_wait_cycles > 0);
    }

    #[test]
    fn futex_wake_releases_exactly_n_in_fifo_order() {
        // Processors 1..=3 park on word 0; processor 0 wakes two, checks the
        // count, then wakes the rest. Each wakee grabs a rank from word 1 and
        // records it, so FIFO wake order is directly observable.
        let report = bus(4)
            .run(4, 6, |p| {
                if p.pid() == 0 {
                    p.delay(2000); // let all three waiters park first
                    assert_eq!(p.wake(0, 2), 2);
                    p.delay(2000);
                    assert_eq!(p.wake(0, 2), 1, "only one waiter left");
                } else {
                    p.delay(p.pid() as u64 * 10); // park order = pid order
                    p.wait(0, 0, None);
                    let rank = p.fetch_add(1, 1);
                    p.store(2 + p.pid(), rank + 1);
                }
            })
            .unwrap();
        assert_eq!(report.metrics.futex_parks(), 3);
        // Park order was pid 1, 2, 3; wake order (and thus rank) must match.
        assert_eq!(&report.memory[3..6], &[1, 2, 3]);
    }

    #[test]
    fn all_parked_with_no_waker_is_lost_wakeup() {
        let err = bus(2)
            .run(2, 1, |p| {
                p.wait(0, 0, None); // nobody will ever wake us
            })
            .unwrap_err();
        match err {
            SimError::LostWakeup { parked } => {
                assert_eq!(parked, vec![(0, 0, 0), (1, 0, 0)]);
            }
            other => panic!("expected lost wakeup, got {other:?}"),
        }
    }

    #[test]
    fn mixed_spin_and_park_blockage_is_deadlock() {
        let err = bus(2)
            .run(2, 2, |p| {
                if p.pid() == 0 {
                    p.spin_until(0, 1);
                } else {
                    p.wait(1, 0, None);
                }
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiting } => assert_eq!(waiting.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    fn oversub(nprocs: usize, cores: usize) -> Machine {
        let mut params = MachineParams::bus_1991(nprocs);
        params.sched = Some(crate::params::SchedParams::oversub_1991(cores));
        params.max_cycles = 50_000_000;
        Machine::new(params)
    }

    #[test]
    fn oversubscribed_counter_is_atomic_and_pays_ctx_switches() {
        let report = oversub(8, 2)
            .run(8, 1, |p| {
                for _ in 0..25 {
                    p.fetch_add(0, 1);
                }
            })
            .unwrap();
        assert_eq!(report.memory[0], 200);
        // All eight processors had to be placed on a core at least once.
        for m in &report.metrics.per_proc {
            assert!(m.ctx_switches >= 1);
        }
    }

    #[test]
    fn oversubscribed_spin_polls_to_completion() {
        // The signal crosses a spin wait even when threads outnumber cores
        // and the spinner holds a core the signaller needs.
        let report = oversub(3, 1)
            .run(3, 2, |p| {
                if p.pid() == 0 {
                    p.spin_until(0, 2);
                    p.store(1, 7);
                } else {
                    p.delay(500);
                    p.fetch_add(0, 1);
                }
            })
            .unwrap();
        assert_eq!(report.memory[1], 7);
        // The spinner burned cycles polling, not sleeping on a watchpoint.
        assert!(report.metrics.per_proc[0].spin_wait_cycles > 0);
        assert_eq!(report.metrics.per_proc[0].wakeups, 0);
    }

    #[test]
    fn oversubscribed_park_frees_the_core_and_run_is_deterministic() {
        let go = || {
            oversub(4, 1)
                .run(4, 2, |p| {
                    if p.pid() == 0 {
                        p.delay(5_000);
                        p.store(0, 1);
                        p.wake(0, usize::MAX);
                    } else {
                        let mut cur = p.load(0);
                        while cur == 0 {
                            cur = p.wait(0, 0, None).seen;
                            if cur == 0 {
                                cur = p.load(0);
                            }
                        }
                        p.fetch_add(1, 1);
                    }
                })
                .unwrap()
        };
        let a = go();
        assert_eq!(a.memory[1], 3);
        // With one core and three sleepers, the storer could only make
        // progress because parked processors yield the core.
        assert!(a.metrics.futex_parks() >= 1);
        let b = go();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.memory, b.memory);
    }

    #[test]
    fn oversubscribed_unsatisfiable_spin_hits_time_limit() {
        // Under the scheduler, spinners poll instead of sleeping on a
        // watchpoint, so an unsatisfiable spin burns simulated time until
        // the limit instead of reporting a deadlock.
        let mut params = MachineParams::bus_1991(2);
        params.sched = Some(crate::params::SchedParams::oversub_1991(1));
        params.max_cycles = 10_000;
        let err = Machine::new(params)
            .run(2, 1, |p| {
                if p.pid() == 0 {
                    p.spin_until(0, 1);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::TimeLimit { limit: 10_000 });
    }

    /// [`park_then_spin`] bracketed by the semantic events instrumented
    /// kernels raise through [`Proc::trace_event`].
    fn traced_park_then_spin(p: &mut Proc) {
        let id = p.pid() as u64;
        p.trace_event(trace::EventKind::EpisodeBegin { id });
        park_then_spin(p);
        p.trace_event(trace::EventKind::EpisodeEnd { id });
    }

    #[test]
    fn recorded_run_matches_plain_and_resumes_from_every_snapshot() {
        let tracer = trace::Tracer::shared(4);
        for (machine, body) in [
            (bus(4), park_then_spin as fn(&mut Proc)),
            (Machine::new(MachineParams::numa_1991(4)), park_then_spin),
            (
                bus(4).with_tracer(Arc::clone(&tracer)),
                traced_park_then_spin,
            ),
        ] {
            let topology = machine.params().topology;
            let plain = machine.run(4, 2, body).unwrap();
            let rec = machine.run_recorded(4, vec![0; 2], 100, body).unwrap();
            assert_eq!(rec.report().metrics, plain.metrics, "{topology:?}");
            assert_eq!(rec.report().memory, plain.memory, "{topology:?}");
            assert!(rec.fragments() >= 2, "one fragment only: K too large");
            // Snapshot/restore round-trip: resuming from any boundary and
            // running to completion reproduces the uninterrupted run exactly.
            for i in 0..rec.fragments() {
                let resumed = rec.resume(i);
                assert_eq!(resumed.metrics, plain.metrics, "{topology:?} snapshot {i}");
                assert_eq!(resumed.memory, plain.memory, "{topology:?} snapshot {i}");
            }
        }
        // The plain run and the recording pass each raised every event once.
        for class in [
            trace::EventClass::EpisodeBegin,
            trace::EventClass::EpisodeEnd,
        ] {
            assert_eq!(tracer.class_total(class), 2 * 4, "{class:?}");
        }
    }

    #[test]
    fn fragment_replay_is_byte_identical_at_any_worker_count() {
        let machine = bus(8);
        let body = |p: &mut Proc| {
            for i in 0..50 {
                p.fetch_add(0, 1);
                p.delay((p.pid() as u64 * 7 + i) % 13);
            }
        };
        let plain = machine.run(8, 1, body).unwrap();
        let rec = machine.run_recorded(8, vec![0], 200, body).unwrap();
        assert!(rec.fragments() >= 4, "want several fragments to spread");
        for workers in [1, 2, 8] {
            let rep = crate::replay::FragmentReplayer::new(&rec, workers).run();
            assert_eq!(rep.metrics, plain.metrics, "{workers} workers");
            assert_eq!(rep.memory, plain.memory, "{workers} workers");
        }
    }

    #[test]
    fn fragment_replay_covers_the_oversubscribed_scheduler() {
        // The scheduler's ready queue, core allocator, and quantum clocks
        // all live in the snapshot; an oversubscribed futex workload is the
        // worst case for restore fidelity.
        let machine = oversub(6, 2);
        let plain = machine.run(6, 2, park_then_spin).unwrap();
        let rec = machine
            .run_recorded(6, vec![0; 2], 500, park_then_spin)
            .unwrap();
        assert_eq!(rec.report().metrics, plain.metrics);
        for i in 0..rec.fragments() {
            assert_eq!(rec.resume(i).metrics, plain.metrics, "snapshot {i}");
        }
        let rep = crate::replay::FragmentReplayer::new(&rec, 4).run();
        assert_eq!(rep.metrics, plain.metrics);
        assert_eq!(rep.memory, plain.memory);
    }

    #[test]
    fn recorded_run_propagates_errors_without_a_recording() {
        let err = bus(2)
            .run_recorded(2, vec![0], 100, |p| {
                p.spin_until(0, 1); // nobody ever stores 1
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { waiting } => assert_eq!(waiting.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
