//! Fragment-parallel replay of recorded simulations.
//!
//! A simulation is a pure function of its parameters and program, but the
//! live run is inherently serial in simulated time: the engine executes one
//! memory event after another. This module splits that timeline into
//! *fragments* so regeneration can use every host core:
//!
//! 1. **Record** ([`crate::Machine::run_recorded`]): run the workload once,
//!    normally, while the engine logs every processor's submissions and
//!    clones the complete machine state every K simulated cycles
//!    ([`Recording`]).
//! 2. **Replay** ([`FragmentReplayer`]): re-execute the fragments
//!    *concurrently*, each from its snapshot, feeding the logged operations
//!    back into the engine instead of running processor bodies. Replay of
//!    fragment `i` stops exactly where snapshot `i + 1` was captured, so
//!    per-fragment [`Metrics`] deltas stitch back together — in fragment
//!    order — into a result byte-identical to the live run.
//!
//! Replayed fragments are single-threaded and independent, so N fragments
//! scale across N workers with no synchronization beyond a grab counter.
//! The pair never beat the plain run it re-executes (DESIGN.md,
//! "Fragment-parallel replay"), so no figure or trace runs through it; what
//! is left serves the benchmark's `memsim.*` replay probes.

use crate::engine::{EngineCore, LogEntry, Recorder, SnapshotState};
use crate::machine::RunReport;
use crate::metrics::Metrics;
use crate::params::MachineParams;
use crate::pool::{Latch, Pool};
use crate::Word;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A completed run's operation logs and fragment-boundary snapshots,
/// produced by [`crate::Machine::run_recorded`].
///
/// The recording owns everything replay needs: machine parameters, one log
/// per processor (every submitted request, in program order), and the
/// machine states captured at fragment boundaries.
/// `snapshots[0]` is the pre-run state, so indices `0..fragments()` each
/// name a replayable span: from snapshot `i` up to where snapshot `i + 1`
/// was captured (the last span runs to completion).
pub struct Recording {
    params: MachineParams,
    nprocs: usize,
    fragment: u64,
    logs: Arc<Vec<Vec<LogEntry>>>,
    snapshots: Vec<SnapshotState>,
    report: RunReport,
}

impl Recording {
    pub(crate) fn new(
        params: MachineParams,
        nprocs: usize,
        fragment: u64,
        recorder: Recorder,
        report: RunReport,
    ) -> Self {
        Recording {
            params,
            nprocs,
            fragment,
            logs: Arc::new(recorder.logs),
            snapshots: recorder.snapshots,
            report,
        }
    }

    /// Number of replayable fragments (equivalently, snapshots captured —
    /// at least 1, the pre-run state).
    pub fn fragments(&self) -> usize {
        self.snapshots.len()
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The recording pass's own result — the ground truth every replay
    /// must reproduce.
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Replays from snapshot `index` until `stop_at` (a boundary in
    /// simulated cycles) or, when `None`, to completion. Returns the
    /// engine's final cumulative metrics and memory.
    fn replay_span(&self, index: usize, stop_at: Option<u64>) -> (Metrics, Vec<Word>) {
        let mut core = EngineCore::from_snapshot(
            self.params.clone(),
            &self.snapshots[index],
            Arc::clone(&self.logs),
            stop_at,
        );
        if let Err(e) = core.replay_drive() {
            // The recording pass completed cleanly, and replay re-executes
            // the same deterministic schedule; any error here is an engine
            // snapshot/restore bug, not a property of the workload.
            panic!("replay of a clean recording failed at fragment {index}: {e}");
        }
        core.into_memory()
    }

    /// Restores snapshot `index` and replays to completion — the
    /// snapshot/restore round-trip. The result equals [`Recording::report`]
    /// for every index (pinned by the determinism test suite).
    ///
    /// # Panics
    ///
    /// If `index` is out of range, or on an engine replay bug.
    pub fn resume(&self, index: usize) -> RunReport {
        let (metrics, memory) = self.replay_span(index, None);
        RunReport { metrics, memory }
    }
}

impl std::fmt::Debug for Recording {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recording")
            .field("nprocs", &self.nprocs)
            .field("fragment", &self.fragment)
            .field("fragments", &self.fragments())
            .finish()
    }
}

/// What one replayed fragment contributes to the stitched result.
struct FragmentOutcome {
    /// Counter growth across the fragment ([`Metrics::delta_since`]).
    delta: Metrics,
    /// Memory at the fragment's end (only the last fragment's survives).
    memory: Vec<Word>,
}

/// Replays a [`Recording`]'s fragments concurrently on the persistent
/// worker pool and stitches the results back together in fragment order.
pub struct FragmentReplayer<'a> {
    recording: &'a Recording,
    workers: usize,
}

impl<'a> FragmentReplayer<'a> {
    /// A replayer using up to `workers` host threads (the calling thread
    /// counts as one; the shortfall is leased from the worker pool).
    ///
    /// # Panics
    ///
    /// If `workers` is zero.
    pub fn new(recording: &'a Recording, workers: usize) -> Self {
        assert!(
            workers >= 1,
            "fragment replay needs at least one host worker"
        );
        FragmentReplayer { recording, workers }
    }

    /// Replays every fragment and returns the stitched report, which equals
    /// the recording pass's own [`Recording::report`] byte for byte.
    pub fn run(&self) -> RunReport {
        let rec = self.recording;
        let n = rec.fragments();
        let run_one = |i: usize| -> FragmentOutcome {
            // Fragment i ends exactly where snapshot i + 1 was captured;
            // the last fragment runs out the rest of the recording.
            let stop_at = rec.snapshots.get(i + 1).map(|s| s.boundary);
            let (end, memory) = rec.replay_span(i, stop_at);
            FragmentOutcome {
                delta: end.delta_since(&rec.snapshots[i].metrics),
                memory,
            }
        };

        let outcomes: Vec<Mutex<Option<FragmentOutcome>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        // Fragments are claimed through a grab counter, so stragglers don't
        // convoy behind a fixed pre-partition. Never unwinds — the pool and
        // the latch depend on that.
        let worker_main = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| run_one(i))) {
                Ok(out) => {
                    *outcomes[i].lock().expect("outcome mutex poisoned") = Some(out);
                }
                Err(payload) => {
                    let mut slot = first_panic.lock().expect("panic slot poisoned");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    break;
                }
            }
        };

        let extra = (self.workers - 1).min(n.saturating_sub(1));
        {
            let replays_done = Latch::new(extra);
            let lease = Pool::global().lease(extra);
            for w in 0..extra {
                let worker_main = &worker_main;
                let replays_done = &replays_done;
                // SAFETY: `replays_done.wait()` below does not return until
                // every job has executed `count_down` as its final action,
                // so all borrows (the recording, outcomes, the counter, the
                // latch) outlive the jobs, and the lease is only dropped
                // once the workers are idle again.
                unsafe {
                    lease.dispatch(
                        w,
                        Box::new(move || {
                            worker_main();
                            replays_done.count_down();
                        }),
                    );
                }
            }
            worker_main();
            replays_done.wait();
        }
        if let Some(payload) = first_panic.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }

        // Stitch in fragment order: deltas sum onto the pre-run metrics,
        // the last fragment's memory is the final memory.
        let mut metrics = rec.snapshots[0].metrics.clone();
        let mut memory = Vec::new();
        for (i, cell) in outcomes.iter().enumerate() {
            let out = cell
                .lock()
                .expect("outcome mutex poisoned")
                .take()
                .unwrap_or_else(|| panic!("fragment {i} never produced an outcome"));
            metrics.absorb(&out.delta);
            if i == n - 1 {
                memory = out.memory;
            }
        }
        debug_assert_eq!(
            metrics, rec.report.metrics,
            "stitched metrics diverged from the recording pass"
        );
        debug_assert_eq!(
            memory, rec.report.memory,
            "stitched memory diverged from the recording pass"
        );
        RunReport { metrics, memory }
    }
}
