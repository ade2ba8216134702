//! Fragment-parallel replay determinism suite: record-then-replay must be
//! **byte-identical** to the plain sequential run at every layer — machine
//! reports, rendered figures, and exported Perfetto timelines — at every
//! worker count.
//!
//! Fragment settings are plain arguments here (`Machine::with_fragments`,
//! `RunConfig` inside `Opts`), so the tests share no process state.

use bench::figures;
use bench::trace_export::{export_trace, WORKLOADS};
use bench::Opts;
use memsim::{FragmentReplayer, Machine, MachineParams, Proc};
use std::path::PathBuf;
use std::sync::Arc;
use trace::{EventClass, EventKind, Tracer};
use workloads::sweeps::RunConfig;

/// Quick-mode options that replay `fragment`-cycle fragments on `workers`
/// host threads.
fn fragmented(fragment: u64, workers: usize) -> Opts {
    Opts {
        quick: true,
        run: RunConfig {
            fragment: Some(fragment),
            replay_workers: workers,
            ..RunConfig::default()
        },
        ..Opts::default()
    }
}

/// A figure-representative workload: contended RMWs, watchpoint spins,
/// futex park/wake, local delays, and closure-side trace events.
fn mixed_body(p: &mut Proc) {
    p.trace_event(EventKind::EpisodeBegin { id: p.pid() as u64 });
    if p.pid() == 0 {
        p.delay(400);
        p.store(1, 1);
        p.futex_wake(1, usize::MAX);
        p.store(0, 1);
    } else {
        while p.futex_wait(1, 0) == 0 {}
        p.spin_until(0, 1);
    }
    for i in 0..30 {
        p.fetch_add(2, 1);
        p.delay((p.pid() as u64 * 11 + i) % 17);
    }
    p.trace_event(EventKind::EpisodeEnd { id: p.pid() as u64 });
}

#[test]
fn machine_reports_are_identical_for_golden_worker_counts() {
    let machine = Machine::new(MachineParams::bus_1991(6));
    let plain = machine.run(6, 3, mixed_body).unwrap();
    let rec = machine.run_recorded(6, vec![0; 3], 250, mixed_body).unwrap();
    assert!(rec.fragments() >= 3, "want several fragments to distribute");
    assert_eq!(rec.report().metrics, plain.metrics);
    assert_eq!(rec.report().memory, plain.memory);
    for workers in [1, 2, 8] {
        let rep = FragmentReplayer::new(&rec, workers).run();
        assert_eq!(rep.metrics, plain.metrics, "{workers} workers");
        assert_eq!(rep.memory, plain.memory, "{workers} workers");
    }
}

#[test]
fn snapshot_restore_round_trips_mid_run() {
    // Snapshot → restore → continue must equal the uninterrupted run from
    // every captured boundary, on both machine topologies.
    for machine in [
        Machine::new(MachineParams::bus_1991(4)),
        Machine::new(MachineParams::numa_1991(4)),
    ] {
        let plain = machine.run(4, 3, mixed_body).unwrap();
        let rec = machine.run_recorded(4, vec![0; 3], 300, mixed_body).unwrap();
        for i in 0..rec.fragments() {
            let resumed = rec.resume(i);
            assert_eq!(resumed.metrics, plain.metrics, "snapshot {i}");
            assert_eq!(resumed.memory, plain.memory, "snapshot {i}");
        }
    }
}

#[test]
fn stitched_traces_match_a_sequential_traced_run() {
    let nprocs = 6;
    let seq_tracer = Tracer::full(nprocs);
    let plain = Machine::new(MachineParams::bus_1991(nprocs))
        .with_tracer(Arc::clone(&seq_tracer))
        .run(nprocs, 3, mixed_body)
        .unwrap();

    let machine = Machine::new(MachineParams::bus_1991(nprocs));
    let rec = machine
        .run_recorded(nprocs, vec![0; 3], 250, mixed_body)
        .unwrap();
    for workers in [1, 2, 8] {
        let stitched = Tracer::full(nprocs);
        let rep = FragmentReplayer::new(&rec, workers).run_traced(Some(&stitched));
        assert_eq!(rep.metrics, plain.metrics, "{workers} workers");
        assert_eq!(rep.memory, plain.memory, "{workers} workers");
        for pid in 0..nprocs {
            assert_eq!(
                stitched.events(pid),
                seq_tracer.events(pid),
                "{workers} workers: p{pid} event stream diverged"
            );
            for class in EventClass::ALL {
                assert_eq!(
                    stitched.count(pid, class),
                    seq_tracer.count(pid, class),
                    "{workers} workers: p{pid} {class:?} count diverged"
                );
            }
        }
        // The Perfetto export is a pure function of the tracer contents;
        // byte-equality here is what `--trace-out` stitching promises.
        assert_eq!(
            trace::chrome::export_tracer(&stitched, "fragment-replay"),
            trace::chrome::export_tracer(&seq_tracer, "fragment-replay"),
            "{workers} workers: exported timeline diverged"
        );
    }
}

#[test]
fn fragment_routed_runs_match_plain_runs() {
    let machine = Machine::new(MachineParams::bus_1991(4));
    let plain = machine.run(4, 3, mixed_body).unwrap();
    for workers in [1, 2, 8] {
        let routed = machine
            .clone()
            .with_fragments(200, workers)
            .run(4, 3, mixed_body)
            .unwrap();
        assert_eq!(routed.metrics, plain.metrics, "{workers} workers");
        assert_eq!(routed.memory, plain.memory, "{workers} workers");
    }
}

#[test]
fn fragment_routed_traced_runs_populate_the_tracer_identically() {
    let nprocs = 4;
    let seq_tracer = Tracer::full(nprocs);
    let plain = Machine::new(MachineParams::bus_1991(nprocs))
        .with_tracer(Arc::clone(&seq_tracer))
        .run(nprocs, 3, mixed_body)
        .unwrap();

    let frag_tracer = Tracer::full(nprocs);
    let routed = Machine::new(MachineParams::bus_1991(nprocs))
        .with_tracer(Arc::clone(&frag_tracer))
        .with_fragments(300, 2)
        .run(nprocs, 3, mixed_body)
        .unwrap();
    assert_eq!(routed.metrics, plain.metrics);
    for pid in 0..nprocs {
        assert_eq!(frag_tracer.events(pid), seq_tracer.events(pid), "p{pid}");
    }
}

#[test]
fn figures_are_byte_identical_with_fragment_replay() {
    // The slow single-run figures the tentpole targets, rendered in quick
    // mode: plain vs fragment-parallel must agree byte for byte at every
    // worker count (the golden-figures test pins the plain render to the
    // committed goldens, so these renders are pinned transitively).
    let opts = Opts {
        quick: true,
        ..Opts::default()
    };
    for id in ["fig1", "fig3", "table2"] {
        let figure = figures::by_id(id).unwrap();
        let plain = (figure.render)(&opts);
        for workers in [1, 2, 8] {
            let frag = (figure.render)(&fragmented(2_000, workers));
            assert_eq!(frag, plain, "{id} diverged with {workers} replay workers");
        }
    }
}

#[test]
fn golden_traces_are_unchanged_under_fragment_replay() {
    // The parallel --trace-out path: exports with fragment replay on must
    // match the committed golden traces byte for byte.
    let golden_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_traces");
    for workload in WORKLOADS {
        let golden = std::fs::read_to_string(golden_dir.join(format!("{workload}.json")))
            .expect("golden trace file");
        for workers in [1, 2, 8] {
            let exported = export_trace(workload, &fragmented(1_500, workers));
            assert_eq!(
                exported, golden,
                "{workload} trace diverged with {workers} replay workers"
            );
        }
    }
}
