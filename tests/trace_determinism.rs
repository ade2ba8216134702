//! Trace-layer regression tests: the exported Chrome trace JSON is a pure
//! function of (seed, workload) — byte-identical across runs and against a
//! committed golden — and tracing itself is timing-invisible: attaching a
//! tracer must not move a single simulated cycle.
//!
//! To re-bless the trace golden after an *intentional* format change:
//!
//! ```text
//! SYNCMECH_BLESS=1 cargo test --release --test trace_determinism
//! ```
//!
//! The goldens live in `tests/golden_traces/` (not `tests/golden/`, whose
//! orphan check admits only figure-binary names).

use bench::trace_export::{export_trace, WORKLOADS};
use bench::Opts;
use std::path::PathBuf;
use std::sync::Arc;

fn quick() -> Opts {
    Opts { quick: true }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_traces")
        .join(format!("{name}.json"))
}

#[test]
fn exported_traces_are_byte_identical_across_runs() {
    for workload in WORKLOADS {
        let a = export_trace(workload, &quick());
        let b = export_trace(workload, &quick());
        assert_eq!(a, b, "{workload}: trace export is not deterministic");
    }
}

#[test]
fn exported_traces_match_golden_files() {
    let bless = simcore::knob::bless();
    for workload in WORKLOADS {
        let rendered = export_trace(workload, &quick());
        let path = golden_path(workload);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &rendered)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "reading {}: {e} (run with SYNCMECH_BLESS=1 to create)",
                path.display()
            )
        });
        assert_eq!(
            rendered,
            golden,
            "{workload}: trace drifted from {} (SYNCMECH_BLESS=1 to re-bless)",
            path.display()
        );
    }
}

#[test]
fn exported_traces_validate_with_one_track_per_processor() {
    // The fig9 oversubscription workload: 8 simulated processors.
    let json = export_trace("oversub", &quick());
    let stats = trace::chrome::validate(&json).expect("oversub trace validates");
    assert_eq!(
        stats.tracks, 8,
        "one Perfetto track per simulated processor"
    );
    assert!(stats.spans > 0, "lock wait/hold spans must be present");
    // The always-park lock on an oversubscribed machine must show wake
    // flow arrows (phase s/f lines).
    assert!(json.contains("\"ph\":\"s\""), "missing flow-start events");
    assert!(json.contains("\"ph\":\"f\""), "missing flow-end events");

    let bus = export_trace("bus", &quick());
    let stats = trace::chrome::validate(&bus).expect("bus trace validates");
    assert_eq!(stats.tracks, 4);
}

#[test]
fn tracing_is_timing_invisible() {
    // Same oversubscribed workload with and without a tracer attached:
    // every metric — total cycles included — must be bit-identical. This is
    // the integration-level half of the zero-overhead guarantee; the other
    // half is the golden-figures test, whose figures attach no tracer.
    use workloads::csbench::{self, CsConfig};

    let cores = 4;
    let nprocs = 2 * cores;
    let cfg = CsConfig::new(nprocs, 4);
    let lock = kernels::locks::lock_by_name("qsm-block-park").unwrap();

    let plain = csbench::run(
        &workloads::oversub::oversub_machine(nprocs, cores),
        &*lock,
        &cfg,
    )
    .unwrap();

    let tracer = trace::Tracer::shared(nprocs);
    let machine =
        workloads::oversub::oversub_machine(nprocs, cores).with_tracer(Arc::clone(&tracer));
    let traced = csbench::run(&machine, &*lock, &cfg).unwrap();

    assert_eq!(plain.total_cycles, traced.total_cycles);
    assert_eq!(plain.metrics, traced.metrics);
    // And the tracer did actually observe the run.
    assert!(tracer.class_total(trace::EventClass::FutexPark) > 0);
    assert_eq!(
        tracer.class_total(trace::EventClass::FutexPark),
        traced.metrics.futex_parks()
    );
}
