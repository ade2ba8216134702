//! Worker-count independence of parallel DPOR exploration.
//!
//! `Explorer::check_parallel` must return a byte-identical `Verdict` —
//! schedule, message and `Stats` included — for any worker count, because
//! the fan-out enumerates depth-bounded prefixes serially and merges
//! worker results in task order (see `explorer::fan_out`). The CI
//! `interleave-dpor` job re-checks the same property through the CLI by
//! diffing `--workers 1` against `--workers 8`; this test pins
//! it at the library level for both a passing and a violating program, so
//! the tier-1 suite catches a merge-order regression without CI.

use interleave::harness::{check_lock, check_lock_parallel};
use interleave::{DporMode, Explorer, Program};
use kernels::locks::qsm::QsmLock;
use kernels::{SyncCtx, Word};
use std::sync::Arc;

const WORKERS: [usize; 3] = [1, 2, 8];

fn lost_update(nthreads: usize) -> Program {
    Program::new(nthreads, 1, |ctx| {
        let v = ctx.load(0);
        ctx.store(0, v + 1);
    })
}

fn renders(explorer: &Explorer, program: &Program, goal: Word) -> Vec<String> {
    WORKERS
        .iter()
        .map(|&w| {
            let v = explorer.check_parallel(
                program,
                |mem| {
                    if mem[0] == goal {
                        Ok(())
                    } else {
                        Err(format!("lost update: {}", mem[0]))
                    }
                },
                w,
            );
            format!("{v:?}")
        })
        .collect()
}

#[test]
fn violating_verdict_is_byte_identical_across_worker_counts() {
    for mode in [DporMode::Sleep, DporMode::Source] {
        let explorer = Explorer::exhaustive().with_dpor(mode);
        let out = renders(&explorer, &lost_update(3), 3);
        assert!(
            out[0].contains("Violation"),
            "{mode}: expected a violation, got {}",
            out[0]
        );
        assert_eq!(out[0], out[1], "{mode}: workers 1 vs 2 diverged");
        assert_eq!(out[0], out[2], "{mode}: workers 1 vs 8 diverged");
    }
}

#[test]
fn passing_verdict_and_stats_are_byte_identical_across_worker_counts() {
    let program = Program::new(2, 2, |ctx| {
        let v = ctx.swap(0, 1);
        ctx.store(1, v);
    });
    for mode in [DporMode::Sleep, DporMode::Source] {
        let explorer = Explorer::exhaustive().with_dpor(mode);
        let out: Vec<String> = WORKERS
            .iter()
            .map(|&w| format!("{:?}", explorer.check_parallel(&program, |_| Ok(()), w)))
            .collect();
        assert!(out[0].contains("Passed"), "{mode}: {}", out[0]);
        assert_eq!(out[0], out[1], "{mode}: workers 1 vs 2 diverged");
        assert_eq!(out[0], out[2], "{mode}: workers 1 vs 8 diverged");
    }
}

#[test]
fn harness_parallel_check_matches_itself_for_a_real_lock() {
    let out: Vec<String> = WORKERS
        .iter()
        .map(|&w| {
            let v = check_lock_parallel(Arc::new(QsmLock::spin()), 3, 1, Explorer::exhaustive(), w);
            format!("{v:?}")
        })
        .collect();
    assert!(out[0].contains("Passed"), "qsm 3x1: {}", out[0]);
    assert_eq!(out[0], out[1]);
    assert_eq!(out[0], out[2]);
    // The serial path is a different algorithm (no fan-out) and may explore
    // a different number of runs; it must still agree on the verdict class.
    let serial = check_lock(Arc::new(QsmLock::spin()), 3, 1, Explorer::exhaustive());
    serial.expect_pass("qsm 3x1 serial");
}
