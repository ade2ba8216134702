//! The `interleave` binary's command-line contract: exit codes, the stats
//! line's ending, and the `PASS`, `FAIL`, `schedule:` and `replay with:`
//! lines that CI's greps and the README's examples rely on. Every printed
//! `replay with:` line is run back through the binary and must end in the
//! failure it was printed for.

use std::process::Command;

/// Runs the binary; its exit code and stdout.
fn interleave(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_interleave"))
        .args(args)
        .output()
        .expect("the interleave binary starts");
    let code = out
        .status
        .code()
        .expect("the binary exits rather than dies");
    (
        code,
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

/// The rest of the first stdout line that starts with `prefix`.
fn line<'a>(out: &'a str, prefix: &str) -> &'a str {
    out.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{out}"))
}

/// The stats line: the first line of a check, the second of a fuzz.
fn stats_line(out: &str) -> &str {
    out.lines()
        .find(|l| l.starts_with("runs "))
        .unwrap_or_else(|| panic!("no stats line in:\n{out}"))
}

/// Runs a printed `replay with: interleave replay ...` invocation; its exit
/// code and last stdout line.
fn run_replay(invocation: &str) -> (i32, String) {
    let args: Vec<&str> = invocation
        .strip_prefix("interleave ")
        .unwrap_or_else(|| panic!("not an interleave invocation: {invocation}"))
        .split_whitespace()
        .collect();
    let (code, out) = interleave(&args);
    (code, out.lines().last().unwrap_or_default().to_string())
}

#[test]
fn a_passing_check_exits_zero_and_says_pass() {
    let (code, out) = interleave(&["check", "lock:qsm"]);
    assert_eq!(code, 0, "{out}");
    assert!(stats_line(&out).ends_with(", search complete"), "{out}");
    assert!(out.lines().any(|l| l.starts_with("PASS")), "{out}");
}

#[test]
fn a_failing_check_prints_a_replay_that_ends_in_its_failure() {
    let (code, out) = interleave(&[
        "check",
        "lock:tas",
        "--preemptions",
        "2",
        "--iters",
        "3",
        "--bypass-bound",
        "1",
        "--max-steps",
        "80",
    ]);
    assert_eq!(code, 1, "test-and-set bypasses a waiter:\n{out}");
    let failure = line(&out, "FAIL: ");
    let schedule = line(&out, "schedule: ");
    let invocation = line(&out, "replay with: ");
    assert!(
        invocation
            .starts_with("interleave replay lock:tas --threads 2 --iters 3 --bypass-bound 1 ")
            && invocation.ends_with(&format!(" --schedule {schedule}")),
        "{out}"
    );
    assert!(
        stats_line(&out).ends_with(", stopped at the first violation"),
        "{out}"
    );
    let (code, last) = run_replay(invocation);
    assert_eq!(code, 1, "the replay fails too");
    assert_eq!(last, failure, "the replay ends in the same failure");
}

#[test]
fn a_failing_fuzz_campaign_prints_its_shrunk_schedule_and_a_replay_of_it() {
    let (code, out) = interleave(&[
        "fuzz",
        "lock:tas",
        "--seed",
        "7",
        "--iters",
        "200",
        "--strategy",
        "uniform",
        "--bypass-bound",
        "1",
        "--cs",
        "3",
    ]);
    assert_eq!(code, 1, "{out}");
    let failure = line(&out, "FAIL at iteration 0: ");
    line(&out, "schedule: ");
    let shrunk = line(&out, "shrunk schedule (");
    assert!(shrunk.ends_with(" replays): 0,1,1,0"), "{out}");
    let invocation = line(&out, "replay with: ");
    assert!(
        invocation.ends_with(" --iters 3 --bypass-bound 1 --schedule 0,1,1,0"),
        "{out}"
    );
    assert!(
        stats_line(&out).ends_with(", stopped at the first violation"),
        "{out}"
    );
    let (code, last) = run_replay(invocation);
    assert_eq!(code, 1, "the replay fails too");
    assert_eq!(last, failure, "the replay ends in the same failure");
}

#[test]
fn a_count_flag_rejects_zero_and_garbage_before_running() {
    for (value, why) in [
        ("0", "zero is not positive"),
        ("lots", "not a positive integer"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_interleave"))
            .args(["check", "lock:qsm", "--iters", value])
            .output()
            .expect("the interleave binary starts");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{err}");
        assert!(out.stdout.is_empty(), "ran despite --iters {value:?}");
        assert!(err.contains(&format!("--iters {value:?}: {why}")), "{err}");
    }
}

#[test]
fn out_of_range_counts_and_unknown_flags_exit_two_before_running() {
    for args in [
        &["check", "lock:qsm", "--threads", "0"][..],
        &["check", "lock:qsm", "--threads", "65"],
        &["check", "barrier:central", "--episodes", "0"],
        &["fuzz", "lock:qsm", "--cs", "0"],
        &["check", "lock:qsm", "--workers", "2"],
    ] {
        let (code, out) = interleave(args);
        assert_eq!(code, 2, "{args:?}:\n{out}");
        assert!(out.is_empty(), "{args:?} ran:\n{out}");
    }
}

/// A reader that goes away early ends the printing, not the check: with
/// its stdout pipe closed after the first line, or before any, `check`
/// still exits with its verdict's status (0, this search passes) and does
/// not panic. A closed pipe is no error worth a word on stderr either.
#[test]
fn a_closed_stdout_ends_printing_not_the_verdict() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    for lines in [1, 0] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_interleave"))
            .args(["check", "lock:qsm-block-park", "--threads", "3"])
            .args(["--dpor", "source"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the interleave binary starts");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut first = String::new();
        for _ in 0..lines {
            stdout.read_line(&mut first).expect("stdout reads");
        }
        drop(stdout);
        let done = child.wait_with_output().expect("the binary exits");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert!(lines == 0 || first.starts_with("runs 12720 "), "{first}");
        assert_eq!(
            done.status.code(),
            Some(0),
            "after {lines} line(s):\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!stderr.contains("error"), "{stderr}");
    }
}
