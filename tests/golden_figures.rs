//! Golden-output regression test: every deterministic figure, rendered in
//! quick mode twice in one process, must match its committed golden file
//! **byte for byte** both times.
//!
//! This is the cheap always-on version of the guarantee the perf work was
//! done under ("not a single simulated cycle may change"): the full-mode
//! outputs are committed under `results/` and take seconds to regenerate,
//! while the quick sweeps exercise the same engine, kernels and sweeps at a
//! fraction of the cost. Any engine change that alters simulated timing —
//! however subtly — shows up here as a diff.
//!
//! To re-bless after an *intentional* output change:
//!
//! ```text
//! SYNCMECH_BLESS=1 cargo test --release --test golden_figures
//! ```
//!
//! fig8 is excluded: it measures real host wall-clock and is the one
//! legitimately nondeterministic figure.

use bench::figures::{check_report, FIGURES};
use bench::Opts;
use std::path::PathBuf;

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.txt"))
}

/// A minimal unified diff (3 context lines, `@@ -a,b +c,d @@` hunk
/// headers) between two small texts — what the failure message prints
/// instead of both blobs. Line-level LCS; figure files are a few hundred
/// lines at most, so the quadratic table is immaterial.
fn unified_diff(old: &str, new: &str) -> String {
    const CONTEXT: usize = 3;
    #[derive(Clone, Copy)]
    enum Edit {
        Keep(usize),
        Del(usize),
        Add(usize),
    }
    let a: Vec<&str> = old.lines().collect();
    let b: Vec<&str> = new.lines().collect();
    let (n, m) = (a.len(), b.len());
    // lcs[i][j] = LCS length of a[i..] and b[j..].
    let mut lcs = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut edits = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            edits.push(Edit::Keep(i));
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            edits.push(Edit::Del(i));
            i += 1;
        } else {
            edits.push(Edit::Add(j));
            j += 1;
        }
    }
    edits.extend((i..n).map(Edit::Del));
    edits.extend((j..m).map(Edit::Add));

    let changed: Vec<usize> = edits
        .iter()
        .enumerate()
        .filter(|(_, e)| !matches!(e, Edit::Keep(..)))
        .map(|(k, _)| k)
        .collect();
    if changed.is_empty() {
        // Same lines, different bytes: only a trailing-newline difference
        // survives the `lines()` view.
        return "  (line contents identical; trailing newline differs)".to_string();
    }

    // Track the old/new line index reached before each edit, for headers.
    let mut pos = Vec::with_capacity(edits.len() + 1);
    let (mut oi, mut nj) = (0usize, 0usize);
    for e in &edits {
        pos.push((oi, nj));
        match e {
            Edit::Keep(..) => {
                oi += 1;
                nj += 1;
            }
            Edit::Del(_) => oi += 1,
            Edit::Add(_) => nj += 1,
        }
    }
    pos.push((oi, nj));

    let mut out = String::new();
    let mut k = 0;
    while k < changed.len() {
        let first = changed[k];
        let mut last = first;
        k += 1;
        // Merge changes whose context windows touch into one hunk.
        while k < changed.len() && changed[k] - last <= 2 * CONTEXT + 1 {
            last = changed[k];
            k += 1;
        }
        let lo = first.saturating_sub(CONTEXT);
        let hi = (last + CONTEXT + 1).min(edits.len());
        let old_count = pos[hi].0 - pos[lo].0;
        let new_count = pos[hi].1 - pos[lo].1;
        out.push_str(&format!(
            "  @@ -{},{} +{},{} @@\n",
            pos[lo].0 + 1,
            old_count,
            pos[lo].1 + 1,
            new_count
        ));
        for e in &edits[lo..hi] {
            let (sign, line) = match e {
                Edit::Keep(x) => (' ', a[*x]),
                Edit::Del(x) => ('-', a[*x]),
                Edit::Add(y) => ('+', b[*y]),
            };
            out.push_str(&format!("  {sign}{line}\n"));
        }
    }
    out.pop(); // drop the final newline; the caller joins failures
    out
}

#[test]
fn quick_mode_figures_match_golden_files() {
    let bless = simcore::knob::bless();
    let mut failures = Vec::new();
    // Every figure, then every figure again: the second pass catches state
    // that one render leaves behind for the next (a cached coroutine
    // stack, a pooled worker). A bless rewrites the goldens from the first
    // pass and diffs the second against them.
    let opts = Opts { quick: true };
    for pass in ["first", "second"] {
        for figure in FIGURES.iter().filter(|f| f.deterministic) {
            let rendered = (figure.render)(&opts);
            let path = golden_path(figure.id);
            if bless && pass == "first" {
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
            if rendered != golden {
                failures.push(format!(
                    "{} ({pass} render): golden (-) vs actual (+):\n{}",
                    figure.id,
                    unified_diff(&golden, &rendered)
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "simulated output drifted from the committed goldens — if intentional, \
         re-bless with SYNCMECH_BLESS=1 and regenerate results/:\n{}",
        failures.join("\n")
    );
}

#[test]
fn unified_diff_prints_hunks_with_context() {
    let old: String = (1..=30).map(|i| format!("line {i}\n")).collect();
    let new = old
        .replace("line 10\n", "line ten\n")
        .replace("line 25\n", "");
    let d = unified_diff(&old, &new);
    // First hunk: one changed line at 10 with three lines of context.
    assert!(d.contains("@@ -7,7 +7,7 @@"), "got:\n{d}");
    assert!(d.contains("-line 10"), "got:\n{d}");
    assert!(d.contains("+line ten"), "got:\n{d}");
    // Second hunk: a pure deletion, far enough away to be its own hunk.
    assert!(d.contains("@@ -22,7 +22,6 @@"), "got:\n{d}");
    assert!(d.contains("-line 25"), "got:\n{d}");
    // Lines far from any change are elided.
    assert!(!d.contains("line 3\n"), "far context not elided:\n{d}");
    // A trailing-newline-only difference is still reported.
    let d2 = unified_diff("a\nb\n", "a\nb");
    assert!(d2.contains("trailing newline"), "got:\n{d2}");
}

/// The committed `BENCH_sim.json` passes the check `bench_sim` runs on
/// every report it writes, and that check reads values, not layout.
#[test]
fn committed_bench_sim_report_passes_its_check() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_sim.json");
    let text = std::fs::read_to_string(path).expect("BENCH_sim.json");
    let figures: Vec<_> = FIGURES.iter().collect();
    check_report(&text, &figures).expect("BENCH_sim.json");
    check_report(&text.replace(",\"", ",\n  \""), &figures).expect("one member per line");
    for (from, to) in [
        ("v7", "v6"),
        ("\"id\":\"fig2\"", "\"id\":\"fig3\""),
        ("\"wall_ms\":", "\"wall_ms\":-"),
        ("\"wall_ms\":", "\"wall_msX\":"),
    ] {
        let bad = text.replacen(from, to, 1);
        assert!(check_report(&bad, &figures).is_err(), "accepted {to:?}");
    }
    assert!(check_report(&text, &figures[1..]).is_err(), "extra entry");
}

/// The ids a directory holds one `<id>.txt` file for, sorted; any other
/// entry fails the test.
fn stems(dir: &str) -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut stems: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_string_lossy();
            match name.strip_suffix(".txt") {
                Some(stem) => stem.to_string(),
                None => panic!("unexpected file in {}: {name}", dir.display()),
            }
        })
        .collect();
    stems.sort();
    stems
}

#[test]
fn golden_directory_has_no_orphans() {
    // `results/` holds one file per registered figure, fig8 included, and
    // `tests/golden/` one per deterministic figure: no orphan left behind
    // by a renamed figure, and no gap that a loop over the files would
    // silently skip.
    let ids = |keep: fn(&bench::figures::Figure) -> bool| {
        let mut ids: Vec<String> = FIGURES
            .iter()
            .filter(|f| keep(f))
            .map(|f| f.id.to_string())
            .collect();
        ids.sort();
        ids
    };
    assert_eq!(stems("results"), ids(|_| true), "results/ vs FIGURES");
    assert_eq!(
        stems("tests/golden"),
        ids(|f| f.deterministic),
        "tests/golden/ vs the deterministic FIGURES"
    );
}
