//! Loader test for the checked-in corpus of fuzzer-shrunk
//! counterexamples (`tests/shrunk_corpus/*.corpus`).
//!
//! Every entry names a program from the seeded-bug registry
//! ([`interleave::corpus::corpus_program`]), carries the shrunk schedule
//! the nightly fuzz job found, and pins the verdict class. Each entry is
//! checked two ways:
//!
//! 1. **replay** — the schedule must still reproduce exactly that verdict
//!    class (a stale schedule maps to `Pass` and fails loudly);
//! 2. **exhaustive re-check** — the bug must still be reachable by search
//!    alone under source-set reduction, so a regression in the race
//!    analysis cannot hide behind a replay.
//!
//! Regenerate the directory with:
//!
//! ```text
//! cargo test --release --test shrunk_corpus -- --ignored regenerate
//! ```

use interleave::corpus::{corpus_program, corpus_program_names, CorpusEntry, VerdictClass};
use interleave::fuzz::Fuzzer;
use interleave::{DporMode, Explorer, Strategy};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/shrunk_corpus")
}

fn load_entries() -> Vec<(PathBuf, CorpusEntry)> {
    let dir = corpus_dir();
    let mut entries: Vec<(PathBuf, CorpusEntry)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|f| f.expect("readable dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("corpus"))
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable corpus file");
            let entry =
                CorpusEntry::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, entry)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

#[test]
fn every_corpus_entry_replays_to_its_verdict_class() {
    let entries = load_entries();
    assert!(
        entries.len() >= 5,
        "corpus went missing: only {} entries",
        entries.len()
    );
    for (path, entry) in entries {
        let (program, check) = corpus_program(&entry.program)
            .unwrap_or_else(|| panic!("{}: unknown program {:?}", path.display(), entry.program));
        let replay = Explorer::exhaustive().replay(&program, &entry.schedule);
        assert_eq!(
            replay
                .end
                .failure(&check)
                .map_or(VerdictClass::Pass, |f| f.class()),
            entry.verdict,
            "{}: schedule no longer reproduces, got {:?}",
            path.display(),
            replay.end
        );
    }
}

#[test]
fn every_corpus_bug_is_rediscovered_exhaustively() {
    for (path, entry) in load_entries() {
        let (program, check) = corpus_program(&entry.program)
            .unwrap_or_else(|| panic!("{}: unknown program {:?}", path.display(), entry.program));
        let v = Explorer::exhaustive()
            .with_dpor(DporMode::Source)
            .check(&program, check);
        assert_eq!(
            VerdictClass::of(&v),
            entry.verdict,
            "{}: source-set search must rediscover the bug, got {v:?}",
            path.display()
        );
    }
}

/// Rebuilds every corpus file from a fresh deterministic fuzz campaign
/// (seed 1991, shrinking on). Ignored by default — run explicitly after
/// adding a registry program or changing the fuzzer.
#[test]
#[ignore = "regenerates tests/shrunk_corpus/ from fresh fuzz campaigns"]
fn regenerate() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for name in corpus_program_names() {
        let (program, check) = corpus_program(name).expect("registry name");
        let report = Fuzzer::new(1991, 20_000, Strategy::default()).run(&program, check);
        let text = report
            .corpus_entry(name)
            .unwrap_or_else(|| panic!("{name}: fuzzing found no failure to check in"));
        let path = dir.join(format!("{name}.corpus"));
        std::fs::write(&path, text).expect("write corpus file");
        println!("wrote {}", path.display());
    }
}
