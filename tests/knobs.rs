//! The environment knobs as one table: every entry of `simcore::knob::ALL`
//! resolves strictly and rejects in one format, and the table, README and
//! the source tree name exactly the same variables.

use service::MetricsMode;
use simcore::knob::{self, Knob};
use std::collections::BTreeSet;
use std::path::Path;

/// Resolves `raw` the way the knob's edge does, rendering the value back
/// in the knob's own spelling.
fn resolve(k: &Knob, raw: Option<&str>) -> Result<Option<String>, String> {
    if *k == knob::SERVICE_METRICS {
        Ok(k.resolve(raw, MetricsMode::parse)?.map(|m| m.label()))
    } else if *k == knob::BLESS {
        Ok(k.resolve(raw, knob::flag)?
            .map(|on| u8::from(on).to_string()))
    } else {
        Ok(k.resolve(raw, knob::positive::<u64>)?
            .map(|n| n.to_string()))
    }
}

#[test]
fn every_knob_resolves_strictly_and_rejects_in_one_format() {
    // (knob, a valid value, what the code does when it is unset — where
    // that is a value the knob could also be set to).
    let cases: [(Knob, &str, Option<String>); 3] = [
        (knob::SWEEP_THREADS, "4", None),
        (
            knob::SERVICE_METRICS,
            "sampled:64",
            Some(MetricsMode::default().label()),
        ),
        (knob::BLESS, "1", Some("0".to_string())),
    ];
    let covered: Vec<Knob> = cases.iter().map(|(k, ..)| *k).collect();
    assert_eq!(covered, knob::ALL, "one case per knob, in table order");

    for (k, valid, default) in &cases {
        assert_eq!(
            resolve(k, None),
            Ok(None),
            "{}: unset is not an error",
            k.name
        );
        assert_eq!(
            resolve(k, Some(valid)),
            Ok(Some(valid.to_string())),
            "{}",
            k.name
        );
        if let Some(default) = default {
            assert_eq!(k.unset, default, "{}: documented default", k.name);
            assert_eq!(
                resolve(k, Some(default)),
                Ok(Some(default.clone())),
                "{}",
                k.name
            );
        }
        for bad in ["", "0", "-1", "2.5", "lots"] {
            match resolve(k, Some(bad)) {
                // Only the flag accepts any of these: `0` is "off".
                Ok(_) => assert!(
                    bad == "0" && k.accepts == "0 or 1",
                    "{}={bad:?} must be rejected",
                    k.name
                ),
                Err(err) => {
                    assert!(
                        err.starts_with(&format!("{}={bad:?} is rejected", k.name)),
                        "{err}"
                    );
                    assert!(err.contains(k.accepts) && err.contains(k.unset), "{err}");
                }
            }
        }
    }
}

/// Every `SYNCMECH_<NAME>` mentioned in `text`.
fn knob_names(text: &str) -> BTreeSet<String> {
    let prefix = "SYNCMECH_";
    let mut names = BTreeSet::new();
    let mut rest = text;
    while let Some(at) = rest.find(prefix) {
        let tail = &rest[at + prefix.len()..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(tail.len());
        if len > 0 {
            names.insert(format!("{prefix}{}", &tail[..len]));
        }
        rest = &tail[len..];
    }
    names
}

fn names_under(path: &Path, into: &mut BTreeSet<(String, String)>) {
    if path.is_dir() {
        if path.file_name().is_some_and(|n| n == "target") {
            return;
        }
        for entry in std::fs::read_dir(path).expect("readable directory") {
            names_under(&entry.expect("directory entry").path(), into);
        }
    } else if let Ok(text) = std::fs::read_to_string(path) {
        for name in knob_names(&text) {
            into.insert((name, path.display().to_string()));
        }
    }
}

#[test]
fn readme_table_and_source_tree_name_exactly_the_knobs_in_all() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let all: BTreeSet<String> = knob::ALL.iter().map(|k| k.name.to_string()).collect();
    assert_eq!(all.len(), knob::ALL.len(), "duplicate name in knob::ALL");

    // README's knob table: the rows that start with a backquoted name.
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let table: BTreeSet<String> = readme
        .lines()
        .filter(|l| l.starts_with("| `"))
        .flat_map(knob_names)
        .collect();
    assert_eq!(table, all, "README's knob table and knob::ALL disagree");

    let mut found = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples", ".github", "README.md"] {
        names_under(&root.join(dir), &mut found);
    }
    let strays: Vec<_> = found
        .iter()
        .filter(|(name, _)| !all.contains(name))
        .collect();
    assert!(
        strays.is_empty(),
        "unsupported knob names in the tree: {strays:?}"
    );
}
