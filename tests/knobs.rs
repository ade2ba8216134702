//! The environment has one variable, `SYNCMECH_BLESS`, read by the golden
//! tests through `simcore::knob::bless` (its grammar is that module's unit
//! test). The tree, README included, names no other `SYNCMECH_*` variable.

use std::collections::BTreeSet;
use std::path::Path;

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
fn syncmech_bless_is_the_only_variable_in_the_tree() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = BTreeSet::new();
    for dir in ["crates", "src", "tests", "examples", ".github", "README.md"] {
        names_under(&root.join(dir), &mut found);
    }
    let strays: Vec<_> = found
        .iter()
        .filter(|(name, _)| name != "SYNCMECH_BLESS")
        .collect();
    assert!(
        strays.is_empty(),
        "unsupported variable names in the tree: {strays:?}"
    );
    assert!(
        found.iter().any(|(_, path)| path.ends_with("README.md")),
        "README documents SYNCMECH_BLESS"
    );
}
