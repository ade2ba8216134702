//! The `figure` binary's command line: an id prints that figure's bytes,
//! and anything else prints the usage on stderr and exits 2.

use std::process::{Command, Output};

fn figure(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figure"))
        .args(args)
        .output()
        .expect("run the figure binary")
}

#[test]
fn an_id_prints_its_golden_bytes() {
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/fig9.txt"
    ))
    .expect("tests/golden/fig9.txt");
    let out = figure(&["fig9", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        out.stdout == golden,
        "figure fig9 --quick != the golden file"
    );
}

#[test]
fn anything_but_an_id_prints_the_usage_and_exits_2() {
    for args in [&["fig99"][..], &[], &["fig1", "--csv"]] {
        let out = figure(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(
            stderr.contains("usage: figure <id>") && stderr.contains("table7"),
            "{args:?}: {stderr}"
        );
    }
}
