//! Every number README.md and EXPERIMENTS.md quote, traced to its source.
//!
//! The checked text is all of README.md and EXPERIMENTS.md above its
//! `## Log (dated, not checked)` heading. Each `##` section that quotes a
//! number names its sources on a line of its own,
//! `Sources: results/fig6.txt, tests/dpor_blocking.rs`, and
//! every number in its prose must be a token of one of them:
//!
//! - a `results/*.txt` file: any token;
//! - a committed JSON file, read with `trace::json`: equal to a numeric leaf;
//! - a test file (under a `tests/` directory) or a CI workflow: a token of a
//!   line that contains `assert` or `grep`, comments removed;
//! - any other Rust file: a token of a `const` line, comments removed.
//!
//! A fenced block whose info string is a path is an excerpt: its lines must
//! appear in that file, in order. Numbers are compared after [`numbers`]
//! normalises them. Exempt are inline code spans, fenced blocks with no
//! path, single-digit integers and 4-digit years; nothing else. Every
//! relative link in README.md, EXPERIMENTS.md and DESIGN.md must resolve.
//!
//! `cargo test --test docs` runs it; it reads files and runs nothing else.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use trace::json::Value;

const LOG_HEADING: &str = "## Log (dated, not checked)";

/// Characters that may separate digit groups: "11 735 273", "58_356".
const GROUP_SEPARATORS: [char; 5] = [' ', '\u{2009}', '\u{202f}', '_', ','];

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The numbers of one line, normalised: digit-group separators dropped
/// (`merge_groups`), `−` read as `-`, a leading `+` and a trailing `×`, `x`
/// or `%` dropped. Digits inside a word (`fig1`, `x86_64`, `553d534`) are
/// no number. A source is read both with and without `merge_groups`, so
/// that two columns "153 158" stay two numbers there.
fn numbers(line: &str, merge_groups: bool) -> Vec<String> {
    let cs: Vec<char> = line.chars().collect();
    let digit = |i: usize| cs.get(i).is_some_and(|c| c.is_ascii_digit());
    let (mut out, mut i) = (Vec::new(), 0);
    while i < cs.len() {
        let prev = i.checked_sub(1).map(|p| cs[p]);
        let signed = matches!(cs[i], '+' | '-' | '−')
            && digit(i + 1)
            && !prev.is_some_and(|p| is_word(p) || p == '.' || p == ')');
        if !(digit(i) || signed) {
            i += 1;
            // A word is skipped whole, digits and all, and so is a dotted
            // one ("v0.1.0").
            if is_word(cs[i - 1]) {
                while i < cs.len() && (is_word(cs[i]) || cs[i] == '.' && digit(i + 1)) {
                    i += 1;
                }
            }
            continue;
        }
        let mut num = String::new();
        if signed {
            if cs[i] != '+' {
                num.push('-');
            }
            i += 1;
        }
        let mut group = 0;
        loop {
            while digit(i) {
                num.push(cs[i]);
                group += 1;
                i += 1;
            }
            let grouped = merge_groups
                && (1..=3).contains(&group)
                && cs.get(i).is_some_and(|c| GROUP_SEPARATORS.contains(c))
                && (1..=3).all(|k| digit(i + k))
                && !digit(i + 4);
            if !grouped {
                break;
            }
            group = 0;
            i += 1;
        }
        if cs.get(i) == Some(&'.') && digit(i + 1) {
            num.push('.');
            i += 1;
            while digit(i) {
                num.push(cs[i]);
                i += 1;
            }
        }
        let suffix = cs.get(i).is_some_and(|&c| matches!(c, 'x' | '×' | '%'));
        if suffix && !cs.get(i + 1).is_some_and(|&c| is_word(c)) {
            i += 1;
        }
        // "1.2.3", "3rd", "64KB", "1e6": part of a word or a version.
        let dotted = cs.get(i) == Some(&'.') && digit(i + 1);
        if dotted || cs.get(i).is_some_and(|&c| is_word(c)) {
            while i < cs.len() && (is_word(cs[i]) || cs[i] == '.') {
                i += 1;
            }
            continue;
        }
        out.push(num);
    }
    out
}

/// Single-digit integers and 4-digit years (1900–2029) need no source.
fn exempt(num: &str) -> bool {
    let digits = num.trim_start_matches('-');
    let int = digits.bytes().all(|b| b.is_ascii_digit());
    int && (digits.len() == 1
        || (digits.len() == 4 && (1900..=2029).contains(&digits.parse::<u32>().unwrap())))
}

/// What a source lets a doc quote.
enum Tokens {
    Text(BTreeSet<String>),
    Json(Vec<f64>),
}

impl Tokens {
    fn has(&self, num: &str) -> bool {
        match self {
            Tokens::Text(set) => set.contains(num),
            Tokens::Json(leaves) => num.parse::<f64>().is_ok_and(|x| leaves.contains(&x)),
        }
    }
}

fn json_leaves(v: &Value, out: &mut Vec<f64>) {
    match v {
        Value::Int(n) => out.push(*n as f64),
        Value::Num(x) => out.push(*x),
        Value::Arr(items) => items.iter().for_each(|v| json_leaves(v, out)),
        Value::Obj(fields) => fields.iter().for_each(|(_, v)| json_leaves(v, out)),
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// The tokens `path` (relative to the repo root) lets a doc quote, given
/// its text.
fn source_tokens(path: &str, text: &str) -> Result<Tokens, String> {
    if path.ends_with(".json") {
        let doc = trace::json::parse(text).map_err(|e| format!("{path}: {e}"))?;
        let mut leaves = Vec::new();
        json_leaves(&doc, &mut leaves);
        return Ok(Tokens::Json(leaves));
    }
    let test = path.starts_with("tests/") || path.contains("/tests/");
    let keep: fn(&str) -> bool = if path.starts_with("results/") && path.ends_with(".txt") {
        |_| true
    } else if (path.starts_with(".github/") && path.ends_with(".yml"))
        || (test && path.ends_with(".rs"))
    {
        |code| code.contains("assert") || code.contains("grep")
    } else if path.ends_with(".rs") {
        |code| code.contains("const ")
    } else {
        return Err(format!(
            "{path}: not a kind of source (results/*.txt, *.json, a test, CI or Rust file)"
        ));
    };
    let mut set = BTreeSet::new();
    for line in text.lines() {
        let code = if path.ends_with(".rs") {
            line.split("//").next().unwrap()
        } else if path.ends_with(".yml") && line.trim_start().starts_with('#') {
            ""
        } else {
            line
        };
        if keep(code) {
            set.extend(numbers(code, true));
            set.extend(numbers(code, false));
        }
    }
    Ok(Tokens::Text(set))
}

/// A line with its inline code spans removed.
fn prose(line: &str) -> String {
    line.split('`').step_by(2).collect()
}

/// The targets of a line's relative markdown links.
fn relative_links(line: &str) -> Vec<&str> {
    line.match_indices("](")
        .filter_map(|(at, _)| {
            let rest = &line[at + 2..];
            let target = &rest[..rest.find(')')?];
            let local = !["http://", "https://", "#"]
                .iter()
                .any(|p| target.starts_with(p));
            local.then(|| target.split('#').next().unwrap())
        })
        .collect()
}

struct Checker<'a> {
    root: &'a Path,
    sources: BTreeMap<String, Result<Tokens, String>>,
    problems: Vec<String>,
}

impl Checker<'_> {
    fn read(&self, path: &str) -> Option<String> {
        std::fs::read_to_string(self.root.join(path)).ok()
    }

    fn links(&mut self, doc: &str, text: &str) {
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            fenced ^= line.trim_start().starts_with("```");
            for target in relative_links(&prose(line)) {
                if !fenced && !self.root.join(target).exists() {
                    self.problems
                        .push(format!("{doc}:{}: dead link {target}", n + 1));
                }
            }
        }
    }

    /// Checks one `##` section: `lines` are its numbered lines.
    fn section(&mut self, doc: &str, lines: &[(usize, &str)]) {
        let mut names = Vec::new();
        for (_, line) in lines {
            if let Some(list) = line.strip_prefix("Sources:") {
                names.extend(list.split(',').map(|s| s.trim().to_string()));
            }
        }
        let root = self.root;
        for name in &names {
            let tokens = self.sources.entry(name.clone()).or_insert_with(|| {
                match std::fs::read_to_string(root.join(name)) {
                    Ok(text) => source_tokens(name, &text),
                    Err(e) => Err(format!("{name}: {e}")),
                }
            });
            if let Err(e) = tokens {
                let heading = lines[0].1;
                self.problems
                    .push(format!("{doc} \"{heading}\": source {e}"));
            }
        }
        let mut i = 0;
        while i < lines.len() {
            let (n, line) = lines[i];
            i += 1;
            if let Some(info) = line.trim_start().strip_prefix("```") {
                let body: Vec<&str> = lines[i..]
                    .iter()
                    .map(|l| l.1)
                    .take_while(|l| !l.trim_start().starts_with("```"))
                    .collect();
                i += body.len() + 1;
                let path = info.trim();
                if path.contains('/') || path.contains('.') {
                    self.excerpt(doc, n, path, &body);
                }
                continue;
            }
            if line.starts_with("Sources:") {
                continue;
            }
            for num in numbers(&prose(line), true) {
                let sourced = names
                    .iter()
                    .any(|s| self.sources[s].as_ref().is_ok_and(|t| t.has(&num)));
                if !exempt(&num) && !sourced {
                    let why = if names.is_empty() {
                        "the section names no sources"
                    } else {
                        "in none of its sources"
                    };
                    self.problems
                        .push(format!("{doc}:{n}: {num} ({why}): {line}"));
                }
            }
        }
    }

    /// A fenced block tagged with a path must be lines of that file, in order.
    fn excerpt(&mut self, doc: &str, n: usize, path: &str, body: &[&str]) {
        let Some(text) = self.read(path) else {
            self.problems
                .push(format!("{doc}:{n}: excerpt of missing file {path}"));
            return;
        };
        let mut file = text.lines().map(str::trim_end);
        for line in body {
            if !file.any(|l| l == line.trim_end()) {
                self.problems.push(format!(
                    "{doc}:{n}: not a line of {path} (or out of order): {line}"
                ));
                return;
            }
        }
    }

    /// Checks `text` section by section, up to `end` if it has that line.
    fn sections(&mut self, doc: &str, text: &str, end: Option<&str>) {
        let mut sections: Vec<Vec<(usize, &str)>> = vec![vec![(0, "(preamble)")]];
        let mut fenced = false;
        for (n, line) in text.lines().enumerate() {
            if Some(line) == end {
                break;
            }
            if line.starts_with("## ") && !fenced {
                sections.push(Vec::new());
            }
            fenced ^= line.trim_start().starts_with("```");
            sections.last_mut().unwrap().push((n + 1, line));
        }
        for lines in sections {
            self.section(doc, &lines);
        }
    }
}

/// Everything the test reports on the docs under `root`.
fn problems(root: &Path) -> Vec<String> {
    let mut c = Checker {
        root,
        sources: BTreeMap::new(),
        problems: Vec::new(),
    };
    for doc in ["README.md", "EXPERIMENTS.md", "DESIGN.md"] {
        let Some(text) = c.read(doc) else {
            c.problems.push(format!("{doc}: missing"));
            continue;
        };
        c.links(doc, &text);
        match doc {
            "README.md" => c.sections(doc, &text, None),
            "EXPERIMENTS.md" => {
                if !text.lines().any(|l| l == LOG_HEADING) {
                    c.problems.push(format!(
                        "{doc}: no \"{LOG_HEADING}\" heading; all of it is checked"
                    ));
                }
                c.sections(doc, &text, Some(LOG_HEADING));
            }
            _ => {}
        }
    }
    c.problems
}

#[test]
fn every_quoted_number_has_a_source_and_every_link_resolves() {
    let problems = problems(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        problems.is_empty(),
        "{} problems:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn numbers_are_normalised_before_they_are_compared() {
    for (text, want) in [
        ("1 252", "1252"),
        ("11 735 273", "11735273"),
        ("11\u{2009}735\u{2009}273", "11735273"),
        ("−0.62", "-0.62"),
        ("+1.03", "1.03"),
        ("27.6×", "27.6"),
        ("27.6x", "27.6"),
        ("58_356", "58356"),
        ("1,000", "1000"),
        ("17.7%", "17.7"),
    ] {
        assert_eq!(numbers(text, true), [want], "{text:?}");
    }
    assert_eq!(
        numbers("fig1 x86_64 553d534 v0.1.0 64KB 3rd", true),
        Vec::<String>::new()
    );
    assert_eq!(
        numbers("8–64 µs, k−1, 4-thread", true),
        ["8", "64", "1", "4"]
    );
    assert_eq!(numbers("[266, 191]", true), ["266", "191"]);
    assert_eq!(numbers("153 158", true), ["153158"]);
    assert_eq!(numbers("153 158", false), ["153", "158"]);
    assert!(exempt("7") && exempt("-1") && exempt("1991"));
    assert!(!exempt("10") && !exempt("2048") && !exempt("1.5"));
}

#[test]
fn a_number_only_in_a_comment_or_off_a_checked_line_is_not_a_source() {
    let rust = "// 47738 runs\nconst RUNS: usize = 12_720; // 2349\nlet x = 1709;\n";
    let t = source_tokens("crates/x/src/lib.rs", rust).unwrap();
    assert!(t.has("12720"));
    assert!(!t.has("47738") && !t.has("2349") && !t.has("1709"));

    let test =
        "    // assert_eq!(runs, 266);\n    assert_eq!(runs, [362, 260]);\n    let n = 191;\n";
    let t = source_tokens("tests/x.rs", test).unwrap();
    assert!(t.has("362") && t.has("260"));
    assert!(!t.has("266") && !t.has("191"));

    let ci = "      # grep runs 2349\n      run: x | grep \"^runs 47738 \"\n      n: 12720\n";
    let t = source_tokens(".github/workflows/ci.yml", ci).unwrap();
    assert!(t.has("47738") && !t.has("2349") && !t.has("12720"));

    let t = source_tokens("BENCH.json", r#"{"a": [1546.7, {"b": 12720}], "c": "99"}"#).unwrap();
    assert!(t.has("1546.7") && t.has("12720") && t.has("12720.0"));
    assert!(!t.has("99") && !t.has("1547"));

    assert!(source_tokens("README.md", "").is_err());
    assert!(source_tokens("tests/golden/fig1.txt", "").is_err());
}

#[test]
fn an_excerpt_must_be_lines_of_its_file_in_order() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut c = Checker {
        root,
        sources: BTreeMap::new(),
        problems: Vec::new(),
    };
    let file = "results/fig1.txt";
    let row8 = "8   580.6   147.8        223.1   254.0   198.4        153.1     131.1            152.5  156.4  162.1";
    let row64 = "64  4518.6  152.9        1617.2  1409.1  649.3        153.4     131.5            153.2  157.9  164.0";
    c.excerpt("doc", 1, file, &[row8, row64]);
    assert!(c.problems.is_empty(), "{:?}", c.problems);
    c.excerpt("doc", 1, file, &[row64, row8]);
    c.excerpt("doc", 1, file, &["8   581"]);
    assert_eq!(c.problems.len(), 2, "{:?}", c.problems);
}

#[test]
fn relative_links_are_found_outside_code_spans() {
    let line = "see [a](DESIGN.md#x), [b](https://e.org), `[c](nowhere)` and [d](results/)";
    assert_eq!(relative_links(&prose(line)), ["DESIGN.md", "results/"]);
}
