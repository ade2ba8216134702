//! Comparing two result sets of the benchmark, row by row.
//!
//! A row is one end-to-end metric on one workload. Its verdict follows the
//! rule the repo's guides fix: a change counts only beyond the bound the
//! benchmark set for the metric, and when the runs of either set scatter
//! wider than that bound the row is unresolved, not unchanged.

use crate::json::{self, Value};
use crate::run::Outcome;
use crate::spec::{Better, END_TO_END, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One compared row: both sets' median and quartiles, the ratio of the
/// medians with set A as its base, the wider of the two spreads, and the
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub quartiles_a: (f64, f64),
    pub median_b: f64,
    pub quartiles_b: (f64, f64),
    pub ratio: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges set `b` against set `a` for a metric whose regression bound is
/// `bound` (a share of `a`'s median).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let ratio = if median_a == 0.0 {
        1.0
    } else {
        median_b / median_a
    };
    let spread = stats::spread(a).max(stats::spread(b));
    // Positive when `b` is worse, as a share of `a`'s median.
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Row {
        median_a,
        quartiles_a: stats::quartiles(a),
        median_b,
        quartiles_b: stats::quartiles(b),
        ratio,
        spread,
        verdict,
    }
}

/// `(workload, metric) -> values`, one value per untraced run in the file.
pub type Table = BTreeMap<(String, String), Vec<f64>>;

/// Reads the untraced runs out of a result file written by the benchmark.
pub fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut table = Table::new();
    for run in runs {
        if run.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run lacks its workload"))?;
        let outcome = Outcome::from_json(
            run.get("result")
                .ok_or_else(|| format!("{path}: a run lacks its result"))?,
        )
        .map_err(|e| format!("{path}: {e}"))?;
        for (metric, value, _) in outcome.metrics {
            table
                .entry((workload.to_string(), metric))
                .or_default()
                .push(value);
        }
    }
    Ok(table)
}

/// `metric -> bound` from `BENCHMARK.json`.
pub fn load_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"end_to_end\" array"))?
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str);
            let bound = e.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| format!("{path}: an end-to-end metric lacks its name or bound"))
        })
        .collect()
}

/// Prints every row of `b` against `a` and returns the verdicts met.
pub fn report(a: &Table, b: &Table, bounds: &BTreeMap<String, f64>) -> Vec<Verdict> {
    println!(
        "{:<15} {:<14} {:<7} {:>13} {:>25} {:>13} {:>25} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "better",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B/A",
        "spread",
        "bound"
    );
    let mut verdicts = Vec::new();
    for w in &WORKLOADS {
        for spec in &END_TO_END {
            let key = (w.name.to_string(), spec.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = bounds.get(spec.name).copied().unwrap_or(0.10);
            let row = judge(va, vb, spec.better, bound);
            println!(
                "{:<15} {:<14} {:<7} {:>13.4} {:>25} {:>13.4} {:>25} {:>8.4} {:>7.4} {:>6.2}  {} (n={}+{}, base A)",
                w.name,
                spec.name,
                spec.better.label(),
                row.median_a,
                format!("[{:.4}, {:.4}]", row.quartiles_a.0, row.quartiles_a.1),
                row.median_b,
                format!("[{:.4}, {:.4}]", row.quartiles_b.0, row.quartiles_b.1),
                row.ratio,
                row.spread,
                bound,
                row.verdict.label(),
                va.len(),
                vb.len(),
            );
            verdicts.push(row.verdict);
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, rel_step: f64) -> Vec<f64> {
        (-2..=2)
            .map(|i| center * (1.0 + f64::from(i) * rel_step))
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_sets() {
        let base = around(100.0, 0.01);
        // Within the bound either way.
        assert_eq!(
            judge(&base, &around(105.0, 0.01), Better::Lower, 0.10).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&base, &around(95.0, 0.01), Better::Higher, 0.10).verdict,
            Verdict::Unchanged
        );
        // Beyond it, direction decides.
        assert_eq!(
            judge(&base, &around(120.0, 0.01), Better::Lower, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&base, &around(120.0, 0.01), Better::Higher, 0.10).verdict,
            Verdict::Improved
        );
        assert_eq!(
            judge(&base, &around(80.0, 0.01), Better::Lower, 0.10).verdict,
            Verdict::Improved
        );
        assert_eq!(
            judge(&base, &around(80.0, 0.01), Better::Higher, 0.10).verdict,
            Verdict::Regressed
        );
        // Scatter wider than the bound hides everything, even a real shift.
        assert_eq!(
            judge(
                &around(100.0, 0.08),
                &around(150.0, 0.01),
                Better::Lower,
                0.10
            )
            .verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&base, &around(100.0, 0.08), Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn ratio_has_set_a_as_its_base() {
        let row = judge(&[200.0], &[150.0], Better::Lower, 0.10);
        assert_eq!(row.ratio, 0.75);
        assert_eq!(row.spread, 0.0);
        assert_eq!(row.quartiles_a, (200.0, 200.0));
        assert_eq!(row.verdict, Verdict::Improved);
    }
}
