//! Labeled data series — the in-memory form of a figure.
//!
//! A [`Series`] is a set of named curves sharing an x-axis (for the scaling
//! figures: x = processor count, one curve per lock algorithm). The figures
//! build a `Series`, then render it as a table and compute scaling fits
//! for EXPERIMENTS.md.

use crate::stats::{power_fit, LinearFit};
use crate::table::{fmt_cell, Table};
use std::collections::BTreeMap;

/// A set of named curves over a shared x-axis.
#[derive(Debug, Clone, Default)]
pub struct Series {
    x_label: String,
    y_label: String,
    /// curve name → (x → y). BTreeMaps keep output deterministic.
    curves: BTreeMap<String, BTreeMap<u64, f64>>,
    /// Insertion order of curve names, so tables list algorithms in the
    /// order the experiment defined them rather than alphabetically.
    order: Vec<String>,
}

impl Series {
    /// Creates an empty series with axis labels.
    pub fn new(x_label: impl Into<String>, y_label: impl Into<String>) -> Self {
        Series {
            x_label: x_label.into(),
            y_label: y_label.into(),
            curves: BTreeMap::new(),
            order: Vec::new(),
        }
    }

    /// Adds one `(x, y)` point to the named curve, creating the curve on
    /// first use. A repeated x overwrites the previous y.
    pub fn push(&mut self, curve: &str, x: u64, y: f64) {
        if !self.curves.contains_key(curve) {
            self.order.push(curve.to_string());
        }
        self.curves
            .entry(curve.to_string())
            .or_default()
            .insert(x, y);
    }

    /// All x values present in any curve, ascending.
    pub fn xs(&self) -> Vec<u64> {
        let mut xs: Vec<u64> = self
            .curves
            .values()
            .flat_map(|c| c.keys().copied())
            .collect();
        xs.sort_unstable();
        xs.dedup();
        xs
    }

    /// Curve names in insertion order.
    pub fn curve_names(&self) -> &[String] {
        &self.order
    }

    /// Looks up a point.
    pub fn get(&self, curve: &str, x: u64) -> Option<f64> {
        self.curves.get(curve)?.get(&x).copied()
    }

    /// The points of one curve, ascending in x.
    pub(crate) fn points(&self, curve: &str) -> Vec<(f64, f64)> {
        self.curves
            .get(curve)
            .map(|c| c.iter().map(|(&x, &y)| (x as f64, y)).collect())
            .unwrap_or_default()
    }

    /// Log–log power-law fit of one curve (`y ~ x^e`); the scaling exponent
    /// the era's papers argue about. `None` if the curve has < 2 usable points.
    pub fn scaling_exponent(&self, curve: &str) -> Option<LinearFit> {
        power_fit(&self.points(curve))
    }

    /// Renders as a table: one row per x, one column per curve.
    pub fn to_table(&self, title: &str) -> Table {
        let mut header: Vec<&str> = vec![self.x_label.as_str()];
        header.extend(self.order.iter().map(String::as_str));
        let mut t = Table::new(&header).with_title(format!("{title}  [{}]", self.y_label));
        for x in self.xs() {
            let mut cells = vec![x.to_string()];
            for name in &self.order {
                cells.push(
                    self.get(name, x)
                        .map(fmt_cell)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            t.row_owned(cells);
        }
        t
    }

    /// Ratio between two curves at the largest shared x — "who wins, by what
    /// factor" at scale, the headline comparison of the reproduction.
    pub fn final_ratio(&self, numerator: &str, denominator: &str) -> Option<f64> {
        let xs_num = self.curves.get(numerator)?;
        let xs_den = self.curves.get(denominator)?;
        let shared = xs_num.keys().rev().find(|x| xs_den.contains_key(x))?;
        let d = xs_den[shared];
        if d == 0.0 {
            None
        } else {
            Some(xs_num[shared] / d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Series {
        let mut s = Series::new("P", "cycles");
        for p in [1u64, 2, 4, 8] {
            s.push("tas", p, 10.0 * p as f64);
            s.push("mcs", p, 40.0);
        }
        s
    }

    #[test]
    fn xs_are_sorted_and_deduped() {
        let s = sample();
        assert_eq!(s.xs(), vec![1, 2, 4, 8]);
    }

    #[test]
    fn insertion_order_preserved() {
        let s = sample();
        assert_eq!(s.curve_names(), &["tas".to_string(), "mcs".to_string()]);
    }

    #[test]
    fn get_and_overwrite() {
        let mut s = sample();
        assert_eq!(s.get("tas", 4), Some(40.0));
        s.push("tas", 4, 99.0);
        assert_eq!(s.get("tas", 4), Some(99.0));
        assert_eq!(s.get("nope", 4), None);
    }

    #[test]
    fn scaling_exponent_separates_flat_from_linear() {
        let s = sample();
        let tas = s.scaling_exponent("tas").unwrap();
        let mcs = s.scaling_exponent("mcs").unwrap();
        assert!((tas.slope - 1.0).abs() < 1e-9);
        assert!(mcs.slope.abs() < 1e-9);
    }

    #[test]
    fn table_has_row_per_x() {
        let s = sample();
        let t = s.to_table("fig1");
        let text = t.render();
        // Title, header and rule, then one row per x.
        assert_eq!(text.lines().count(), 3 + 4);
        assert!(text.contains("fig1"));
        assert!(text.contains("cycles"));
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut s = sample();
        s.push("partial", 8, 1.0);
        let text = s.to_table("t").render();
        assert!(text.contains('-'));
    }

    #[test]
    fn final_ratio_uses_largest_shared_x() {
        let s = sample();
        // tas(8)=80, mcs(8)=40.
        assert_eq!(s.final_ratio("tas", "mcs"), Some(2.0));
        assert_eq!(s.final_ratio("tas", "nope"), None);
    }

    #[test]
    fn final_ratio_zero_denominator() {
        let mut s = Series::new("P", "y");
        s.push("a", 1, 1.0);
        s.push("b", 1, 0.0);
        assert_eq!(s.final_ratio("a", "b"), None);
    }
}
