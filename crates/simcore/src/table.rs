//! Plain-text table rendering.
//!
//! Every table and figure of the evaluation prints as an aligned text
//! table, the way the paper's tables read. It comes from [`Table`].

use std::fmt::Write as _;

/// A simple column-aligned table.
///
/// # Examples
///
/// ```
/// use simcore::Table;
/// let mut t = Table::new(&["lock", "P=1", "P=8"]);
/// t.row_owned(vec!["mcs".into(), "31".into(), "44".into()]);
/// t.row_owned(vec!["tas".into(), "25".into(), "310".into()]);
/// let text = t.render();
/// assert!(text.contains("mcs"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row of pre-formatted cells. Short rows are padded with
    /// empty cells; long rows extend the column count.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    fn column_count(&self) -> usize {
        self.rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0)
    }

    /// Renders the aligned text form, ending with a newline.
    pub fn render(&self) -> String {
        let cols = self.column_count();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, &w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == cols {
                    let _ = write!(out, "{cell}");
                } else {
                    let _ = write!(out, "{cell:<w$}  ");
                }
            }
            let _ = writeln!(out);
        };
        render_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with a sensible number of digits for table cells:
/// integers print without a fraction; everything else gets two decimals.
pub fn fmt_cell(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row_owned(vec!["a".into(), "1".into()]);
        t.row_owned(vec!["longer-name".into(), "22".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Header and both rows start the second column at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].find('1').unwrap(), col);
        assert_eq!(lines[3].find("22").unwrap(), col);
    }

    #[test]
    fn title_precedes_header() {
        let t = Table::new(&["x"]).with_title("Table 1: latencies");
        assert!(t.render().starts_with("Table 1: latencies\n"));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row_owned(vec!["1".into()]);
        t.row_owned(vec!["1".into(), "2".into(), "3".into(), "4".into()]);
        let text = t.render();
        assert!(text.contains('4'));
    }

    #[test]
    fn fmt_cell_shapes() {
        assert_eq!(fmt_cell(3.0), "3");
        assert_eq!(fmt_cell(3.25), "3.25");
        assert_eq!(fmt_cell(1234.567), "1234.6");
        assert_eq!(fmt_cell(-2.0), "-2");
    }
}
