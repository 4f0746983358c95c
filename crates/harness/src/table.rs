//! Minimal aligned-table / CSV output for the benchmark reports.

use std::fmt::Write as _;

/// A simple text table: header row plus data rows, printed aligned or as
/// CSV. Every `bench_all` table is one, so the output is uniform and easy
/// to diff against EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; must match the header count.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned, human-readable table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}  ", cell, width = widths[c]);
            }
            out.truncate(out.trim_end().len());
            out.push('\n');
        };
        fmt_row(&mut out, &self.headers);
        let total: usize = widths
            .iter()
            .map(|w| w + 2)
            .sum::<usize>()
            .saturating_sub(2);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders CSV (no quoting: cells are numbers and simple labels).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Prints the aligned rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a Mops/s figure with sensible precision.
pub fn fmt_mops(mops: f64) -> String {
    if mops >= 100.0 {
        format!("{mops:.0}")
    } else if mops >= 10.0 {
        format!("{mops:.1}")
    } else {
        format!("{mops:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["threads", "mops"]);
        t.row(["1", "0.52"]).row(["16", "12.3"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("threads"));
        assert!(lines[2].ends_with("0.52"));
        assert!(lines[3].ends_with("12.3"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new(["a", "b", "c"]);
        t.row(["1", "2", "3"]);
        assert_eq!(t.to_csv(), "a,b,c\n1,2,3\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn mops_formatting_precision() {
        assert_eq!(fmt_mops(123.4), "123");
        assert_eq!(fmt_mops(12.34), "12.3");
        assert_eq!(fmt_mops(1.234), "1.23");
        assert_eq!(fmt_mops(0.056), "0.06");
    }
}
