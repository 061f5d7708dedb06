//! Plain-text and CSV rendering of result tables, in the style of the
//! paper's Tables 1–12.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title (e.g. `"Table 1: Random Routing, 1 packet"`)
    /// and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Cell accessor (row-major), `None` if out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }

    /// Render as an aligned plain-text table.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let rule: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        let _ = writeln!(out, "{}", "-".repeat(rule));
        let fmt_row = |cells: &[String], out: &mut String| {
            out.push('|');
            for (w, cell) in widths.iter().zip(cells) {
                let _ = write!(out, " {cell:>w$} |");
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &mut out);
        let _ = writeln!(out, "{}", "-".repeat(rule));
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }

    /// Render as CSV (RFC-4180-ish; cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        fn csv(cell: &str) -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|c| csv(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| csv(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Format a float the way the paper prints latencies (two decimals,
/// trailing zeros kept: `21` prints as `21.00`).
pub fn fmt2(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_aligns() {
        let mut t = Table::new("Table X", &["n", "N", "L_avg"]);
        t.push_row(vec!["10".into(), "1024".into(), "10.96".into()]);
        t.push_row(vec!["14".into(), "16384".into(), "15.04".into()]);
        let s = t.to_text();
        assert!(s.starts_with("Table X\n"));
        assert!(s.contains("| 10 |  1024 | 10.96 |"));
        assert!(s.contains("| 14 | 16384 | 15.04 |"));
    }

    #[test]
    fn csv_rendering_escapes() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",plain\n");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_checked() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn accessors() {
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["7".into()]);
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.cell(0, 0), Some("7"));
        assert_eq!(t.cell(1, 0), None);
        assert_eq!(fmt2(21.0), "21.00");
    }
}
