//! Plain-text table rendering for the repro harness and examples.

/// A simple column-aligned ASCII table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a caption and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("== {} ==\n", self.title));
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                // Left-align the first column (method names), right-align
                // numeric columns.
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Format a metric that may be NaN.
pub fn fmt_metric(v: f64) -> String {
    if v.is_nan() {
        "n/a".into()
    } else {
        format!("{v:.4}")
    }
}

/// Format a duration in seconds adaptively.
pub fn fmt_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.0}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["method", "acc"]);
        t.row(vec!["PageRank".into(), "0.91".into()]);
        t.row(vec!["CC".into(), "0.8".into()]);
        let text = t.render();
        assert!(text.contains("== demo =="));
        assert!(text.contains("method"));
        let lines: Vec<&str> = text.lines().collect();
        // header + separator + 2 rows + title
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_enforced() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn metric_formatting() {
        assert_eq!(fmt_metric(f64::NAN), "n/a");
        assert_eq!(fmt_metric(0.91237), "0.9124");
        assert_eq!(fmt_seconds(0.000002), "2µs");
        assert_eq!(fmt_seconds(0.25), "250.0ms");
        assert_eq!(fmt_seconds(2.5), "2.50s");
    }

    #[test]
    fn display_impl() {
        let t = Table::new("t", &["h"]);
        assert!(format!("{t}").contains("h"));
    }
}
