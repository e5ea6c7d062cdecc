//! Figure series: named (x, y) sequences rendered as aligned text and CSV.
//!
//! Each R-Figure is one [`SeriesSet`]: a shared x-axis and one y-series
//! per method. `render` prints a readable text block; `to_csv` produces
//! the machine-readable form recorded in EXPERIMENTS.md.

/// One named y-series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// y values, aligned with the owning [`SeriesSet`]'s x values.
    pub values: Vec<f64>,
}

/// A figure: shared x-axis plus one or more series.
#[derive(Debug, Clone)]
pub struct SeriesSet {
    /// Figure caption.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// x values.
    pub x: Vec<f64>,
    /// The series.
    pub series: Vec<Series>,
}

impl SeriesSet {
    /// A new figure with the given x-axis.
    pub fn new(title: &str, x_label: &str, x: Vec<f64>) -> Self {
        SeriesSet { title: title.to_owned(), x_label: x_label.to_owned(), x, series: Vec::new() }
    }

    /// Add a series (must match the x-axis length).
    pub fn add(&mut self, name: &str, values: Vec<f64>) -> &mut Self {
        assert_eq!(values.len(), self.x.len(), "series length must match x-axis");
        self.series.push(Series { name: name.to_owned(), values });
        self
    }

    /// Render as an aligned text block.
    pub fn render(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        let name_w = self
            .series
            .iter()
            .map(|s| s.name.len())
            .chain([self.x_label.len()])
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!("{:<name_w$}", self.x_label));
        for &x in &self.x {
            out.push_str(&format!(" {x:>9.3}"));
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:<name_w$}", s.name));
            for &v in &s.values {
                if v.is_nan() {
                    out.push_str(&format!(" {:>9}", "n/a"));
                } else {
                    out.push_str(&format!(" {v:>9.4}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV: header `x_label,name1,name2,...`, one line per x.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.name.replace(',', ";"));
        }
        out.push('\n');
        for (i, &x) in self.x.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for s in &self.series {
                out.push_str(&format!(",{}", s.values[i]));
            }
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for SeriesSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SeriesSet {
        let mut s = SeriesSet::new("accuracy vs rho", "rho", vec![0.0, 0.1, 0.2]);
        s.add("QRank", vec![0.7, 0.9, 0.8]);
        s.add("PageRank", vec![0.7, 0.7, 0.7]);
        s
    }

    #[test]
    fn render_contains_everything() {
        let text = sample().render();
        assert!(text.contains("accuracy vs rho"));
        assert!(text.contains("QRank"));
        assert!(text.contains("0.9000"));
    }

    #[test]
    fn csv_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "rho,QRank,PageRank");
        assert!(lines[1].starts_with("0,"));
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn mismatched_series_panics() {
        let mut s = SeriesSet::new("t", "x", vec![1.0]);
        s.add("bad", vec![1.0, 2.0]);
    }

    #[test]
    fn nan_rendering() {
        let mut s = SeriesSet::new("t", "x", vec![1.0]);
        s.add("m", vec![f64::NAN]);
        assert!(s.render().contains("n/a"));
    }
}
