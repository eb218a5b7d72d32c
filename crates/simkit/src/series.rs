//! Labelled data series, figures and tables.
//!
//! Every experiment in the workspace produces a [`Figure`] (a set of named
//! [`Series`]) or a [`Table`]. Rendering is plain text and CSV — the shapes
//! the paper reports are checked numerically in tests, and the harness
//! prints the same rows/series the paper plots.

use std::fmt::Write as _;

/// One named line on a figure: `(x, y)` points in plot order.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, e.g. `"CTE-Arm"` or `"MareNostrum 4 (C)"`.
    pub label: String,
    /// Data points in plot order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The `y` value at the given `x`, if present (exact match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// Maximum `y` over the series (NaN-free input assumed); None if empty.
    pub fn y_max(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |m: f64| m.max(y))))
    }

    /// Minimum `y` over the series; None if empty.
    pub fn y_min(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|&(_, y)| y)
            .fold(None, |acc, y| Some(acc.map_or(y, |m: f64| m.min(y))))
    }

    /// The `x` of the maximum `y`; None if empty.
    pub fn argmax(&self) -> Option<f64> {
        self.points
            .iter()
            .fold(None, |acc: Option<(f64, f64)>, &(x, y)| match acc {
                Some((_, best)) if best >= y => acc,
                _ => Some((x, y)),
            })
            .map(|(x, _)| x)
    }

    /// True if `y` is non-increasing in plot order (within `tol` slack),
    /// i.e. the series scales (time drops as resources grow).
    pub fn is_non_increasing(&self, tol: f64) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].1 <= w[0].1 * (1.0 + tol))
    }
}

/// A figure: an identifier, axis labels, and a set of series.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier matching the paper, e.g. `"fig2"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// All series on the figure.
    pub series: Vec<Series>,
}

impl Figure {
    /// An empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series and return `self` for chaining.
    pub fn with_series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    /// Find a series by label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as CSV: header `x,<label1>,<label2>,...` with one row per
    /// distinct x (union over series; missing values empty).
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = String::new();
        out.push('x');
        for s in &self.series {
            let _ = write!(out, ",{}", csv_escape(&s.label));
        }
        out.push('\n');
        for &x in &xs {
            let _ = write!(out, "{x}");
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, ",{y}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render a human-readable text block (title, axes, per-series points).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let _ = writeln!(out, "   x: {} | y: {}", self.x_label, self.y_label);
        for s in &self.series {
            let _ = writeln!(out, "   [{}]", s.label);
            for &(x, y) in &s.points {
                let _ = writeln!(out, "     {x:>12.3}  {y:>14.4}");
            }
        }
        out
    }
}

/// A rectangular table with named columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// Identifier matching the paper, e.g. `"table4"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row-major cells (strings; numeric cells pre-formatted by the caller).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given columns.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        columns: Vec<impl Into<String>>,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<impl Into<String>>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Cell lookup by row index and column name.
    pub fn cell(&self, row: usize, column: &str) -> Option<&str> {
        let ci = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row).map(|r| r[ci].as_str())
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|c| csv_escape(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let ncol = self.columns.len();
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let hr: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            (0..ncol)
                .map(|i| format!(" {:<w$} ", cells[i], w = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.columns));
        let _ = writeln!(out, "{hr}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> Series {
        let mut s = Series::new("CTE-Arm");
        s.push(1.0, 10.0);
        s.push(2.0, 6.0);
        s.push(4.0, 3.5);
        s
    }

    #[test]
    fn series_lookup_and_extrema() {
        let s = sample_series();
        assert_eq!(s.y_at(2.0), Some(6.0));
        assert_eq!(s.y_at(3.0), None);
        assert_eq!(s.y_max(), Some(10.0));
        assert_eq!(s.y_min(), Some(3.5));
        assert_eq!(s.argmax(), Some(1.0));
    }

    #[test]
    fn series_monotonicity() {
        let s = sample_series();
        assert!(s.is_non_increasing(0.0));
        let mut bad = sample_series();
        bad.push(8.0, 9.0);
        assert!(!bad.is_non_increasing(0.05));
        // With enough slack even the bump passes.
        assert!(bad.is_non_increasing(2.0));
    }

    #[test]
    fn empty_series_extrema_are_none() {
        let s = Series::new("empty");
        assert_eq!(s.y_max(), None);
        assert_eq!(s.y_min(), None);
        assert_eq!(s.argmax(), None);
    }

    #[test]
    fn figure_csv_merges_x_values() {
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        a.push(2.0, 2.0);
        let mut b = Series::new("b");
        b.push(2.0, 20.0);
        b.push(3.0, 30.0);
        let fig = Figure::new("f", "t", "x", "y")
            .with_series(a)
            .with_series(b);
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "1,1,");
        assert_eq!(lines[2], "2,2,20");
        assert_eq!(lines[3], "3,,30");
    }

    #[test]
    fn figure_series_named() {
        let fig = Figure::new("f", "t", "x", "y").with_series(sample_series());
        assert!(fig.series_named("CTE-Arm").is_some());
        assert!(fig.series_named("nope").is_none());
    }

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("t1", "demo", vec!["name", "value"]);
        t.push_row(vec!["alpha", "1"]);
        t.push_row(vec!["beta, the second", "2"]);
        assert_eq!(t.cell(0, "value"), Some("1"));
        assert_eq!(t.cell(1, "name"), Some("beta, the second"));
        assert_eq!(t.cell(2, "name"), None);
        assert_eq!(t.cell(0, "missing"), None);
        let csv = t.to_csv();
        assert!(csv.contains("\"beta, the second\""));
        let text = t.to_text();
        assert!(text.contains("alpha"));
        assert!(text.contains('|'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        let mut t = Table::new("t", "demo", vec!["a", "b"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
