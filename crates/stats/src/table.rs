//! Plain-text table rendering for the experiment harness.
//!
//! The harness's job is to print "the same rows the paper reports"; this
//! module renders aligned text tables (for humans) and CSV (for plotting).

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:width$}", cell, width = widths[i]);
            }
            // Trim trailing spaces for clean diffs.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Render as CSV, quoting per RFC 4180: a cell containing a comma, a
    /// double quote or a line break is wrapped in double quotes, with inner
    /// quotes doubled (the FCT bin label `[1KB,10KB]` is such a cell).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n', '\r']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Format seconds as adaptive human units (ms below 1 s).
pub fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "-".to_string()
    } else if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.3}s", s)
    }
}

/// Format a ratio to a baseline with 2 decimals ("0.27x").
pub fn fmt_ratio(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.2}x")
    } else {
        "-".to_string()
    }
}

/// Format a rate in Gbps.
pub fn fmt_gbps(bps: f64) -> String {
    format!("{:.2}Gbps", bps / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["scheme", "mean", "p99"]);
        t.row(vec!["ECMP", "1.00x", "1.00x"]);
        t.row(vec!["FlowBender", "0.27x", "0.07x"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("scheme"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("FlowBender"));
        // Columns align: "mean" starts at the same offset in each row.
        let col = lines[0].find("mean").unwrap();
        assert_eq!(&lines[2][col..col + 5], "1.00x");
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn csv_quotes_cells_that_need_it() {
        let mut t = Table::new(vec!["bin", "mean"]);
        for bin in crate::fct::PAPER_BINS {
            t.row(vec![bin.label.to_string(), "1.0".to_string()]);
        }
        t.row(vec!["say \"hi\"", "a\nb"]);
        assert_eq!(
            t.to_csv(),
            "bin,mean\n\"[1KB,10KB]\",1.0\n\"(10KB,128KB]\",1.0\n\"(128KB,1MB]\",1.0\n\
             >1MB,1.0\n\"say \"\"hi\"\"\",\"a\nb\"\n"
        );
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        Table::new(vec!["a", "b"]).row(vec!["only one"]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.0), "-");
        assert_eq!(fmt_secs(50e-6), "50.0us");
        assert_eq!(fmt_secs(0.0123), "12.30ms");
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_ratio(0.266), "0.27x");
        assert_eq!(fmt_ratio(f64::NAN), "-");
        assert_eq!(fmt_gbps(9.5e9), "9.50Gbps");
    }
}
