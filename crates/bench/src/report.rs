//! Plain-text tables and verdict lines for harness output.

use std::fmt::{self, Write};

/// A simple aligned-column table printer.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; shorter rows are padded with blanks.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        while cells.len() < self.headers.len() {
            cells.push(String::new());
        }
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().take(ncols).enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().take(widths.len()).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Writes one `shape check (claim): HOLDS/VIOLATED` line, a harness's
/// verdict on one of the paper's qualitative claims.
pub fn shape_check(out: &mut String, claim: &str, holds: bool) -> fmt::Result {
    writeln!(out, "shape check ({claim}): {}", if holds { "HOLDS" } else { "VIOLATED" })
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
        // All data lines align the second column.
        let col = lines[2].find('1').unwrap();
        assert_eq!(lines[3].find("12345").unwrap(), col);
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn shape_check_writes_one_verdict_line() {
        let mut out = String::new();
        shape_check(&mut out, "a", true).unwrap();
        shape_check(&mut out, "b", false).unwrap();
        assert_eq!(out, "shape check (a): HOLDS\nshape check (b): VIOLATED\n");
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(f3(1.2345), "1.234");
        assert_eq!(pct(0.3333), "33%");
    }
}
