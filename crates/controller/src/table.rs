//! Aligned text tables for experiment reports.

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        debug_assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Left-align the first column, right-align the rest
                // (numbers read better right-aligned).
                if i == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[i]));
                } else {
                    line.push_str(&format!("{:>width$}", cell, width = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
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

    /// Render as CSV (RFC-4180-ish: quotes around cells containing commas
    /// or quotes).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Render as a JSON array of row objects keyed by the header. Cells
    /// that parse as finite numbers are emitted as JSON numbers, everything
    /// else as strings — so downstream tooling can consume figures without
    /// a CSV parser.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        };
        let value = |s: &str| -> String {
            match s.parse::<f64>() {
                // `parse` accepts "nan"/"inf"; JSON has no spelling for
                // them, so only finite numbers pass through unquoted.
                Ok(v) if v.is_finite() => s.to_string(),
                _ => esc(s),
            }
        };
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("  { ");
            for (j, (h, cell)) in self.header.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", esc(h), value(cell)));
            }
            out.push_str(if i + 1 < self.rows.len() { " },\n" } else { " }\n" });
        }
        out.push(']');
        out
    }
}

/// Format a float with 4 significant decimals, trimming noise.
pub(crate) fn f(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha".into(), "1.0".into()]);
        t.row(&["b".into(), "123.456".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        // Right-aligned value column: both rows end at the same column.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn json_rows() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["alpha \"x\"".into(), "1.5".into()]);
        t.row(&["beta".into(), "n/a".into()]);
        let j = t.to_json();
        assert!(j.contains("\"name\": \"alpha \\\"x\\\"\", \"value\": 1.5"));
        assert!(j.contains("\"value\": \"n/a\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // "nan"/"inf" parse as f64 but must stay strings.
        let mut t = Table::new(&["v"]);
        t.row(&["nan".into()]);
        assert!(t.to_json().contains("\"v\": \"nan\""));
    }

    #[test]
    fn float_helpers() {
        assert_eq!(f(0.12345), "0.1235");
    }
}
