//! ASCII plots — the controller "generates graphs summarizing the figures
//! of merit" (§4.3); ours render in the terminal.

use std::fmt::Write as _;

/// A named series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    pub(crate) name: String,
    pub(crate) points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series { name: name.into(), points }
    }
}

/// Render one or more series as an ASCII scatter/line chart.
/// Each series gets a marker (`*`, `o`, `+`, `x`, …).
pub fn line_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    const MARKERS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let all: Vec<(f64, f64)> = series.iter().flat_map(|s| s.points.iter().copied()).collect();
    if all.is_empty() || width < 8 || height < 3 {
        return format!("{title}\n(no data)\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-300 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-300 {
        ymax = ymin + 1.0;
    }
    // A little headroom on y.
    let ypad = (ymax - ymin) * 0.05;
    let (ymin, ymax) = (ymin - ypad, ymax + ypad);

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let m = MARKERS[si % MARKERS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = m;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "y: {ymin:.4} .. {ymax:.4}");
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let _ = writeln!(out, " x: {xmin:.4} .. {xmax:.4}");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} = {}", MARKERS[si % MARKERS.len()], s.name);
    }
    out
}

/// Render labelled values as a horizontal bar chart (values >= 0).
pub(crate) fn bar_chart(title: &str, bars: &[(String, f64)], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if bars.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let maxv = bars.iter().map(|(_, v)| *v).fold(0.0f64, f64::max).max(1e-300);
    let label_w = bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, v) in bars {
        let n = ((v / maxv) * width as f64).round() as usize;
        let _ = writeln!(out, "{label:<label_w$} | {:<width$} {v:.4}", "█".repeat(n.min(width)),);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_marks_extremes() {
        let s = Series::new("a", vec![(0.0, 0.0), (1.0, 1.0)]);
        let out = line_chart("t", &[s], 20, 5);
        assert!(out.contains("t\n"));
        assert!(out.contains('*'));
        assert!(out.contains("= a"));
        // Two points on opposite corners.
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(rows.len(), 5);
        assert!(rows[0].contains('*'), "top row has max point");
        assert!(rows[4].contains('*'), "bottom row has min point");
    }

    #[test]
    fn multiple_series_distinct_markers() {
        let a = Series::new("a", vec![(0.0, 0.0)]);
        let b = Series::new("b", vec![(1.0, 1.0)]);
        let out = line_chart("t", &[a, b], 20, 5);
        assert!(out.contains('*') && out.contains('o'));
    }

    #[test]
    fn empty_chart() {
        assert!(line_chart("t", &[], 20, 5).contains("no data"));
    }

    #[test]
    fn degenerate_ranges_no_panic() {
        let s = Series::new("a", vec![(2.0, 3.0), (2.0, 3.0)]);
        let out = line_chart("t", &[s], 10, 4);
        assert!(out.contains('*'));
    }

    #[test]
    fn bar_chart_scales() {
        let bars = vec![("one".to_string(), 1.0), ("two".to_string(), 2.0)];
        let out = bar_chart("bars", &bars, 10);
        let one_len = out.lines().find(|l| l.starts_with("one")).unwrap().matches('█').count();
        let two_len = out.lines().find(|l| l.starts_with("two")).unwrap().matches('█').count();
        assert_eq!(two_len, 10);
        assert_eq!(one_len, 5);
    }
}
