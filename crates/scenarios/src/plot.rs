//! Terminal plotting: renders the figures' time series as ASCII line
//! charts so `reproduce` output can be eyeballed against the paper's
//! plots without leaving the terminal.

use aria_sim::TimeSeries;
use std::fmt::Write as _;

/// Symbols assigned to series, in order.
const MARKS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];

/// Renders labelled series as an ASCII chart of the given size.
///
/// The y-axis is scaled to the global minimum/maximum across all series;
/// the x-axis covers the longest series. Later series overdraw earlier
/// ones where they collide. Returns an empty string if nothing has data.
///
/// # Example
///
/// ```
/// use aria_scenarios::plot::ascii_chart;
/// use aria_sim::{SimDuration, TimeSeries};
///
/// let mut rising = TimeSeries::new(SimDuration::from_mins(1));
/// for i in 0..60 {
///     rising.push(i as f64);
/// }
/// let chart = ascii_chart(&[("rising", &rising)], 40, 10);
/// assert!(chart.contains("rising"));
/// assert!(chart.contains('*'));
/// ```
pub fn ascii_chart(series: &[(&str, &TimeSeries)], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(4);
    let columns = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    if columns == 0 || series.is_empty() {
        return String::new();
    }

    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, s) in series {
        for &v in s.values() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if !lo.is_finite() || !hi.is_finite() {
        return String::new();
    }
    if hi - lo < 1e-12 {
        hi = lo + 1.0; // flat lines still render
    }

    let mut grid = vec![vec![' '; width]; height];
    for (index, (_, s)) in series.iter().enumerate() {
        let mark = MARKS[index % MARKS.len()];
        #[allow(clippy::needless_range_loop, reason = "col indexes two parallel structures")]
        for col in 0..width {
            // Sample the series at this column (nearest index).
            let i = col * columns.saturating_sub(1) / width.saturating_sub(1).max(1);
            let Some(&v) = s.values().get(i) else { continue };
            #[expect(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                reason = "plot bucket index, clamped on the next line"
            )]
            let row = ((v - lo) / (hi - lo) * (height - 1) as f64).round() as usize;
            let row = height - 1 - row.min(height - 1);
            grid[row][col] = mark;
        }
    }

    let label_width = 8;
    let mut out = String::new();
    for (row_index, row) in grid.iter().enumerate() {
        let label = if row_index == 0 {
            format!("{hi:>label_width$.0}")
        } else if row_index == height - 1 {
            format!("{lo:>label_width$.0}")
        } else {
            " ".repeat(label_width)
        };
        let _ = writeln!(out, "{label} |{}", row.iter().collect::<String>());
    }
    // x-axis with the time extent.
    let _ = writeln!(out, "{} +{}", " ".repeat(label_width), "-".repeat(width));
    let last_time = series
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(_, s)| s.time_at(s.len() - 1))
        .max()
        .expect("non-empty chart has a last sample");
    let _ = writeln!(
        out,
        "{}  0h{}{}",
        " ".repeat(label_width),
        " ".repeat(width.saturating_sub(last_time.to_string().len() + 3)),
        last_time,
    );
    // Legend.
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {name}", MARKS[i % MARKS.len()]))
        .collect();
    let _ = writeln!(out, "{}  {}", " ".repeat(label_width), legend.join("   "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_sim::SimDuration;

    fn series(values: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new(SimDuration::from_mins(30));
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn empty_input_renders_nothing() {
        assert_eq!(ascii_chart(&[], 40, 10), "");
        let empty = TimeSeries::new(SimDuration::from_mins(1));
        assert_eq!(ascii_chart(&[("e", &empty)], 40, 10), "");
    }

    #[test]
    fn chart_contains_axis_extremes_and_legend() {
        let s = series(&[0.0, 250.0, 500.0]);
        let chart = ascii_chart(&[("jobs", &s)], 40, 10);
        assert!(chart.contains("500"), "{chart}");
        assert!(chart.contains("0 |") || chart.contains("       0 |"), "{chart}");
        assert!(chart.contains("* jobs"), "{chart}");
        assert!(chart.contains("1h00m00s"), "{chart}");
    }

    #[test]
    fn rising_series_touches_top_right_and_bottom_left() {
        let s = series(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let chart = ascii_chart(&[("r", &s)], 50, 12);
        let rows: Vec<&str> = chart.lines().collect();
        // Top row (index 0) has a mark near the right edge.
        assert!(rows[0].trim_end().ends_with('*'), "{chart}");
        // Bottom plot row (height-1 = index 11) has a mark near the left.
        let bottom = rows[11];
        let first_mark = bottom.find('*').expect("bottom row has a mark");
        assert!(first_mark < 15, "{chart}");
    }

    #[test]
    fn two_series_use_distinct_marks() {
        let a = series(&[0.0, 1.0, 2.0]);
        let b = series(&[2.0, 1.0, 0.0]);
        let chart = ascii_chart(&[("up", &a), ("down", &b)], 30, 8);
        assert!(chart.contains('*') && chart.contains('o'), "{chart}");
        assert!(chart.contains("* up") && chart.contains("o down"), "{chart}");
    }

    #[test]
    fn flat_series_renders_without_dividing_by_zero() {
        let s = series(&[5.0, 5.0, 5.0]);
        let chart = ascii_chart(&[("flat", &s)], 30, 6);
        assert!(chart.contains('*'), "{chart}");
    }

    #[test]
    fn tiny_dimensions_are_clamped() {
        let s = series(&[1.0, 2.0]);
        let chart = ascii_chart(&[("t", &s)], 1, 1);
        assert!(chart.lines().count() >= 4 + 3, "{chart}");
    }
}
