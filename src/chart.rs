//! Terminal chart rendering.
//!
//! The experiments reproduce *figures*; these helpers let their reports
//! draw the figures too, as ASCII plots: an XY line/scatter chart for the
//! Figure 2/3 CCDFs and a stacked horizontal share bar for the Figure 6
//! topic timelines. Pure string construction — trivially testable.

/// Render an XY curve as an ASCII chart of `width × height` characters
/// (plus axes). Points are `(x, y)`; both axes are scaled linearly unless
/// `log_x` is set (log₁₀, requires positive x values).
pub fn line_chart(points: &[(f64, f64)], width: usize, height: usize, log_x: bool) -> String {
    if points.is_empty() || width < 2 || height < 2 {
        return String::from("(no data)\n");
    }
    let tx = |x: f64| if log_x { x.max(1e-12).log10() } else { x };
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        let x = tx(x);
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    if (max_x - min_x).abs() < 1e-12 {
        max_x = min_x + 1.0;
    }
    if (max_y - min_y).abs() < 1e-12 {
        max_y = min_y + 1.0;
    }

    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in points {
        let cx = (((tx(x) - min_x) / (max_x - min_x)) * (width - 1) as f64).round() as usize;
        let cy = (((y - min_y) / (max_y - min_y)) * (height - 1) as f64).round() as usize;
        let row = height - 1 - cy.min(height - 1);
        grid[row][cx.min(width - 1)] = b'*';
    }

    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{max_y:>8.2} ")
        } else if r == height - 1 {
            format!("{min_y:>8.2} ")
        } else {
            " ".repeat(9)
        };
        out.push_str(&label);
        out.push('|');
        out.push_str(std::str::from_utf8(row).expect("ascii grid"));
        out.push('\n');
    }
    out.push_str(&" ".repeat(9));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    let x_lo = if log_x {
        format!("10^{min_x:.1}")
    } else {
        format!("{min_x:.0}")
    };
    let x_hi = if log_x {
        format!("10^{max_x:.1}")
    } else {
        format!("{max_x:.0}")
    };
    out.push_str(&format!(
        "{}{}{}\n",
        " ".repeat(10),
        x_lo,
        format_args!("{x_hi:>width$}", width = width.saturating_sub(x_lo.len()))
    ));
    out
}

/// Render shares (values summing to ~any total) as one stacked horizontal
/// bar of `width` cells, each segment drawn with its label's first letter.
/// Segments under half a cell are dropped.
pub fn stacked_bar(shares: &[(String, f64)], width: usize) -> String {
    let total: f64 = shares.iter().map(|(_, v)| v.max(0.0)).sum();
    if total <= 0.0 || width == 0 {
        return String::from("(empty)");
    }
    let mut out = String::with_capacity(width);
    let mut used = 0usize;
    for (label, v) in shares {
        let cells = ((v.max(0.0) / total) * width as f64).round() as usize;
        let cells = cells.min(width - used);
        if cells == 0 {
            continue;
        }
        let ch = label.chars().next().unwrap_or('?');
        out.extend(std::iter::repeat_n(ch, cells));
        used += cells;
        if used >= width {
            break;
        }
    }
    out.extend(std::iter::repeat_n('.', width - used));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_has_expected_geometry() {
        let pts: Vec<(f64, f64)> = (1..=100).map(|i| (i as f64, 1.0 / i as f64)).collect();
        let chart = line_chart(&pts, 40, 10, true);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 12, "10 rows + axis + x labels");
        assert!(
            lines[0].contains('*') || lines[1].contains('*'),
            "max is plotted near the top"
        );
        assert!(chart.contains("1.00"), "y max label");
        assert!(chart.contains("10^"), "log x labels");
    }

    #[test]
    fn monotone_curve_descends_left_to_right() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, 50.0 - i as f64)).collect();
        let chart = line_chart(&pts, 50, 8, false);
        // First star in the top row must be left of the first star in the
        // bottom row.
        let lines: Vec<&str> = chart.lines().collect();
        let top = lines[0].find('*').expect("top row has the max");
        let bottom = lines[7].find('*').expect("bottom row has the min");
        assert!(top < bottom);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        assert_eq!(line_chart(&[], 40, 10, false), "(no data)\n");
        let _ = line_chart(&[(1.0, 1.0)], 40, 10, true);
        let _ = line_chart(&[(0.0, 0.0), (0.0, 0.0)], 2, 2, false);
    }

    #[test]
    fn stacked_bar_is_proportional_and_fixed_width() {
        let shares = vec![
            ("Online".to_string(), 50.0),
            ("Travel".to_string(), 25.0),
            ("Games".to_string(), 25.0),
        ];
        let bar = stacked_bar(&shares, 40);
        assert_eq!(bar.chars().count(), 40);
        let o = bar.chars().filter(|&c| c == 'O').count();
        let t = bar.chars().filter(|&c| c == 'T').count();
        assert!((o as i64 - 20).abs() <= 1, "O cells {o}");
        assert!((t as i64 - 10).abs() <= 1, "T cells {t}");
    }

    #[test]
    fn stacked_bar_handles_empty() {
        assert_eq!(stacked_bar(&[], 10), "(empty)");
        assert_eq!(stacked_bar(&[("x".to_string(), 0.0)], 10), "(empty)");
    }
}
