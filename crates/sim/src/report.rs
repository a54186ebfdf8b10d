//! Plain-text rendering of the paper's figures: each figure is a table of
//! benchmark rows × scheme series, printed with aligned columns so the
//! bench binaries' output reads like the paper's bar charts.

use std::fmt::Write as _;

use waymem_hwmodel::PowerBreakdown;

/// One row of a figure: a benchmark label plus one value per series.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Row label (benchmark name).
    pub label: String,
    /// `(series name, value)` pairs, one per scheme.
    pub values: Vec<(String, f64)>,
}

/// Formats rows of per-scheme ratios (tags/access, ways/access…) as an
/// aligned table with a title line.
///
/// ```
/// use waymem_sim::{format_ratio_table, FigureRow};
///
/// let rows = vec![FigureRow {
///     label: "DCT".into(),
///     values: vec![("original".into(), 2.0), ("ours".into(), 0.2)],
/// }];
/// let t = format_ratio_table("tags per access", &rows);
/// assert!(t.contains("DCT"));
/// assert!(t.contains("original"));
/// ```
#[must_use]
pub fn format_ratio_table(title: &str, rows: &[FigureRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    if rows.is_empty() {
        return out;
    }
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .max()
        .unwrap_or(0)
        .max("benchmark".len());
    let series: Vec<&str> = rows[0].values.iter().map(|(n, _)| n.as_str()).collect();
    // A column is as wide as its series name or its widest value, and at
    // least 8, so counts as large as 18816.000 keep their rows aligned.
    let col_w: Vec<usize> = (0..series.len())
        .map(|j| {
            let values = rows.iter().map(|r| format!("{:.3}", r.values[j].1).len());
            values.fold(series[j].len().max(8), usize::max)
        })
        .collect();
    let _ = write!(out, "{:label_w$}", "benchmark");
    for (s, w) in series.iter().zip(&col_w) {
        let _ = write!(out, "  {s:>w$}");
    }
    let _ = writeln!(out);
    for row in rows {
        let _ = write!(out, "{:label_w$}", row.label);
        for ((_, v), w) in row.values.iter().zip(&col_w) {
            let _ = write!(out, "  {v:>w$.3}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Formats per-scheme power breakdowns for one benchmark as a stacked
/// table (`data / tag / mab / buffer / total`, mW) — the textual analogue
/// of one benchmark group in Figures 5 and 7.
#[must_use]
pub fn format_power_table(title: &str, entries: &[(String, PowerBreakdown)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let name_w = entries
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max("scheme".len());
    let _ = writeln!(
        out,
        "{:name_w$}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "scheme", "data mW", "tag mW", "MAB mW", "buf mW", "total mW"
    );
    for (name, p) in entries {
        let _ = writeln!(
            out,
            "{:name_w$}  {:>9.2}  {:>9.2}  {:>9.2}  {:>9.2}  {:>9.2}",
            name,
            p.data_mw,
            p.tag_mw,
            p.mab_mw,
            p.buffer_mw,
            p.total_mw()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_table_aligns_and_includes_all_values() {
        let rows = vec![
            FigureRow {
                label: "DCT".into(),
                values: vec![("original".into(), 1.95), ("ours".into(), 0.21)],
            },
            FigureRow {
                label: "mpeg2enc".into(),
                values: vec![("original".into(), 2.0), ("ours".into(), 0.15)],
            },
            FigureRow {
                label: "compress".into(),
                values: vec![("original".into(), 18816.0), ("ours".into(), 0.0)],
            },
        ];
        let t = format_ratio_table("Figure 4: tag accesses", &rows);
        assert!(t.contains("Figure 4"));
        assert!(t.contains("1.950"));
        assert!(t.contains("0.150"));
        assert!(t.contains("18816.000"));
        assert!(t.lines().count() == 5);
        let widths: Vec<usize> = t.lines().skip(1).map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "misaligned: {widths:?}\n{t}");
    }

    #[test]
    fn empty_rows_render_title_only() {
        let t = format_ratio_table("nothing", &[]);
        assert_eq!(t.lines().count(), 1);
    }

    #[test]
    fn power_table_shows_total() {
        let p = PowerBreakdown {
            data_mw: 10.0,
            tag_mw: 3.0,
            mab_mw: 1.5,
            buffer_mw: 0.0,
        };
        let t = format_power_table("D-cache: DCT", &[("ours".into(), p)]);
        assert!(t.contains("14.50"));
        assert!(t.contains("ours"));
    }
}
