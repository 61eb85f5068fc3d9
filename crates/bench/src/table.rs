//! Plain-text experiment tables.
//!
//! Every bench target prints one or more [`ExpTable`]s in the shape of the
//! paper's figures: rows are the x-axis points, columns the systems/series.

use std::fmt;

use frugal_telemetry::TelemetrySummary;

/// A rendered experiment result table.
#[derive(Debug, Clone)]
pub struct ExpTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl ExpTable {
    /// Creates an empty table with the given title and column header.
    pub fn new(title: impl Into<String>, header: &[impl AsRef<str>]) -> Self {
        ExpTable {
            title: title.into(),
            header: header.iter().map(|s| s.as_ref().to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a free-form note printed under the table (scale factors,
    /// paper-expected shapes, substitutions).
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Raw cell accessor: `(row, col)` as the rendered string.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.get(col).map(String::as_str)
    }

    /// Cell accessor for tests: `(row, col)` as parsed f64 if numeric.
    pub fn cell_f64(&self, row: usize, col: usize) -> Option<f64> {
        self.rows.get(row)?.get(col)?.trim().parse().ok()
    }
}

impl fmt::Display for ExpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n=== {} ===", self.title)?;
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let print_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (w, c) in widths.iter().zip(cells) {
                line.push_str(&format!("{c:>w$}  ", w = w));
            }
            writeln!(f, "{}", line.trim_end())
        };
        print_row(f, &self.header)?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            print_row(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  # {n}")?;
        }
        Ok(())
    }
}

/// Renders a [`TelemetrySummary`] as an [`ExpTable`]: one row per ledger
/// phase (per-step p50/p95/p99/mean in microseconds over the retained
/// steps), counters and the stall-attribution line as notes.
pub fn telemetry_table(title: impl Into<String>, summary: &TelemetrySummary) -> ExpTable {
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    let mut t = ExpTable::new(
        title,
        &["phase", "steps", "p50 us", "p95 us", "p99 us", "mean us"],
    );
    for p in summary.ledger.iter().flat_map(|l| &l.phases) {
        t.row(vec![
            p.phase.name().to_owned(),
            p.steps.to_string(),
            us(p.p50_ns),
            us(p.p95_ns),
            us(p.p99_ns),
            format!("{:.1}", p.mean_ns / 1e3),
        ]);
    }
    for (name, v) in &summary.metrics.counters {
        t.note(format!("{name} = {v}"));
    }
    if !summary.stalls.is_empty() {
        let mut note = format!(
            "{} P2F stalls, total wait {:.3} ms",
            summary.stalls.len(),
            summary.stalls.total_wait_ns() as f64 / 1e6
        );
        if let Some(l) = summary.stalls.longest() {
            note.push_str(&format!(
                "; longest at step {} blocked on priority {} ({} pending keys)",
                l.step, l.blocking_priority, l.pending_keys
            ));
        }
        t.note(note);
    }
    t
}

/// Formats a samples/second throughput compactly (e.g. `1.25M`, `310k`).
///
/// Unit thresholds sit at the value where the smaller unit would *round*
/// into the larger one, not at the unit boundary itself: `999_500` prints
/// `1.00M` (never `1000k`), and `999.95` prints `1k` (never `1000.0`).
pub fn fmt_throughput(v: f64) -> String {
    if v >= 999_500.0 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 999.95 {
        format!("{:.0}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders() {
        let mut t = ExpTable::new("Demo", &["batch", "frugal"]);
        t.row(vec!["128".into(), "1.5".into()]);
        t.note("scaled down 10x");
        let s = t.to_string();
        assert!(s.contains("Demo") && s.contains("128") && s.contains("# scaled"));
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.cell_f64(0, 1), Some(1.5));
        assert_eq!(t.cell_f64(0, 5), None);
        assert_eq!(t.title, "Demo");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = ExpTable::new("Demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn throughput_formatting() {
        assert_eq!(fmt_throughput(1_250_000.0), "1.25M");
        assert_eq!(fmt_throughput(310_000.0), "310k");
        assert_eq!(fmt_throughput(42.0), "42.0");
    }

    #[test]
    fn throughput_unit_boundaries_round_up_cleanly() {
        // Values that round to the next unit must switch units — `1000k`
        // and `1000.0` are never valid outputs.
        assert_eq!(fmt_throughput(999_500.0), "1.00M");
        assert_eq!(fmt_throughput(999_499.0), "999k");
        assert_eq!(fmt_throughput(999.95), "1k");
        assert_eq!(fmt_throughput(999.94), "999.9");
        assert_eq!(fmt_throughput(1_000_000.0), "1.00M");
        assert_eq!(fmt_throughput(1_000.0), "1k");
    }
}
