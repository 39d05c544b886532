//! Plain-text table rendering for experiment output.

use gnnlab_core::report::{EpochReport, RunError};

/// A titled text table with aligned columns.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Table {
    /// Title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (ragged rows are padded with empty cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        fn cell(row: &[String], c: usize) -> &str {
            row.get(c).map(String::as_str).unwrap_or("")
        }
        let widths: Vec<usize> = (0..ncols)
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| cell(r, c).chars().count())
                    .chain([cell(&self.headers, c).chars().count()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let render_row = |row: &[String]| -> String {
            (0..ncols)
                .map(|c| format!("{:<w$}", cell(row, c), w = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1))));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&render_row(r));
            out.push('\n');
        }
        out
    }
}

/// Formats seconds with adaptive precision.
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// Formats bytes as adaptive GB/MB.
pub fn bytes(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.1}GB", v / 1e9)
    } else {
        format!("{:.0}MB", v / 1e6)
    }
}

/// What a cell shows for a run that ended in an error — Table 4's legend:
/// `OOM` (a memory plan did not fit), `x` (the system does not support the
/// workload), `LOST` (device failures left no executor).
pub fn error_cell(e: &RunError) -> &'static str {
    match e {
        RunError::Oom { .. } => "OOM",
        RunError::Unsupported(_) => "x",
        RunError::ExecutorsLost { .. } => "LOST",
    }
}

/// One co-sim cell: `ok`'s reading of the report, or [`error_cell`].
pub fn cell(
    run: &Result<EpochReport, RunError>,
    ok: impl FnOnce(&EpochReport) -> String,
) -> String {
    match run {
        Ok(report) => ok(report),
        Err(e) => error_cell(e).to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_core::SystemKind;

    #[test]
    fn every_run_error_has_its_own_cell() {
        let oom = RunError::Oom {
            system: SystemKind::DglLike,
            detail: "topology".to_string(),
        };
        let lost = RunError::ExecutorsLost {
            detail: "no Trainer left".to_string(),
        };
        let epoch = |r: &EpochReport| secs(r.epoch_time);
        assert_eq!(cell(&Err(oom), epoch), "OOM");
        assert_eq!(
            cell(&Err(RunError::Unsupported("PinSAGE".into())), epoch),
            "x"
        );
        assert_eq!(cell(&Err(lost), epoch), "LOST");
        let mut report = EpochReport::new(SystemKind::GnnLab);
        report.epoch_time = 12.34;
        assert_eq!(cell(&Ok(report), epoch), "12.3");
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["a", "bbbb"]);
        t.row(vec!["xx".into(), "y".into()]);
        t.row(vec!["1".into(), "22222".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.lines().count() >= 4);
        // Columns aligned: all data lines have the same prefix width.
        let lines: Vec<&str> = s.lines().skip(1).collect();
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("R", &["a", "b", "c"]);
        t.row(vec!["1".into()]);
        let s = t.render();
        assert!(s.contains('1'));
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(123.4), "123");
        assert_eq!(secs(12.34), "12.3");
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(pct(0.253), "25%");
        assert_eq!(bytes(2.5e9), "2.5GB");
        assert_eq!(bytes(171.9e6), "172MB");
    }
}
