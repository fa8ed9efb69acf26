//! Plain-text rendering of result tables and the Figure 8 cactus series.

use crate::{Row, RunStatus};

/// Renders rows in the layout of Figure 7: one line per benchmark with Size,
/// Time, TVT, TVC, MVT, TST, TSC and MST columns, `t/o` for timeouts.
pub fn figure7_table(rows: &[Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<42} {:>5} {:>9} {:>9} {:>5} {:>8} {:>8} {:>5} {:>8} | {:>5} {:>9}\n",
        "Name",
        "Size",
        "Time(s)",
        "TVT(s)",
        "TVC",
        "MVT(s)",
        "TST(s)",
        "TSC",
        "MST(s)",
        "pSize",
        "pTime(s)"
    ));
    out.push_str(&"-".repeat(128));
    out.push('\n');
    for row in rows {
        let (size, time, tvt, tvc, mvt, tst, tsc, mst) = match row.status {
            RunStatus::Completed => (
                row.size().map_or("-".into(), |s| s.to_string()),
                format!("{:.1}", row.time_secs()),
                format!("{:.1}", row.tvt_secs()),
                row.tvc().to_string(),
                row.mvt_secs().map_or("undef".into(), |t| format!("{t:.2}")),
                format!("{:.1}", row.tst_secs()),
                row.tsc().to_string(),
                row.mst_secs().map_or("undef".into(), |t| format!("{t:.2}")),
            ),
            RunStatus::TimedOut | RunStatus::Cancelled => {
                // "t/o" for a run that exhausted its budget, "stop" for one
                // cancelled externally — kept distinct across the whole row
                // so the Time column never misattributes a cancellation.
                let marker = if row.status == RunStatus::Cancelled {
                    "stop"
                } else {
                    "t/o"
                };
                (
                    marker.into(),
                    marker.into(),
                    marker.into(),
                    row.tvc().to_string(),
                    marker.into(),
                    marker.into(),
                    row.tsc().to_string(),
                    marker.into(),
                )
            }
            RunStatus::Failed => (
                "fail".into(),
                format!("{:.1}", row.time_secs()),
                format!("{:.1}", row.tvt_secs()),
                row.tvc().to_string(),
                "-".into(),
                format!("{:.1}", row.tst_secs()),
                row.tsc().to_string(),
                "-".into(),
            ),
        };
        let paper_size = row.paper_size.map_or("t/o".into(), |s| s.to_string());
        let paper_time = row
            .paper_time_secs
            .map_or("t/o".into(), |t| format!("{t:.1}"));
        out.push_str(&format!(
            "{:<42} {:>5} {:>9} {:>9} {:>5} {:>8} {:>8} {:>5} {:>8} | {:>5} {:>9}\n",
            row.id, size, time, tvt, tvc, mvt, tst, tsc, mst, paper_size, paper_time
        ));
    }
    out
}

/// Renders the Figure 8 series: for each mode, the number of completed
/// benchmarks within each time threshold (seconds).
pub fn figure8_series(rows: &[Row], thresholds: &[f64]) -> String {
    let mut out = String::new();
    let mut modes: Vec<&str> = rows.iter().map(|r| r.mode.as_str()).collect();
    modes.dedup();
    let mut unique_modes: Vec<&str> = Vec::new();
    for mode in modes {
        if !unique_modes.contains(&mode) {
            unique_modes.push(mode);
        }
    }
    out.push_str(&format!("{:<12}", "Mode"));
    for t in thresholds {
        // Hundredths, without trailing zeros: `0.1`, `0.35`, `10`.
        let fixed = format!("{t:.2}");
        let secs = fixed.trim_end_matches('0').trim_end_matches('.');
        out.push_str(&format!(" {:>8}", format!("<={secs}s")));
    }
    out.push('\n');
    out.push_str(&"-".repeat(12 + 9 * thresholds.len()));
    out.push('\n');
    for mode in unique_modes {
        out.push_str(&format!("{mode:<12}"));
        for &threshold in thresholds {
            let completed = rows
                .iter()
                .filter(|r| {
                    r.mode == mode && r.status == RunStatus::Completed && r.time_secs() <= threshold
                })
                .count();
            out.push_str(&format!(" {completed:>8}"));
        }
        out.push('\n');
    }
    out
}

/// Summary line: completed / total per mode.
pub fn completion_summary(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut modes: Vec<&str> = Vec::new();
    for row in rows {
        if !modes.contains(&row.mode.as_str()) {
            modes.push(&row.mode);
        }
    }
    for mode in modes {
        let total = rows.iter().filter(|r| r.mode == mode).count();
        let completed = rows
            .iter()
            .filter(|r| r.mode == mode && r.status == RunStatus::Completed)
            .count();
        out.push_str(&format!("{mode}: {completed}/{total} completed\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(mode: &str, status: RunStatus, time: f64) -> Row {
        let mut stats = hanoi::RunStats {
            total_time: std::time::Duration::from_secs_f64(time),
            verification_time: std::time::Duration::from_secs_f64(time * 0.8),
            verification_calls: 10,
            synthesis_time: std::time::Duration::from_secs_f64(time * 0.1),
            synthesis_calls: 3,
            iterations: 7,
            ..hanoi::RunStats::default()
        };
        stats.invariant_size = Some(18);
        Row {
            id: "/coq/unique-list-::-set".into(),
            mode: mode.into(),
            status,
            invariant: None,
            stats,
            paper_size: Some(35),
            paper_time_secs: Some(13.2),
        }
    }

    #[test]
    fn tables_render_expected_columns() {
        let rows = vec![
            sample_row("Hanoi", RunStatus::Completed, 2.0),
            sample_row("Hanoi", RunStatus::TimedOut, 30.0),
        ];
        let table = figure7_table(&rows);
        assert!(table.contains("TVC"));
        assert!(table.contains("t/o"));
        assert!(table.contains("13.2"));

        let series = figure8_series(&rows, &[1.0, 10.0, 100.0]);
        assert!(series.contains("Hanoi"));
        assert!(series.contains("<=10s"));
        // Fractions of a 7 s timeout, as `figure8` makes its thresholds.
        let sub_second = figure8_series(&rows, &[0.1, 0.05 * 7.0, 0.5, 1.0, 10.0]);
        for label in ["<=0.1s", "<=0.35s", "<=0.5s", "<=1s", "<=10s"] {
            assert!(sub_second.contains(label), "{label} in {sub_second}");
        }
        assert!(!sub_second.contains("<=0s"), "{sub_second}");

        let summary = completion_summary(&rows);
        assert!(summary.contains("1/2 completed"));
    }
}
