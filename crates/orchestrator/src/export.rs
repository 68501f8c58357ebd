//! CSV export of run traces — for plotting the figures outside the
//! terminal (gnuplot, matplotlib, a spreadsheet).
//!
//! Everything here is a thin layer over [`obs::CsvWriter`]: runs are
//! turned into [`obs::TraceRecord`] streams and rendered by the shared
//! sink, so the quoting rules and cell formats match the `--trace` output.

use crate::session::{IterationRecord, TuningRun};
use obs::{CsvWriter, TraceRecord, TraceSink};
use std::io;
use std::path::Path;

/// Round to 3 decimals so CSV cells stay short (shortest-round-trip
/// formatting would print the full double).
fn round3(v: f64) -> f64 {
    (v * 1_000.0).round() / 1_000.0
}

fn iteration_record(r: &IterationRecord) -> TraceRecord {
    TraceRecord::new("iteration")
        .field("iteration", r.iteration)
        .field("wips", round3(r.wips))
        .field("workload", r.workload.name())
        .field("failed", r.failed)
        .field("line_wips", r.line_wips.clone())
}

/// Render records through a [`CsvWriter`] into a string.
fn csv_text(records: impl IntoIterator<Item = TraceRecord>) -> String {
    let mut w = CsvWriter::new(Vec::new());
    for r in records {
        w.emit(&r);
    }
    // CsvWriter only ever writes UTF-8 encoded text.
    #[allow(clippy::expect_used)]
    String::from_utf8(w.into_inner()).expect("CSV output is UTF-8")
}

/// Render a tuning run as CSV text: one row per iteration.
/// Header: `iteration,wips,workload,failed,line_wips`.
pub fn tuning_run_csv(run: &TuningRun) -> String {
    csv_text(run.records.iter().map(iteration_record))
}

/// Render a generic named series set as CSV (figures with several lines).
/// Ragged series pad with empty cells.
pub fn series_csv(names: &[&str], series: &[Vec<f64>]) -> String {
    assert_eq!(names.len(), series.len());
    let rows = series.iter().map(|s| s.len()).max().unwrap_or(0);
    csv_text((0..rows).map(|i| {
        let mut rec = TraceRecord::new("series").field("index", i);
        for (name, s) in names.iter().zip(series) {
            match s.get(i) {
                Some(v) => rec.push(*name, round3(*v)),
                None => rec.push(*name, ""),
            }
        }
        rec
    }))
}

/// Write CSV text to a file.
pub fn write_csv(path: impl AsRef<Path>, csv: &str) -> io::Result<()> {
    std::fs::write(path, csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{tune_observed, SessionConfig, SessionObserver};
    use cluster::config::Topology;
    use harmony::strategy::TuningMethod;
    use tpcw::metrics::IntervalPlan;
    use tpcw::mix::Workload;

    fn tiny_run() -> TuningRun {
        let cfg = SessionConfig::new(Topology::single(), Workload::Shopping, 150)
            .plan(IntervalPlan::tiny());
        tune_observed(&cfg, TuningMethod::None, 3, &mut SessionObserver::none()).expect("tiny run")
    }

    #[test]
    fn tuning_csv_shape() {
        let run = tiny_run();
        let csv = tuning_run_csv(&run);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
        assert_eq!(lines[0], "iteration,wips,workload,failed,line_wips");
        assert!(lines[1].starts_with("0,"));
        assert!(lines[1].contains("Shopping"));
    }

    #[test]
    fn series_csv_pads_ragged_series() {
        let csv = series_csv(&["a", "b"], &[vec![1.0, 2.0, 3.0], vec![9.0]]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "index,a,b");
        assert_eq!(lines[1], "0,1.0,9.0");
        assert_eq!(lines[3], "2,3.0,");
    }

    #[test]
    fn writes_to_disk() {
        let run = tiny_run();
        let path = std::env::temp_dir().join("ah_webtune_export_test.csv");
        write_csv(&path, &tuning_run_csv(&run)).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert!(read.starts_with("iteration,"));
        let _ = std::fs::remove_file(&path);
    }
}
