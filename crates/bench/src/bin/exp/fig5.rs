//! Figure 5 (EXP-F5): tuning responsiveness to changing workloads.

use bench::args::Options;
use obs::{TraceRecord, TraceSink};
use orchestrator::experiments::fig5;
use orchestrator::report::sparkline;

pub fn run(opts: &Options) {
    let r = fig5::run(&opts.effort, opts.seed);

    println!(
        "WIPS per iteration (workload changes at {:?}):",
        r.change_points
    );
    println!("  {}", sparkline(&r.wips_series));
    // Segment annotations.
    let mut labels = String::from("  ");
    let mut prev = 0usize;
    let mut names: Vec<&str> = r.workloads.iter().map(|w| w.name()).collect::<Vec<_>>();
    names.dedup();
    for (i, cp) in r
        .change_points
        .iter()
        .copied()
        .chain([r.wips_series.len() as u32])
        .enumerate()
    {
        let width = cp as usize - prev;
        let name = names.get(i).copied().unwrap_or("?");
        labels.push_str(&format!("{name:^width$}"));
        prev = cp as usize;
    }
    println!("{labels}\n");

    println!("Recovery after each workload change (iterations to reach 90% of the");
    println!("segment's median WIPS):");
    for (cp, rec) in &r.recovery {
        match rec {
            Some(n) => println!("  change @ {cp}: recovered in {n} iteration(s)"),
            None => println!("  change @ {cp}: did not recover within the segment"),
        }
    }
    if let Some(mean) = r.mean_recovery() {
        println!("\nMean recovery: {mean:.1} iterations");
    }
    opts.maybe_write_csv(
        "fig5_wips.csv",
        &orchestrator::export::series_csv(&["wips"], std::slice::from_ref(&r.wips_series)),
    );
    if let Some(mut sink) = opts.maybe_trace_sink() {
        for (i, (wips, workload)) in r.wips_series.iter().zip(&r.workloads).enumerate() {
            let rec = TraceRecord::new("fig5_iteration")
                .field("iteration", i as u32)
                .field("workload", workload.name())
                .field("wips", *wips)
                .field("change_point", r.change_points.contains(&(i as u32)));
            sink.emit(&rec);
        }
        sink.flush();
    }
    println!("Paper claim: only a few iterations are needed to adapt to the new workload.");
}
