//! Cluster-scale tuning with work lines (§III.B end to end).
//!
//! Builds a 2×2×2 cluster, splits it into two work lines, and runs the
//! three cluster tuning methods side by side, printing the trade-off the
//! paper's Table 4 quantifies: the single-server default method is slow
//! and noisy, duplication converges almost immediately, partitioning is
//! steady because each line's tuner sees only its own line's throughput.
//!
//! Run with: `cargo run --release --example partitioned_tuning`

use ah_webtune::cluster::config::Topology;
use ah_webtune::harmony::strategy::TuningMethod;
use ah_webtune::harmony::workline::build_work_lines;
use ah_webtune::orchestrator::report::{sparkline, TextTable};
use ah_webtune::orchestrator::session::{tune_observed, SessionConfig, SessionObserver};
use ah_webtune::tpcw::metrics::IntervalPlan;
use ah_webtune::tpcw::mix::Workload;

fn main() {
    let topology = Topology::tiers(2, 2, 2).expect("valid layout");

    // Show the work-line partition the partitioning method will use.
    let nodes: Vec<(usize, u8)> = topology
        .roles()
        .iter()
        .enumerate()
        .map(|(i, r)| (i, *r as u8))
        .collect();
    let lines = build_work_lines(&nodes).expect("partitionable");
    println!("cluster {topology} splits into {} work lines:", lines.len());
    for (i, line) in lines.iter().enumerate() {
        println!("  line {i}: nodes {:?}", line.nodes);
    }
    println!();

    let cfg = SessionConfig::new(topology, Workload::Shopping, 3_400).plan(IntervalPlan::fast());
    let iterations = 40;
    let (baseline, _) = cfg.measure_default(2);
    println!(
        "untuned baseline: {baseline:.1} WIPS; tuning {iterations} iterations per method...\n"
    );

    let mut table = TextTable::new(["Method", "Best WIPS", "Gain", "Trace"]);
    for method in [
        TuningMethod::Default,
        TuningMethod::Duplication,
        TuningMethod::Partitioning,
    ] {
        let run = tune_observed(&cfg, method, iterations, &mut SessionObserver::none())
            .expect("tuning session");
        table.row([
            method.label().to_string(),
            format!("{:.1}", run.best_wips),
            format!("{:+.1}%", (run.best_wips / baseline - 1.0) * 100.0),
            sparkline(&run.wips_series()),
        ]);
    }
    println!("{}", table.render());
    println!("Reading the traces: duplication jumps almost immediately (few dimensions");
    println!("per tier server); the default method spends its first ~47 iterations just");
    println!("building the initial simplex over every parameter of every node.");
}
