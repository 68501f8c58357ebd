//! Table 3 (EXP-T3): tuned parameter values per workload, with the
//! paper's directional claims checked.

use bench::args::Options;
use bench::tuned;
use cluster::config::ClusterConfig;
use orchestrator::experiments::table3;
use orchestrator::report::TextTable;

pub fn run(opts: &Options) {
    println!(
        "Tuning all three workloads ({} iterations each)...\n",
        opts.effort.iterations
    );
    let (_, configs) = tuned::tune_all_workloads(&opts.effort, opts.seed);
    print(&configs, "Directional claims from the paper:");
    println!("\n(Individual weak parameters wander under measurement noise — the paper's");
    println!("own Table 3 shows the same, e.g. store_objects_per_bucket 15/25/105.)");
}

/// Print Table 3 for each workload's tuned configuration, then the
/// paper's directional claims under `claims_heading`. Figure 4 prints
/// it too, from the same tuning runs.
pub fn print(configs: &[ClusterConfig; 3], claims_heading: &str) {
    let rows = table3::build(configs);
    let mut section = "";
    let mut table = TextTable::new([
        "Tunable parameter",
        "Default",
        "Browsing",
        "Shopping",
        "Ordering",
    ]);
    for r in &rows {
        if r.section != section {
            section = r.section;
            table.row([
                format!("-- {} --", r.section),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
        table.row([
            r.name.to_string(),
            r.default.to_string(),
            r.tuned[0].to_string(),
            r.tuned[1].to_string(),
            r.tuned[2].to_string(),
        ]);
    }
    println!("{}", table.render());

    println!("{claims_heading}");
    for (claim, holds) in table3::directional_checks(&rows) {
        println!("  [{}] {}", if holds { "ok" } else { "MISS" }, claim);
    }
}
