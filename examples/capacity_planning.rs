//! Capacity planning with the cluster simulator.
//!
//! The scenario the paper's introduction motivates: an e-commerce operator
//! must provision for widely varying demand. This example uses the
//! simulator directly (no tuning) to answer two questions:
//!
//! 1. Where does each tier layout saturate as load grows?
//! 2. Which tier should get the next machine for a given workload?
//!
//! Run with: `cargo run --release --example capacity_planning`

use ah_webtune::cluster::config::{ClusterConfig, Topology};
use ah_webtune::cluster::model::ClusterScenario;
use ah_webtune::cluster::runner::run_iteration;
use ah_webtune::orchestrator::par::shared_pool;
use ah_webtune::orchestrator::report::TextTable;
use ah_webtune::tpcw::metrics::IntervalPlan;
use ah_webtune::tpcw::mix::Workload;

fn measure(topology: &Topology, workload: Workload, population: u32) -> f64 {
    let mut scenario = ClusterScenario::single(workload, population, IntervalPlan::fast(), 7);
    scenario.config = ClusterConfig::defaults(topology);
    scenario.topology = topology.clone();
    run_iteration(&scenario).metrics.wips
}

fn main() {
    // Question 1: load sweep on the single-line cluster.
    let single = Topology::single();
    let populations = [400u32, 800, 1200, 1600, 2000];
    println!("Load sweep, 1 proxy / 1 app / 1 db, shopping mix:");
    let sweep = shared_pool().run_batch(populations.to_vec(), 0, move |&p| {
        measure(&single, Workload::Shopping, p)
    });
    let mut table = TextTable::new(["Browsers", "WIPS", "WIPS per browser"]);
    for (&p, &w) in populations.iter().zip(&sweep) {
        table.row([
            p.to_string(),
            format!("{w:.1}"),
            format!("{:.3}", w / p as f64),
        ]);
    }
    println!("{}", table.render());
    println!("(WIPS per browser falling = the cluster is saturating.)\n");

    // Question 2: where should the fourth machine go, per workload?
    let candidates = [
        ("extra proxy (2/1/1)", Topology::tiers(2, 1, 1).unwrap()),
        ("extra app   (1/2/1)", Topology::tiers(1, 2, 1).unwrap()),
        ("extra db    (1/1/2)", Topology::tiers(1, 1, 2).unwrap()),
    ];
    let population = 2_200;
    println!("Where should the fourth machine go at {population} browsers?");
    let mut table = TextTable::new(["Layout", "Browsing", "Shopping", "Ordering"]);
    let cells: Vec<(Topology, Workload)> = candidates
        .iter()
        .flat_map(|(_, t)| Workload::ALL.map(|w| (t.clone(), w)))
        .collect();
    let results = shared_pool().run_batch(cells, 0, move |(t, w)| measure(t, *w, population));
    for (c, candidate) in candidates.iter().enumerate() {
        let row: Vec<String> = (0..3)
            .map(|w| format!("{:.1}", results[c * 3 + w]))
            .collect();
        table.row([
            candidate.0.to_string(),
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
        ]);
    }
    println!("{}", table.render());
    println!("Browse-heavy traffic wants proxies; order-heavy traffic wants app/db");
    println!("capacity — the same imbalance §IV's reconfiguration algorithm exploits.");
}
