//! Dollars/WIPS across cluster sizes — TPC-W's second primary metric
//! (§II.C of the paper) applied to the provisioning question the
//! introduction motivates: systems "should be cost-effective".
//!
//! For each candidate topology the harness finds the saturated WIPS
//! (population sweep until WIPS stops growing) and prices the system,
//! reporting throughput, cost, and $/WIPS with 95% confidence intervals.

use bench::args::Options;
use cluster::config::{ClusterConfig, Topology};
use cluster::pricing::PriceList;
use orchestrator::par::shared_pool;
use orchestrator::report::{fmt_f, TextTable};
use orchestrator::session::SessionConfig;
use simkit::ci::replication_ci;
use tpcw::mix::Workload;

fn saturated_wips(topology: &Topology, opts: &Options) -> (f64, f64, u32) {
    // Sweep the population upward until WIPS gains fall under 5%.
    let mut population = 600u32;
    let mut last = 0.0f64;
    let mut best_ci = (0.0, 0.0);
    for _ in 0..8 {
        let cfg = SessionConfig::new(topology.clone(), Workload::Shopping, population)
            .plan(opts.effort.plan)
            .base_seed(opts.seed);
        let samples: Vec<f64> = (0..opts.effort.reps.max(2))
            .map(|i| {
                cfg.evaluate(ClusterConfig::defaults(topology), i)
                    .metrics
                    .wips
            })
            .collect();
        let ci = replication_ci(&samples);
        if ci.mean < last * 1.05 {
            return (best_ci.0, best_ci.1, population);
        }
        last = ci.mean;
        best_ci = (ci.mean, ci.half_width);
        population = (population as f64 * 1.5) as u32;
    }
    (best_ci.0, best_ci.1, population)
}

pub fn run(opts: &Options) {
    let prices = PriceList::hpdc04();
    let candidates = [
        Topology::tiers(1, 1, 1).unwrap(),
        Topology::tiers(2, 1, 1).unwrap(),
        Topology::tiers(2, 2, 1).unwrap(),
        Topology::tiers(2, 2, 2).unwrap(),
        Topology::tiers(3, 2, 2).unwrap(),
    ];
    let sweep = opts.clone();
    let results =
        shared_pool().run_batch(candidates.to_vec(), 0, move |t| saturated_wips(t, &sweep));

    let mut table = TextTable::new(["Layout", "Saturated WIPS (95% CI)", "System cost", "$/WIPS"]);
    for (t, (wips, hw, _pop)) in candidates.iter().zip(&results) {
        let cost = prices.system_cost(t, 1);
        table.row([
            t.to_string(),
            format!("{} ± {}", fmt_f(*wips, 1), fmt_f(*hw, 1)),
            format!("${cost:.0}"),
            fmt_f(prices.dollars_per_wips(t, 1, *wips), 2),
        ]);
    }
    println!("{}", table.render());
    println!("TPC-W's price metric rewards the smallest cluster that still meets the");
    println!("throughput target — adding machines to a non-bottleneck tier only");
    println!("raises $/WIPS, which is the economic face of §IV's reconfiguration.");
}
