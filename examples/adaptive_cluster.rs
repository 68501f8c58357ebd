//! An adaptive cluster riding a workload shift (§IV end to end).
//!
//! Starts a proxy-heavy cluster under a browsing workload, then shifts the
//! traffic to order-heavy. Active Harmony keeps tuning parameters every
//! iteration, and the reconfiguration controller (checked periodically)
//! moves a node into whichever tier became the bottleneck.
//!
//! Run with: `cargo run --release --example adaptive_cluster`

use ah_webtune::cluster::config::Topology;
use ah_webtune::harmony::reconfig::Thresholds;
use ah_webtune::orchestrator::reconfigure::{run_reconfig_session_observed, ReconfigSettings};
use ah_webtune::orchestrator::report::sparkline;
use ah_webtune::orchestrator::session::{SessionConfig, SessionObserver};
use ah_webtune::tpcw::metrics::IntervalPlan;
use ah_webtune::tpcw::mix::Workload;

fn main() {
    // Proxy-heavy initial layout: fine for browsing, wrong for ordering.
    let topology = Topology::tiers(4, 2, 3).expect("valid layout");
    let base = SessionConfig::new(topology, Workload::Browsing, 4_200).plan(IntervalPlan::fast());

    let settings = ReconfigSettings {
        check_every: Some(20), // autonomous periodic checks
        force_check_at: None,
        thresholds: Thresholds {
            high: 0.80,
            low: 0.45,
        },
        ..Default::default()
    };

    let switch_at = 25;
    let total = 60;
    println!("4 proxies / 2 app / 3 db, browsing -> ordering at iteration {switch_at}");
    println!("running {total} iterations with reconfiguration checks every 20...\n");

    let run = run_reconfig_session_observed(
        &base,
        &settings,
        total,
        |i| {
            if i < switch_at {
                Workload::Browsing
            } else {
                Workload::Ordering
            }
        },
        &mut SessionObserver::none(),
    )
    .expect("reconfiguration session");

    println!("WIPS: {}", sparkline(&run.wips_series()));
    for event in &run.events {
        println!(
            "iteration {:3}: moved node {} from {} tier to {} tier ({}, cost value {:+.1})",
            event.iteration,
            event.node,
            event.from_tier,
            event.to_tier,
            if event.immediate {
                "immediately"
            } else {
                "after draining"
            },
            event.cost_value,
        );
    }
    if run.events.is_empty() {
        println!("no reconfiguration was needed (thresholds never both triggered)");
    }
    println!(
        "\nmean WIPS before the switch: {:.1}",
        run.mean_wips(5, switch_at as usize)
    );
    if let Some(first) = run.events.first() {
        let after = (first.iteration + 5) as usize;
        println!(
            "mean WIPS after reconfiguration: {:.1}",
            run.mean_wips(after, total as usize)
        );
    }
    println!("final layout: {}", run.final_topology);
}
