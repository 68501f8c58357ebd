//! Integration tests of the §IV reconfiguration pipeline: monitor →
//! algorithm → topology change → continued service.

use ah_webtune::cluster::config::{Role, Topology};
use ah_webtune::harmony::reconfig::Thresholds;
use ah_webtune::orchestrator::reconfigure::{
    run_reconfig_session_observed, ReconfigRun, ReconfigSettings,
};
use ah_webtune::orchestrator::session::{SessionConfig, SessionObserver};
use ah_webtune::tpcw::metrics::IntervalPlan;
use ah_webtune::tpcw::mix::Workload;

fn base(topology: Topology, pop: u32) -> SessionConfig {
    SessionConfig::new(topology, Workload::Browsing, pop).plan(IntervalPlan::tiny())
}

/// An unobserved reconfiguration session under one fixed workload.
fn reconfig(
    cfg: &SessionConfig,
    settings: &ReconfigSettings,
    iters: u32,
    w: Workload,
) -> ReconfigRun {
    run_reconfig_session_observed(cfg, settings, iters, |_| w, &mut SessionObserver::none())
        .expect("session")
}

#[test]
fn move_relieves_saturated_proxy_tier_and_helps_throughput() {
    // Browsing saturates the single proxy; three app nodes idle.
    let cfg = base(Topology::tiers(1, 3, 1).unwrap(), 1600);
    let settings = ReconfigSettings {
        check_every: None,
        force_check_at: Some(3),
        thresholds: Thresholds {
            high: 0.8,
            low: 0.35,
        },
        tune_during: false,
        ..Default::default()
    };
    let run = reconfig(&cfg, &settings, 10, Workload::Browsing);
    assert_eq!(run.events.len(), 1);
    let e = &run.events[0];
    assert_eq!(e.from_tier, Role::App);
    assert_eq!(e.to_tier, Role::Proxy);
    // Throughput must not regress from the move (the clear-gain shape is
    // asserted at quick effort in tests/paper_shapes.rs — at this tiny
    // measurement plan caches run cold and saturation is mild).
    let before = run.mean_wips(0, 4);
    let after = run.mean_wips(5, 10);
    assert!(
        after > before * 0.95,
        "move must not hurt: {before:.1} -> {after:.1}"
    );
}

#[test]
fn tier_size_guard_prevents_emptying_a_tier() {
    // The only app node may never be moved, no matter the imbalance.
    let cfg = base(Topology::tiers(1, 1, 2).unwrap(), 1600);
    let settings = ReconfigSettings {
        check_every: Some(2),
        thresholds: Thresholds {
            high: 0.5,
            low: 0.6,
        }, // permissive
        tune_during: false,
        ..Default::default()
    };
    let run = reconfig(&cfg, &settings, 8, Workload::Browsing);
    // Whatever happened, every tier still has at least one node.
    for role in Role::ALL {
        assert!(run.final_topology.count(role) >= 1, "{role} emptied");
    }
}

#[test]
fn balanced_cluster_stays_put() {
    let cfg = base(Topology::tiers(2, 2, 2).unwrap(), 200);
    let settings = ReconfigSettings {
        check_every: Some(2),
        tune_during: false,
        ..Default::default()
    };
    let run = reconfig(&cfg, &settings, 6, Workload::Shopping);
    assert!(run.events.is_empty());
    assert_eq!(run.final_topology, cfg.topology);
}

#[test]
fn service_continues_across_every_iteration_of_a_move() {
    let cfg = base(Topology::tiers(1, 3, 1).unwrap(), 1600);
    let settings = ReconfigSettings {
        check_every: None,
        force_check_at: Some(2),
        thresholds: Thresholds {
            high: 0.8,
            low: 0.35,
        },
        tune_during: false,
        ..Default::default()
    };
    let run = reconfig(&cfg, &settings, 8, Workload::Browsing);
    // The paper: reconfiguration happens without taking the system down —
    // every iteration (including the move iteration) serves traffic.
    for rec in &run.records {
        assert!(rec.wips > 0.0, "iteration {} served nothing", rec.iteration);
    }
}

#[test]
fn degraded_node_attracts_tier_reinforcement() {
    // Failure injection: one of two app nodes drops to 20% CPU speed
    // under an ordering workload. Its CPU pegs; an idle proxy should be
    // reassigned into the app tier to compensate.
    let mut cfg = base(Topology::tiers(3, 2, 2).unwrap(), 1200).workload(Workload::Ordering);
    cfg.degrade_cpu(3, 0.2).expect("node 3 exists"); // node 3 = first app node
    let settings = ReconfigSettings {
        check_every: None,
        force_check_at: Some(4),
        thresholds: Thresholds {
            high: 0.8,
            low: 0.45,
        },
        tune_during: false,
        ..Default::default()
    };
    let run = reconfig(&cfg, &settings, 8, Workload::Ordering);
    assert_eq!(
        run.events.len(),
        1,
        "expected reinforcement: {:?}",
        run.events
    );
    assert_eq!(run.events[0].to_tier, Role::App);
    assert_eq!(run.final_topology.count(Role::App), 3);
}
