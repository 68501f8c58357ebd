//! End-to-end integration: Active Harmony tuning the simulated TPC-W
//! cluster through the full public API (facade crate).

use ah_webtune::cluster::config::{ClusterConfig, Topology};
use ah_webtune::harmony::strategy::TuningMethod;
use ah_webtune::orchestrator::session::{
    tune_observed, SessionConfig, SessionError, SessionObserver, TuningRun,
};
use ah_webtune::tpcw::metrics::IntervalPlan;
use ah_webtune::tpcw::mix::Workload;

fn smoke_session(workload: Workload, pop: u32) -> SessionConfig {
    SessionConfig::new(Topology::single(), workload, pop).plan(IntervalPlan::tiny())
}

/// An unobserved tuning session.
fn tune(cfg: &SessionConfig, method: TuningMethod, iters: u32) -> Result<TuningRun, SessionError> {
    tune_observed(cfg, method, iters, &mut SessionObserver::none())
}

#[test]
fn tuning_loop_runs_and_never_crashes_across_methods() {
    for method in TuningMethod::ALL {
        let mut cfg = smoke_session(Workload::Shopping, 250);
        cfg.topology = Topology::tiers(2, 2, 2).unwrap();
        let run = tune(&cfg, method, 6).expect("tuning session");
        assert_eq!(run.records.len(), 6, "{method}");
        assert!(run.best_wips > 0.0, "{method}");
        assert!(run
            .records
            .iter()
            .all(|r| r.wips.is_finite() && r.wips >= 0.0));
    }
}

#[test]
fn full_stack_is_deterministic_for_pinned_seed() {
    let cfg = smoke_session(Workload::Browsing, 200).pin_seed(true);
    let a = tune(&cfg, TuningMethod::Default, 5).expect("run a");
    let b = tune(&cfg, TuningMethod::Default, 5).expect("run b");
    assert_eq!(a.wips_series(), b.wips_series());
    assert_eq!(a.best_config, b.best_config);
}

#[test]
fn tuner_proposals_always_yield_valid_cluster_configs() {
    // Drive 20 iterations and validate every evaluated configuration
    // against the topology (roles and bounds).
    let cfg = smoke_session(Workload::Ordering, 200);
    let run = tune(&cfg, TuningMethod::Default, 20).expect("tuning session");
    // The best config must be buildable and apply cleanly.
    let rebuilt = ClusterConfig::new(&cfg.topology, run.best_config.nodes().to_vec());
    assert!(rebuilt.is_ok());
}

#[test]
fn default_baseline_matches_none_method() {
    let cfg = smoke_session(Workload::Shopping, 200).pin_seed(true);
    let (baseline, _) = cfg.measure_default(1);
    let run = tune(&cfg, TuningMethod::None, 1).expect("tuning session");
    assert!((run.records[0].wips - baseline).abs() < 1e-9);
}

#[test]
fn partitioned_lines_account_for_all_throughput() {
    let cfg = smoke_session(Workload::Shopping, 300).topology(Topology::tiers(2, 2, 2).unwrap());
    let run = tune(&cfg, TuningMethod::Partitioning, 4).expect("tuning session");
    for rec in &run.records {
        let sum: f64 = rec.line_wips.iter().sum();
        assert!(
            (sum - rec.wips).abs() < 1e-6,
            "line WIPS must sum to total: {sum} vs {}",
            rec.wips
        );
    }
}

#[test]
fn workload_pressure_ordering_hits_db_hardest() {
    // Cross-crate sanity: the workload mix (tpcw) shapes tier load
    // (cluster) as the paper describes.
    let browsing = smoke_session(Workload::Browsing, 400)
        .evaluate(ClusterConfig::defaults(&Topology::single()), 0);
    let ordering = smoke_session(Workload::Ordering, 400)
        .evaluate(ClusterConfig::defaults(&Topology::single()), 0);
    assert!(ordering.node_utilization[2].cpu > browsing.node_utilization[2].cpu);
    assert!(browsing.node_utilization[0].disk > ordering.node_utilization[0].disk);
}
