//! EXP-FAULTS: resilience under deterministic fault injection.
//!
//! Not a paper artifact — the paper tunes a healthy testbed — but the
//! natural robustness follow-up: a six-node cluster runs the duplication
//! tuner while a fault plan injects a measurement-noise spike and then
//! crashes an application-tier node *mid-measurement*. The expected shape
//! is dip-and-recover: WIPS drops when the node dies, the session retries
//! the invalidated sample against the post-crash cluster, the
//! failure-driven reconfiguration pulls a spare node into the wounded
//! tier, and the tuner re-converges.

use super::{scale_pop, Effort};
use crate::reconfigure::ReconfigEvent;
use crate::resilient::{run_resilient_session_observed, ResilienceSettings, ResilientRun};
use crate::session::{SessionConfig, SessionError, SessionObserver};
use cluster::config::{Role, Topology};
use faults::FaultPlan;
use tpcw::mix::Workload;

/// Result of the fault-injection experiment.
#[derive(Debug, Clone)]
pub struct FaultsResult {
    pub wips_series: Vec<f64>,
    /// Iteration the crash landed in.
    pub crash_iteration: Option<u32>,
    /// Best WIPS before the crash.
    pub pre_crash_best: f64,
    /// Iterations from the crash until WIPS reached 90% of the pre-crash
    /// best (`None`: not within the run).
    pub recovery_iterations: Option<u32>,
    /// Resilience actions taken, by kind.
    pub retries: usize,
    pub remeasures: usize,
    pub breaker_opens: usize,
    /// Failure-driven node moves.
    pub reconfigs: Vec<ReconfigEvent>,
    pub initial_layout: (usize, usize, usize),
    pub final_layout: (usize, usize, usize),
    pub best_wips: f64,
}

fn layout(t: &Topology) -> (usize, usize, usize) {
    (t.count(Role::Proxy), t.count(Role::App), t.count(Role::Db))
}

/// The topology the experiment runs on: two proxies, three app nodes, two
/// database nodes — enough spares that losing one app node is survivable.
pub fn topology() -> Topology {
    // Tier counts are literals; `tiers` only fails on a zero count.
    #[allow(clippy::expect_used)]
    Topology::tiers(2, 3, 2).expect("valid topology")
}

/// The canonical fault plan, scaled to the effort's iteration windows:
/// a 3× noise spike early on, then node 3 (app tier) crashes in the
/// middle of iteration `0.4 × iterations`'s measurement phase.
pub fn canonical_plan(effort: &Effort) -> FaultPlan {
    let window = effort.plan.total().as_secs_f64();
    let crash_iter = (effort.iterations * 2 / 5).max(1);
    let crash_at = crash_iter as f64 * window
        + effort.plan.warmup.as_secs_f64()
        + effort.plan.measure.as_secs_f64() / 2.0;
    let noise_iter = crash_iter / 2;
    let noise_at = noise_iter as f64 * window + 1.0;
    FaultPlan::new()
        .noise_spike(noise_at, 3.0)
        .crash(crash_at, 3)
}

/// Run the experiment with the canonical plan.
pub fn run(effort: &Effort, seed: u64) -> Result<FaultsResult, SessionError> {
    run_custom(effort, seed, None, None, &mut SessionObserver::none())
}

/// Full-control entry point: override the fault plan (`None` → the
/// canonical plan) and the fault noise/jitter seed (`None` → the session
/// default).
pub fn run_custom(
    effort: &Effort,
    seed: u64,
    plan: Option<FaultPlan>,
    fault_seed: Option<u64>,
    observer: &mut SessionObserver,
) -> Result<FaultsResult, SessionError> {
    let topology = topology();
    let initial_layout = layout(&topology);
    let mut cfg = SessionConfig::new(topology, Workload::Shopping, scale_pop(4_200, effort))
        .plan(effort.plan)
        .base_seed(seed)
        .fault_plan(plan.unwrap_or_else(|| canonical_plan(effort)));
    if let Some(fs) = fault_seed {
        cfg = cfg.fault_seed(fs);
    }
    let run: ResilientRun = run_resilient_session_observed(
        &cfg,
        &ResilienceSettings::default(),
        effort.iterations,
        observer,
    )?;

    let count = |action: &str| run.recoveries.iter().filter(|r| r.action == action).count();
    Ok(FaultsResult {
        wips_series: run.wips_series(),
        crash_iteration: run.first_crash_iteration(),
        pre_crash_best: run
            .first_crash_iteration()
            .map(|i| run.running_best_before(i))
            .unwrap_or(0.0),
        recovery_iterations: run.recovery_iterations(0.9),
        retries: count("retry"),
        remeasures: count("remeasure"),
        breaker_opens: count("breaker_open"),
        reconfigs: run.reconfigs.clone(),
        initial_layout,
        final_layout: layout(&run.final_topology),
        best_wips: run.best_wips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_dips_and_recovers() {
        let effort = Effort::smoke();
        let r = run(&effort, 42).expect("no panic under faults");
        assert_eq!(r.wips_series.len(), effort.iterations as usize);
        assert_eq!(r.crash_iteration, Some(4), "10 iterations * 2/5");
        assert!(r.pre_crash_best > 0.0);
        assert!(r.retries > 0, "mid-measurement crash must trigger a retry");
        // The crash pulls a spare into the app tier. The dead node keeps
        // its tier assignment (it is Down, not removed), so the tier
        // counts four nodes of which three are live.
        assert_eq!(r.reconfigs.len(), 1, "{:?}", r.reconfigs);
        assert_eq!(r.reconfigs[0].to_tier, Role::App);
        assert_eq!(r.final_layout.1, 4, "app tier back to three live nodes");
        // Acceptance: ≥90% of the pre-crash best within 10 iterations.
        let rec = r.recovery_iterations.expect("recovered");
        assert!(rec <= 10, "recovered in {rec} iterations");
    }

    #[test]
    fn experiment_is_deterministic() {
        let effort = Effort::smoke();
        let a = run(&effort, 7).expect("run a");
        let b = run(&effort, 7).expect("run b");
        assert_eq!(a.wips_series, b.wips_series);
        assert_eq!(a.recovery_iterations, b.recovery_iterations);
    }
}
