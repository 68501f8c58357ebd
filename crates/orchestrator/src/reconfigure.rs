//! Sessions with automatic cluster reconfiguration (§IV, Figure 7).
//!
//! Parameter tuning (duplication servers — they survive topology changes
//! because their spaces are per-tier, not per-node) runs every iteration;
//! the reconfiguration algorithm runs at a lower frequency, reading the
//! EMA-smoothed per-node utilizations, and may move one node to another
//! tier. A moved node restarts with the destination tier's current
//! configuration (cold caches — handled naturally because every iteration
//! rebuilds and rewarms the world). The session is the one tuning loop
//! (`session::drive_tuning`) with the `Reconfigurer` part.

use crate::session::{
    drive_tuning, IterationRecord, Parts, SessionConfig, SessionError, SessionObserver,
};
use cluster::config::{Role, Topology};
use cluster::node::NodeUtilization;
use cluster::runner::IterationOutcome;
use harmony::monitor::{UtilizationMonitor, UtilizationSnapshot};
use harmony::reconfig::{
    decide, CostModel, NodeCostInputs, NodeReport, ReconfigDecision, Thresholds,
};
use harmony::strategy::TuningMethod;
use tpcw::mix::Workload;

/// Reconfiguration-session settings.
#[derive(Debug, Clone)]
pub struct ReconfigSettings {
    /// Run the check every this many iterations (paper: ~50). Use
    /// `force_check_at` for the Figure 7 forced single check.
    pub check_every: Option<u32>,
    /// Additionally force exactly one check right after this iteration.
    pub force_check_at: Option<u32>,
    pub thresholds: Thresholds,
    pub cost_model: CostModel,
    /// EMA weight for the utilization monitor.
    pub monitor_alpha: f64,
    /// Keep parameter tuning running during the session (the paper does).
    /// Figure 7 freezes it to the default configuration so the measured
    /// gain isolates the reconfiguration effect — see EXPERIMENTS.md.
    pub tune_during: bool,
}

impl Default for ReconfigSettings {
    fn default() -> Self {
        ReconfigSettings {
            check_every: Some(50),
            force_check_at: None,
            thresholds: Thresholds::default(),
            cost_model: CostModel::default(),
            monitor_alpha: 0.3,
            tune_during: true,
        }
    }
}

/// A topology change that happened during the run.
#[derive(Debug, Clone)]
pub struct ReconfigEvent {
    pub iteration: u32,
    pub node: usize,
    pub from_tier: Role,
    pub to_tier: Role,
    pub immediate: bool,
    pub cost_value: f64,
}

/// Result of a reconfiguration session.
#[derive(Debug, Clone)]
pub struct ReconfigRun {
    pub records: Vec<IterationRecord>,
    pub events: Vec<ReconfigEvent>,
    pub final_topology: Topology,
}

impl ReconfigRun {
    /// Per-iteration WIPS series.
    pub fn wips_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.wips).collect()
    }

    /// Mean WIPS over `[start, end)`.
    pub fn mean_wips(&self, start: usize, end: usize) -> f64 {
        let window: Vec<_> = self.records.iter().take(end).skip(start).collect();
        if window.is_empty() {
            return 0.0;
        }
        window.iter().map(|r| r.wips).sum::<f64>() / window.len() as f64
    }
}

/// The §IV controller as a part of the one tuning loop
/// ([`crate::session::drive_tuning`]): after every iteration the EMA
/// monitor observes node utilisation, and when a check is due
/// `decide()` may move one node.
pub(crate) struct Reconfigurer {
    settings: ReconfigSettings,
    monitor: UtilizationMonitor,
    events: Vec<ReconfigEvent>,
}

impl Reconfigurer {
    /// Observe iteration `i`'s outcome and, when a check is due, move a
    /// node by changing `topology` in place.
    pub(crate) fn after(
        &mut self,
        topology: &mut Topology,
        i: u32,
        out: &IterationOutcome,
        observer: &mut SessionObserver,
    ) {
        let snapshots: Vec<UtilizationSnapshot> =
            out.node_utilization.iter().map(utilization).collect();
        self.monitor.observe(&snapshots);
        let due = self
            .settings
            .check_every
            .is_some_and(|p| p > 0 && (i + 1).is_multiple_of(p))
            || self.settings.force_check_at == Some(i);
        if !due {
            return;
        }
        let Some(decision) = check(
            topology,
            &self.monitor,
            &self.settings,
            &out.node_utilization,
        ) else {
            return;
        };
        let from = topology.role(decision.node);
        if let Ok(next) = topology.reassign(decision.node, decision.to_tier) {
            observer.record_reconfig(
                i,
                decision.node,
                from.name(),
                decision.to_tier.name(),
                decision.immediate,
                decision.cost_value,
            );
            self.events.push(ReconfigEvent {
                iteration: i,
                node: decision.node,
                from_tier: from,
                to_tier: decision.to_tier,
                immediate: decision.immediate,
                cost_value: decision.cost_value,
            });
            *topology = next;
            self.monitor.reset(topology.len());
        }
    }
}

/// Run tuning + reconfiguration against a per-iteration workload
/// function. Parameter tuning is duplication (or none when
/// [`ReconfigSettings::tune_during`] is off); besides the usual
/// `iteration` and `tuner` records, every accepted node move emits a
/// `reconfig` record. A session with a checkpoint policy is refused with
/// [`SessionError::Checkpoint`]: reconfiguration sessions are not
/// checkpointed.
pub fn run_reconfig_session_observed(
    base: &SessionConfig,
    settings: &ReconfigSettings,
    iterations: u32,
    workload_at: impl Fn(u32) -> Workload,
    observer: &mut SessionObserver,
) -> Result<ReconfigRun, SessionError> {
    let mut reconfig = Reconfigurer {
        settings: settings.clone(),
        monitor: UtilizationMonitor::new(base.topology.len(), settings.monitor_alpha),
        events: Vec::new(),
    };
    let method = if settings.tune_during {
        TuningMethod::Duplication
    } else {
        TuningMethod::None
    };
    let parts = Parts {
        workload_at: Some(&workload_at),
        reconfig: Some(&mut reconfig),
        ..Parts::default()
    };
    let (run, final_topology) = drive_tuning(base, method, iterations, parts, observer)?;
    Ok(ReconfigRun {
        records: run.records,
        events: reconfig.events,
        final_topology,
    })
}

fn check(
    topology: &Topology,
    monitor: &UtilizationMonitor,
    settings: &ReconfigSettings,
    latest: &[NodeUtilization],
) -> Option<ReconfigDecision<Role>> {
    let reports: Vec<NodeReport<Role>> = monitor
        .smoothed()
        .iter()
        .enumerate()
        .map(|(node, util)| node_report(topology, node, *util, &latest[node]))
        .collect();
    decide(&reports, &settings.thresholds, &settings.cost_model, |t| {
        topology.count(t)
    })
}

/// A node's utilisation as the monitor and `decide()` see it.
pub(crate) fn utilization(u: &NodeUtilization) -> UtilizationSnapshot {
    UtilizationSnapshot {
        cpu: u.cpu,
        disk: u.disk,
        net: u.net,
        mem: u.mem,
    }
}

/// The §IV report on `node`: `util` is what `decide()` weighs (the EMA
/// for a periodic check, the last window after a crash). The cost-model
/// inputs are estimated from the node's latest utilisation: busier
/// nodes hold more jobs; per-job move and process times are fixed
/// calibration constants (documented in DESIGN.md §4).
pub(crate) fn node_report(
    topology: &Topology,
    node: usize,
    util: UtilizationSnapshot,
    latest: &NodeUtilization,
) -> NodeReport<Role> {
    NodeReport {
        node,
        tier: topology.role(node),
        util,
        cost: NodeCostInputs {
            jobs: 2.0 + 30.0 * latest.cpu.max(latest.disk),
            move_cost: 0.2,
            avg_process_time: 0.8,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcw::metrics::IntervalPlan;

    fn base(topology: Topology, pop: u32) -> SessionConfig {
        SessionConfig::new(topology, Workload::Browsing, pop).plan(IntervalPlan::tiny())
    }

    fn reconfig(
        cfg: &SessionConfig,
        settings: &ReconfigSettings,
        iterations: u32,
        workload_at: impl Fn(u32) -> Workload,
    ) -> ReconfigRun {
        let mut observer = SessionObserver::none();
        run_reconfig_session_observed(cfg, settings, iterations, workload_at, &mut observer)
            .expect("session")
    }

    #[test]
    fn session_without_pressure_never_reconfigures() {
        let cfg = base(Topology::tiers(2, 2, 1).unwrap(), 100);
        let settings = ReconfigSettings {
            check_every: Some(2),
            ..Default::default()
        };
        let run = reconfig(&cfg, &settings, 6, |_| Workload::Shopping);
        assert!(run.events.is_empty(), "events: {:?}", run.events);
        assert_eq!(run.final_topology, cfg.topology);
        assert_eq!(run.records.len(), 6);
    }

    #[test]
    fn forced_check_fires_once() {
        let cfg = base(Topology::tiers(2, 2, 1).unwrap(), 100);
        let settings = ReconfigSettings {
            check_every: None,
            force_check_at: Some(3),
            ..Default::default()
        };
        let run = reconfig(&cfg, &settings, 6, |_| Workload::Browsing);
        // May or may not move (low load => probably not), but must not
        // crash and must keep all iterations.
        assert_eq!(run.records.len(), 6);
        assert!(run.events.len() <= 1);
    }

    #[test]
    fn without_a_check_the_session_is_plain_tuning() {
        // No check due: duplication tuning bit for bit; tuning frozen:
        // the untuned baseline bit for bit.
        let cfg = base(Topology::tiers(2, 2, 1).unwrap(), 300).pin_seed(true);
        let bits = |series: Vec<f64>| series.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        for (tune_during, method) in [
            (true, TuningMethod::Duplication),
            (false, TuningMethod::None),
        ] {
            let settings = ReconfigSettings {
                check_every: None,
                tune_during,
                ..Default::default()
            };
            let run = reconfig(&cfg, &settings, 5, |_| Workload::Browsing);
            let tuned =
                crate::session::tune_observed(&cfg, method, 5, &mut SessionObserver::none())
                    .expect("tuning");
            assert_eq!(
                bits(run.wips_series()),
                bits(tuned.wips_series()),
                "{method:?}"
            );
            assert!(run.events.is_empty());
        }
    }

    #[test]
    fn overloaded_proxy_tier_attracts_a_node() {
        // Browsing at high population saturates the proxy disk; the app
        // tier idles => an app node should move to the proxy tier.
        let cfg = base(Topology::tiers(1, 3, 1).unwrap(), 1600);
        let settings = ReconfigSettings {
            check_every: None,
            force_check_at: Some(2),
            thresholds: Thresholds {
                high: 0.80,
                low: 0.35,
            },
            ..Default::default()
        };
        let run = reconfig(&cfg, &settings, 4, |_| Workload::Browsing);
        assert_eq!(run.events.len(), 1, "expected one move: {:?}", run.events);
        let e = &run.events[0];
        assert_eq!(e.to_tier, Role::Proxy);
        assert_eq!(e.from_tier, Role::App);
        assert_eq!(run.final_topology.count(Role::Proxy), 2);
        assert_eq!(run.final_topology.count(Role::App), 2);
    }
}
