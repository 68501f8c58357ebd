//! Figure 7: automatic cluster reconfiguration experiments.
//!
//! * **(a)** four proxy + two app nodes; the workload changes from
//!   browsing to ordering at iteration `switch`, and a forced
//!   reconfiguration check right after iteration `check` moves one node
//!   from the proxy tier to the app tier. Throughput improves ~60%.
//! * **(b)** two proxy + four app nodes under a browsing workload; the
//!   proxy tier is disk/CPU-bound, and the check moves one app node into
//!   the proxy tier. Throughput improves ~70%.
//!
//! Improvements are measured as the paper does: mean WIPS after the move
//! (allowing a few re-tuning iterations) vs the mean in the window between
//! the workload switch and the check.

use super::{scale_pop, Effort};
use crate::reconfigure::{run_reconfig_session_observed, ReconfigRun, ReconfigSettings};
use crate::session::{SessionConfig, SessionObserver};
use cluster::config::{Role, Topology};
use harmony::reconfig::Thresholds;
use tpcw::mix::Workload;

/// Which of the two Figure 7 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig7Variant {
    /// (a) proxy → app under a browsing→ordering switch.
    ProxyToApp,
    /// (b) app → proxy under a browsing workload.
    AppToProxy,
}

/// Result of one Figure 7 run.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    pub variant: Fig7Variant,
    pub wips_series: Vec<f64>,
    /// Iteration of the (first) reconfiguration, if any.
    pub reconfig_iteration: Option<u32>,
    pub from_tier: Option<Role>,
    pub to_tier: Option<Role>,
    /// Mean WIPS in the pre-move window (after the workload switch).
    pub before_wips: f64,
    /// Mean WIPS in the post-move window.
    pub after_wips: f64,
    /// Relative improvement.
    pub improvement: f64,
    /// Initial and final tier layout, as "(p, a, d)".
    pub initial_layout: (usize, usize, usize),
    pub final_layout: (usize, usize, usize),
}

fn layout(t: &Topology) -> (usize, usize, usize) {
    (t.count(Role::Proxy), t.count(Role::App), t.count(Role::Db))
}

/// Run one Figure 7 variant.
///
/// The run is `1.5 × effort.iterations` long; the workload switch (variant
/// (a) only) happens at `0.45 ×` and the forced check at `0.5 ×` the base
/// iteration count — at `Effort::paper()` (200) this reproduces the
/// paper's switch-at-90 / check-at-100 schedule on a 300-iteration run.
pub fn run(variant: Fig7Variant, effort: &Effort, seed: u64) -> Fig7Result {
    let total = effort.iterations + effort.iterations / 2;
    let switch = (effort.iterations as f64 * 0.45) as u32;
    // Paper: workload switches at 90, forced check right after 100 — ten
    // iterations for the monitor to see the new regime.
    let check = (switch + (effort.iterations / 10).max(6)).min(total - 2);

    // Populations are set well beyond what parameter tuning alone can
    // absorb, so the tier imbalance persists until the node moves. The
    // database tier of (a) is provisioned with headroom — in the paper's
    // testbed the database was not the ordering bottleneck, the
    // application tier was.
    // Tier counts are literals; `tiers` only fails on a zero count.
    #[allow(clippy::expect_used)]
    let (topology, population) = match variant {
        Fig7Variant::ProxyToApp => (
            Topology::tiers(4, 2, 5).expect("valid"),
            scale_pop(8_500, effort),
        ),
        Fig7Variant::AppToProxy => (
            Topology::tiers(2, 4, 1).expect("valid"),
            scale_pop(4_000, effort),
        ),
    };
    let initial_layout = layout(&topology);
    let base = SessionConfig::new(topology, Workload::Browsing, population)
        .plan(effort.plan)
        .base_seed(seed);

    let settings = ReconfigSettings {
        check_every: None,
        force_check_at: Some(check),
        thresholds: Thresholds {
            high: 0.80,
            low: 0.45,
        },
        // A faster EMA than the periodic-check default: the forced check
        // comes only a few iterations after the workload switch.
        monitor_alpha: 0.5,
        // (a) keeps tuning running, as the paper does: cache tuning cools
        // the proxy tier (making it a donor) while no parameter can fix
        // the app tier's CPU shortage. (b) freezes tuning: our simulated
        // proxy cache is tunable enough to absorb that imbalance, which
        // the paper's physical testbed was not (note in EXPERIMENTS.md).
        tune_during: variant == Fig7Variant::ProxyToApp,
        ..Default::default()
    };
    let workload_at = move |i: u32| match variant {
        Fig7Variant::ProxyToApp => {
            if i < switch {
                Workload::Browsing
            } else {
                Workload::Ordering
            }
        }
        Fig7Variant::AppToProxy => Workload::Browsing,
    };
    let mut observer = SessionObserver::none();
    let run: ReconfigRun =
        run_reconfig_session_observed(&base, &settings, total, workload_at, &mut observer)
            .unwrap_or_else(|e| panic!("figure 7 session failed: {e}"));

    let event = run.events.first();
    let before_start = match variant {
        Fig7Variant::ProxyToApp => switch as usize,
        Fig7Variant::AppToProxy => (check as usize).saturating_sub(10),
    };
    let before_wips = run.mean_wips(before_start, check as usize + 1);
    // Allow a few iterations of re-tuning after the move before measuring.
    let settle = (check + 1 + total / 10).min(total - 1);
    let after_wips = run.mean_wips(settle as usize, total as usize);

    Fig7Result {
        variant,
        wips_series: run.records.iter().map(|r| r.wips).collect(),
        reconfig_iteration: event.map(|e| e.iteration),
        from_tier: event.map(|e| e.from_tier),
        to_tier: event.map(|e| e.to_tier),
        before_wips,
        after_wips,
        improvement: after_wips / before_wips - 1.0,
        initial_layout,
        final_layout: layout(&run.final_topology),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_variant_b_runs() {
        let effort = Effort::smoke();
        let r = run(Fig7Variant::AppToProxy, &effort, 7);
        assert_eq!(r.initial_layout, (2, 4, 1));
        assert!(!r.wips_series.is_empty());
        assert!(r.before_wips > 0.0);
        assert!(r.after_wips > 0.0);
    }
}
