//! A library of named chaos plans for the conformance suite.
//!
//! Each plan is a deliberately nasty fault schedule, parameterized by the
//! session's measurement-window length and node count so the faults land
//! inside the iterations a session actually runs. The chaos suite drives
//! every registered tuner through every plan; see `tests/chaos.rs` in the
//! workspace root.

use crate::plan::FaultPlan;

/// A named, ready-to-validate chaos plan.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    pub name: &'static str,
    pub plan: FaultPlan,
}

/// Repeated crashes with late restarts: exercises retry, the circuit
/// breaker, and reconfiguration under sustained node loss.
pub fn crash_storm(window_s: f64, nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let targets = nodes.max(2);
    for k in 0..4u32 {
        let node = (k as usize + 1) % targets;
        let at = window_s * (1.5 + 3.0 * k as f64);
        plan = plan.crash(at, node).restart(at + window_s * 2.2, node);
    }
    plan
}

/// Stacked noise spikes: every measurement in the storm is suspect, so
/// the outlier gate and remeasurement logic carry the load.
pub(crate) fn noise_storm(window_s: f64, _nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for k in 0..6u32 {
        plan = plan.noise_spike(window_s * (1.0 + 2.0 * k as f64), 6.0);
    }
    plan
}

/// Back-to-back stalls long enough to blow a per-attempt timeout budget:
/// the `Timeout` policy's reason to exist.
pub(crate) fn stall_burst(window_s: f64, nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let targets = nodes.max(1);
    for k in 0..3u32 {
        let node = k as usize % targets;
        plan = plan.stall(window_s * (2.0 + 4.0 * k as f64), node, window_s * 1.5);
    }
    plan
}

/// A rolling restart sweep: every node goes down and comes back, one
/// after another, like a deploy gone slow.
pub(crate) fn rolling_restart(window_s: f64, nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for n in 0..nodes.max(1) {
        let at = window_s * (1.0 + 2.5 * n as f64);
        plan = plan.crash(at, n).restart(at + window_s * 1.2, n);
    }
    plan
}

/// Everything at once: slowdowns, a stall, a crash, and noise, overlapping.
pub(crate) fn mixed_mayhem(window_s: f64, nodes: usize) -> FaultPlan {
    let targets = nodes.max(2);
    FaultPlan::new()
        .cpu_slow(window_s * 0.5, 0, 3.0)
        .noise_spike(window_s * 1.5, 5.0)
        .stall(window_s * 2.0, 1 % targets, window_s * 1.8)
        .crash(window_s * 3.5, 0)
        .disk_slow(window_s * 4.0, 1 % targets, 2.5)
        .restart(window_s * 6.0, 0)
        .noise_spike(window_s * 7.0, 4.0)
}

/// Every plan in the library, instantiated for one session shape.
pub fn all(window_s: f64, nodes: usize) -> Vec<ChaosPlan> {
    vec![
        ChaosPlan {
            name: "crash-storm",
            plan: crash_storm(window_s, nodes),
        },
        ChaosPlan {
            name: "noise-storm",
            plan: noise_storm(window_s, nodes),
        },
        ChaosPlan {
            name: "stall-burst",
            plan: stall_burst(window_s, nodes),
        },
        ChaosPlan {
            name: "rolling-restart",
            plan: rolling_restart(window_s, nodes),
        },
        ChaosPlan {
            name: "mixed-mayhem",
            plan: mixed_mayhem(window_s, nodes),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_plan_validates_for_reasonable_shapes() {
        for nodes in [2usize, 4, 8] {
            for window_s in [10.0, 30.0] {
                for cp in all(window_s, nodes) {
                    assert!(
                        cp.plan.validate(nodes).is_ok(),
                        "{} invalid for nodes={nodes} window={window_s}: {:?}",
                        cp.name,
                        cp.plan.validate(nodes)
                    );
                    assert!(!cp.plan.is_empty(), "{} is empty", cp.name);
                }
            }
        }
    }

    #[test]
    fn library_names_are_unique() {
        let plans = all(30.0, 4);
        let mut names: Vec<&str> = plans.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), plans.len());
    }

    #[test]
    fn plans_roundtrip_through_json() {
        for cp in all(30.0, 4) {
            let parsed = FaultPlan::parse_json(&cp.plan.to_json()).unwrap();
            assert_eq!(parsed, cp.plan, "{} drifts through JSON", cp.name);
        }
    }
}
