//! Automatic cluster reconfiguration (§IV, Figure 6).
//!
//! Periodically (every ~50 tuning iterations — a lower frequency than
//! parameter tuning, since moving a node is expensive) the algorithm:
//!
//! 1. builds `L1`: nodes with any resource above its high threshold;
//! 2. builds `L2`: nodes with *all* resources below their low thresholds
//!    (suitable for reassignment);
//! 3. sorts `L1` by *degree of urgency* (resource-weighted overload);
//! 4. takes `i = Head(L1)` and picks `k ∈ L2` with `Tier(k) ≠ Tier(i)`,
//!    `M(Tier(k)) > 1`, minimising `F + N_k·M_km − N_k·A_k`;
//! 5. reconfigures `k` into `Tier(i)` — immediately if the cost expression
//!    is non-positive (moving the jobs is cheaper than draining), else
//!    after the node's jobs finish.

use crate::monitor::{Resource, UtilizationSnapshot};

/// Per-resource high/low thresholds (`HT_ij`, `LT_ij` — uniform across
/// nodes here, as in the paper's experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    pub high: f64,
    pub low: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        // Overloaded above 85%, reassignable when everything is under 30%.
        Thresholds {
            high: 0.85,
            low: 0.30,
        }
    }
}

/// Cost-model inputs for Step 4(c), per node `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCostInputs {
    /// `N_k`: jobs currently on the node.
    pub jobs: f64,
    /// `M_km`: cost (seconds) to move one job to a same-tier neighbour.
    pub move_cost: f64,
    /// `A_k`: average processing time (seconds) of a job on the node.
    pub avg_process_time: f64,
}

/// Global reconfiguration cost `F` (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    pub(crate) reconfiguration_cost: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            reconfiguration_cost: 30.0,
        }
    }
}

/// Everything the algorithm needs to know about one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeReport<T> {
    /// Caller's node identifier.
    pub node: usize,
    /// The tier the node currently serves.
    pub tier: T,
    /// Smoothed resource utilization.
    pub util: UtilizationSnapshot,
    /// Cost-model inputs.
    pub cost: NodeCostInputs,
}

/// The algorithm's output: move `node` into `to_tier`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigDecision<T> {
    /// Node to reconfigure (`k`).
    pub node: usize,
    /// Destination tier (`Tier(i)` of the most urgent overloaded node).
    pub to_tier: T,
    /// The overloaded node being relieved (`i`).
    pub relieves: usize,
    /// Step 4(c)/5: move now (true) or drain first (false).
    pub immediate: bool,
    /// Value of `F + N_k·M_km − N_k·A_k` for diagnostics.
    pub cost_value: f64,
}

/// Degree of urgency of an overloaded node: resource-weighted excess over
/// the high threshold (footnote 3: CPU overload outranks network).
fn urgency(util: &UtilizationSnapshot, thresholds: &Thresholds) -> f64 {
    Resource::ALL
        .iter()
        .map(|r| {
            let over = (util.get(*r) - thresholds.high).max(0.0);
            over * r.urgency_weight()
        })
        .sum()
}

/// Run one reconfiguration check. `tier_size(t)` must return `M(t)`, the
/// current number of nodes serving tier `t`.
pub fn decide<T: Copy + Eq>(
    reports: &[NodeReport<T>],
    thresholds: &Thresholds,
    cost_model: &CostModel,
    tier_size: impl Fn(T) -> usize,
) -> Option<ReconfigDecision<T>> {
    // Step 1: overloaded nodes.
    let mut l1: Vec<&NodeReport<T>> = reports
        .iter()
        .filter(|r| {
            Resource::ALL
                .iter()
                .any(|res| r.util.get(*res) > thresholds.high)
        })
        .collect();
    if l1.is_empty() {
        return None;
    }
    // Step 2: under-utilized nodes.
    let l2: Vec<&NodeReport<T>> = reports
        .iter()
        .filter(|r| {
            Resource::ALL
                .iter()
                .all(|res| r.util.get(*res) <= thresholds.low)
        })
        .collect();
    if l2.is_empty() {
        return None;
    }
    // Step 3: most urgent first.
    l1.sort_by(|a, b| {
        urgency(&b.util, thresholds)
            .total_cmp(&urgency(&a.util, thresholds))
            .then(a.node.cmp(&b.node))
    });

    // Step 4: walk L1 until a feasible donor exists.
    for overloaded in &l1 {
        let candidates = l2.iter().filter(|k| {
            k.tier != overloaded.tier          // 4(a)
                && tier_size(k.tier) > 1 // 4(b)
        });
        // 4(c): minimise F + N_k * M_km - N_k * A_k.
        let best = candidates.min_by(|a, b| {
            let ca = cost_value(cost_model, &a.cost);
            let cb = cost_value(cost_model, &b.cost);
            ca.total_cmp(&cb).then(a.node.cmp(&b.node))
        });
        if let Some(k) = best {
            let cv = cost_value(cost_model, &k.cost);
            // Step 5 + the non-positive/non-negative rule: immediate
            // reconfiguration when moving is cheaper than waiting.
            return Some(ReconfigDecision {
                node: k.node,
                to_tier: overloaded.tier,
                relieves: overloaded.node,
                immediate: cv <= 0.0,
                cost_value: cv,
            });
        }
    }
    None
}

/// `F + N_k·M_km − N_k·A_k` (equation 1).
pub(crate) fn cost_value(model: &CostModel, inputs: &NodeCostInputs) -> f64 {
    model.reconfiguration_cost + inputs.jobs * inputs.move_cost
        - inputs.jobs * inputs.avg_process_time
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(node: usize, tier: u8, cpu: f64, rest: f64) -> NodeReport<u8> {
        NodeReport {
            node,
            tier,
            util: UtilizationSnapshot {
                cpu,
                disk: rest,
                net: rest,
                mem: rest,
            },
            cost: NodeCostInputs {
                jobs: 5.0,
                move_cost: 0.5,
                avg_process_time: 1.0,
            },
        }
    }

    fn sizes(reports: &[NodeReport<u8>]) -> impl Fn(u8) -> usize + '_ {
        move |t| reports.iter().filter(|r| r.tier == t).count()
    }

    #[test]
    fn no_overload_no_decision() {
        let reports = vec![report(0, 0, 0.5, 0.1), report(1, 1, 0.5, 0.1)];
        assert!(decide(
            &reports,
            &Thresholds::default(),
            &CostModel::default(),
            sizes(&reports)
        )
        .is_none());
    }

    #[test]
    fn no_idle_donor_no_decision() {
        let reports = vec![report(0, 0, 0.95, 0.5), report(1, 1, 0.6, 0.5)];
        assert!(decide(
            &reports,
            &Thresholds::default(),
            &CostModel::default(),
            sizes(&reports)
        )
        .is_none());
    }

    #[test]
    fn moves_idle_node_to_overloaded_tier() {
        // Tier 1 node overloaded; tier 0 has two nodes, one idle.
        let reports = vec![
            report(0, 0, 0.1, 0.05),
            report(1, 0, 0.4, 0.2),
            report(2, 1, 0.97, 0.5),
        ];
        let d = decide(
            &reports,
            &Thresholds::default(),
            &CostModel::default(),
            sizes(&reports),
        )
        .expect("decision");
        assert_eq!(d.node, 0);
        assert_eq!(d.to_tier, 1);
        assert_eq!(d.relieves, 2);
    }

    #[test]
    fn respects_min_tier_size_guard() {
        // The only idle node is alone in its tier: M(tier)=1 forbids it.
        let reports = vec![
            report(0, 0, 0.1, 0.05), // idle, sole tier-0 node
            report(1, 1, 0.95, 0.5),
            report(2, 1, 0.9, 0.5),
        ];
        assert!(decide(
            &reports,
            &Thresholds::default(),
            &CostModel::default(),
            sizes(&reports)
        )
        .is_none());
    }

    #[test]
    fn donor_must_be_in_a_different_tier() {
        // Idle node in the same tier as the overloaded one: no move.
        let reports = vec![report(0, 1, 0.1, 0.05), report(1, 1, 0.95, 0.5)];
        assert!(decide(
            &reports,
            &Thresholds::default(),
            &CostModel::default(),
            sizes(&reports)
        )
        .is_none());
    }

    #[test]
    fn urgency_prefers_cpu_over_net() {
        // Two overloaded nodes in different tiers: CPU-bound node 2 should
        // be relieved first (footnote 3) over net-bound node 3.
        let mut net_hot = report(3, 2, 0.2, 0.1);
        net_hot.util.net = 0.99;
        let reports = vec![
            report(0, 0, 0.1, 0.05), // donor (tier 0 has two nodes)
            report(1, 0, 0.4, 0.2),
            report(2, 1, 0.99, 0.3), // cpu-hot
            net_hot,
        ];
        let d = decide(
            &reports,
            &Thresholds::default(),
            &CostModel::default(),
            sizes(&reports),
        )
        .unwrap();
        assert_eq!(d.to_tier, 1);
        assert_eq!(d.relieves, 2);
    }

    #[test]
    fn cheapest_donor_wins() {
        let mut cheap = report(0, 0, 0.1, 0.05);
        cheap.cost = NodeCostInputs {
            jobs: 1.0,
            move_cost: 0.1,
            avg_process_time: 2.0,
        };
        let mut dear = report(1, 0, 0.1, 0.05);
        dear.cost = NodeCostInputs {
            jobs: 50.0,
            move_cost: 2.0,
            avg_process_time: 0.1,
        };
        let reports = vec![cheap, dear, report(2, 0, 0.4, 0.2), report(3, 1, 0.97, 0.4)];
        let d = decide(
            &reports,
            &Thresholds::default(),
            &CostModel::default(),
            sizes(&reports),
        )
        .unwrap();
        assert_eq!(d.node, 0);
    }

    #[test]
    fn immediate_iff_cost_non_positive() {
        let model = CostModel {
            reconfiguration_cost: 1.0,
        };
        // F + N*M - N*A = 1 + 10*0.1 - 10*1.0 = -8 => immediate.
        let cheap_move = NodeCostInputs {
            jobs: 10.0,
            move_cost: 0.1,
            avg_process_time: 1.0,
        };
        assert!(cost_value(&model, &cheap_move) <= 0.0);
        // F + N*M - N*A = 1 + 10*1.0 - 10*0.1 = 10 => drain first.
        let dear_move = NodeCostInputs {
            jobs: 10.0,
            move_cost: 1.0,
            avg_process_time: 0.1,
        };
        assert!(cost_value(&model, &dear_move) > 0.0);

        let mut donor = report(0, 0, 0.1, 0.05);
        donor.cost = cheap_move;
        let reports = vec![donor, report(1, 0, 0.4, 0.2), report(2, 1, 0.99, 0.5)];
        let d = decide(&reports, &Thresholds::default(), &model, sizes(&reports)).unwrap();
        assert!(d.immediate);
        assert!((d.cost_value - (-8.0)).abs() < 1e-12);
    }

    #[test]
    fn mem_only_overload_triggers() {
        let mut r = report(0, 0, 0.2, 0.1);
        r.util.mem = 0.95;
        let reports = vec![r, report(1, 1, 0.1, 0.05), report(2, 1, 0.2, 0.1)];
        let d = decide(
            &reports,
            &Thresholds::default(),
            &CostModel::default(),
            sizes(&reports),
        )
        .unwrap();
        assert_eq!(d.to_tier, 0);
        assert_eq!(d.node, 1);
    }
}
