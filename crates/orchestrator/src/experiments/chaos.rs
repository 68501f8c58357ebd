//! EXP-CHAOS: the chaos conformance matrix.
//!
//! Not a paper artifact — the paper tunes a healthy testbed — but the
//! operational question its §V leaves open: does the tuner *survive* a
//! hostile cluster? Every registered tuning algorithm runs against every
//! plan in the chaos library ([`faults::library`]) under the fully
//! hardened policy stack (retry ∘ timeout ∘ breaker ∘ bulkhead with
//! graceful degradation). The contract per cell: finish or degrade —
//! never panic, never hang, never report a non-finite throughput.
//!
//! The grid fans out across cores on the shared worker pool
//! ([`crate::par::shared_pool`]); the same [`Bulkhead`] that caps
//! in-flight evaluations inside the stack clamps the fan-out width, so
//! one knob governs both layers of parallelism.

use super::{scale_pop, Effort};
use crate::par::shared_pool;
use crate::resilient::{run_resilient_session_observed, ResilienceSettings};
use crate::session::{SessionConfig, SessionError, SessionObserver};
use cluster::config::Topology;
use resilience::Bulkhead;
use tpcw::mix::Workload;

/// One tuner × chaos-plan cell of the matrix.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    pub tuner: &'static str,
    pub plan: &'static str,
    pub best_wips: f64,
    pub mean_wips: f64,
    /// Iterations that ended with a usable (valid) sample.
    pub ok_iterations: usize,
    pub iterations: usize,
    pub retries: usize,
    pub timeouts: usize,
    pub breaker_opens: usize,
    pub degraded: usize,
    pub reconfigs: usize,
}

impl ChaosCell {
    /// The conformance verdict: the session produced every record with a
    /// finite, non-negative throughput.
    pub fn conformant(&self) -> bool {
        self.iterations > 0 && self.best_wips.is_finite() && self.best_wips >= 0.0
    }
}

/// The full matrix plus its axes, in deterministic order.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    pub cells: Vec<ChaosCell>,
    pub tuners: Vec<&'static str>,
    pub plans: Vec<&'static str>,
}

impl ChaosResult {
    /// Render the matrix as CSV (one row per cell).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "tuner,plan,best_wips,mean_wips,ok_iterations,iterations,\
             retries,timeouts,breaker_opens,degraded,reconfigs\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{},{},{},{},{},{},{}\n",
                c.tuner,
                c.plan,
                c.best_wips,
                c.mean_wips,
                c.ok_iterations,
                c.iterations,
                c.retries,
                c.timeouts,
                c.breaker_opens,
                c.degraded,
                c.reconfigs
            ));
        }
        out
    }
}

/// The topology the matrix runs on: one proxy, two app nodes, one
/// database node — small enough that the chaos plans genuinely hurt.
pub(crate) fn topology() -> Topology {
    // Tier counts are literals; `tiers` only fails on a zero count.
    #[allow(clippy::expect_used)]
    Topology::tiers(1, 2, 1).expect("valid topology")
}

/// The hardened policy profile the matrix runs under: every optional
/// layer live, per-attempt budget of two windows.
pub(crate) fn settings(effort: &Effort) -> ResilienceSettings {
    ResilienceSettings {
        breaker_threshold: 2,
        breaker_half_open_after: Some(2),
        timeout_s: Some(effort.plan.total().as_secs_f64() * 2.0),
        bulkhead: Some(4),
        degrade_to_best: true,
        ..Default::default()
    }
}

/// Run the matrix: every registered tuner × every chaos-library plan.
pub fn run(effort: &Effort, seed: u64) -> Result<ChaosResult, SessionError> {
    let tuners = harmony::registry::tuner_names().to_vec();
    let settings = settings(effort);
    let topology = topology();
    let plans = faults::library::all(effort.plan.total().as_secs_f64(), topology.len());
    let plan_names: Vec<&'static str> = plans.iter().map(|p| p.name).collect();

    let grid: Vec<(&'static str, faults::ChaosPlan)> = tuners
        .iter()
        .flat_map(|&t| plans.iter().map(move |p| (t, p.clone())))
        .collect();
    // One knob for both layers of parallelism: the stack's bulkhead cap
    // also clamps the grid fan-out (0 = one worker per core, clamped).
    let threads = Bulkhead::new(settings.bulkhead).clamp_threads(0);
    let (effort, population) = (*effort, scale_pop(600, effort));
    let outs = shared_pool().run_batch(grid, threads, move |&(tuner, ref chaos)| {
        let cfg = SessionConfig::new(topology.clone(), Workload::Shopping, population)
            .plan(effort.plan)
            .base_seed(seed)
            .tuner(tuner)
            .fault_plan(chaos.plan.clone());
        run_resilient_session_observed(
            &cfg,
            &settings,
            effort.iterations,
            &mut SessionObserver::none(),
        )
        .map(|run| {
            let count = |a: &str| run.recoveries.iter().filter(|r| r.action == a).count();
            let usable = run.records.iter().filter(|r| r.wips > 0.0).count();
            let mean = if run.records.is_empty() {
                0.0
            } else {
                run.records.iter().map(|r| r.wips).sum::<f64>() / run.records.len() as f64
            };
            ChaosCell {
                tuner,
                plan: chaos.name,
                best_wips: run.best_wips,
                mean_wips: mean,
                ok_iterations: usable,
                iterations: run.records.len(),
                retries: count("retry"),
                timeouts: count("timeout"),
                breaker_opens: count("breaker_open"),
                degraded: count("degraded"),
                reconfigs: run.reconfigs.len(),
            }
        })
    });
    let cells = outs.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(ChaosResult {
        cells,
        tuners,
        plans: plan_names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_is_fully_conformant() {
        let effort = Effort::smoke();
        let r = run(&effort, 11).expect("matrix");
        assert_eq!(r.cells.len(), r.tuners.len() * r.plans.len());
        for c in &r.cells {
            assert!(c.conformant(), "{c:?}");
            assert_eq!(c.iterations, effort.iterations as usize, "{c:?}");
        }
        // The library's storms must actually exercise the stack somewhere
        // in the matrix — a chaos suite that never triggers a policy is
        // not testing anything.
        assert!(r.cells.iter().any(|c| c.retries > 0), "no retries at all");
        assert!(
            r.cells
                .iter()
                .any(|c| c.degraded > 0 || c.breaker_opens > 0),
            "no degradation or breaker trips at all"
        );
    }

    #[test]
    fn matrix_is_deterministic() {
        let effort = Effort::smoke();
        let a = run(&effort, 5).expect("a");
        let b = run(&effort, 5).expect("b");
        let key = |r: &ChaosResult| -> Vec<(u64, usize, usize)> {
            r.cells
                .iter()
                .map(|c| (c.best_wips.to_bits(), c.retries, c.degraded))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let effort = Effort::smoke();
        let r = run(&effort, 3).expect("matrix");
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 1 + r.cells.len());
        assert!(csv.starts_with("tuner,plan,"));
    }
}
