//! Table 4: cluster tuning methods compared.
//!
//! Four rows — no tuning, default method (one server, every parameter),
//! parameter duplication, parameter partitioning — on a two-nodes-per-tier
//! cluster. Reported per method: best-config WIPS, the standard deviation
//! over the second half of the run (tuning stability), improvement over
//! the untuned baseline, and iterations to reach the best configuration.

use super::{table4_population, Effort};
use crate::par::shared_pool;
use crate::session::{tune_observed, SessionConfig, SessionObserver};
use cluster::config::Topology;
use harmony::strategy::TuningMethod;
use tpcw::mix::Workload;

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    pub method: TuningMethod,
    /// Performance of the best configuration found.
    pub best_wips: f64,
    /// Std-dev of per-iteration WIPS over the second half of the run.
    pub stability_std: f64,
    /// Improvement of `best_wips` over the untuned baseline.
    pub improvement: f64,
    /// First iteration reaching 99% of the run's best WIPS.
    pub iterations_to_converge: u32,
}

/// The whole table.
#[derive(Debug, Clone)]
pub struct Table4Result {
    pub baseline_wips: f64,
    pub baseline_std: f64,
    pub rows: Vec<Table4Row>,
}

/// Which methods to include (the paper's four; add Hybrid for the
/// future-work ablation).
pub fn paper_methods() -> Vec<TuningMethod> {
    vec![
        TuningMethod::Default,
        TuningMethod::Duplication,
        TuningMethod::Partitioning,
    ]
}

/// Run Table 4 on the given methods (in parallel — each method's tuning
/// run is independent).
pub fn run(methods: &[TuningMethod], effort: &Effort, seed: u64) -> Table4Result {
    // Tier counts are literals; `tiers` only fails on a zero count.
    #[allow(clippy::expect_used)]
    let topology = Topology::tiers(2, 2, 2).expect("valid topology");
    let base = SessionConfig::new(topology, Workload::Shopping, table4_population(effort))
        .plan(effort.plan)
        .base_seed(seed);

    let (baseline_wips, baseline_std) = base.measure_default(effort.reps.max(2));

    // Each method's tuning run is one pool job; rows come back in method
    // order whatever the worker count.
    let session = base.clone();
    let effort = *effort;
    let rows = shared_pool().run_batch(methods.to_vec(), 0, move |&method| {
        // Decorrelate methods' measurement noise.
        let cfg = session
            .clone()
            .base_seed(seed ^ (method as u64).wrapping_mul(0x9E37_79B9));
        let run = tune_observed(
            &cfg,
            method,
            effort.iterations,
            &mut SessionObserver::none(),
        )
        .unwrap_or_else(|e| panic!("table 4 tuning session failed: {e}"));
        let half = (effort.iterations / 2) as usize;
        let (_, std2) = run.window_stats(half, effort.iterations as usize);
        Table4Row {
            method,
            best_wips: run.best_wips,
            stability_std: std2,
            improvement: run.best_wips / baseline_wips - 1.0,
            iterations_to_converge: run.first_within(0.99),
        }
    });

    Table4Result {
        baseline_wips,
        baseline_std,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_table_has_requested_methods() {
        let effort = Effort::smoke();
        let methods = vec![TuningMethod::Duplication, TuningMethod::Partitioning];
        let r = run(&methods, &effort, 5);
        assert!(r.baseline_wips > 0.0);
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert!(row.best_wips > 0.0);
            assert!(row.iterations_to_converge < effort.iterations);
            assert!(row.stability_std >= 0.0);
        }
    }
}
