//! §III.A tuning-process experiment (the browsing/ordering tuning curves
//! and their summary statistics).
//!
//! Reproduces the paper's reported facts: for the browsing workload the
//! tuner beats the default configuration in ~78% of the second hundred
//! iterations (average improvement a few percent); for the ordering
//! workload the default is already good, ~85% of iterations beat it, and
//! the headline improvement stays small.

use super::{population_for, Effort};
use crate::session::{tune_observed, SessionConfig, SessionObserver, TuningRun};
use cluster::config::Topology;
use harmony::strategy::TuningMethod;
use tpcw::mix::Workload;

/// Result of one workload's tuning-process run.
#[derive(Debug, Clone)]
pub struct TuningProcessResult {
    pub workload: Workload,
    /// Default-configuration WIPS (mean over replicas).
    pub default_wips: f64,
    /// Default-configuration WIPS standard deviation across replicas.
    pub default_std: f64,
    /// Per-iteration WIPS trace.
    pub wips_series: Vec<f64>,
    /// Best WIPS found and when.
    pub best_wips: f64,
    pub convergence_iteration: u32,
    /// Mean WIPS over the second half of the run.
    pub second_half_mean: f64,
    /// Std-dev over the second half.
    pub second_half_std: f64,
    /// Fraction of second-half iterations beating the default.
    pub fraction_better_than_default: f64,
    /// Mean improvement of the second half vs the default.
    pub avg_improvement: f64,
    /// Best-config improvement vs the default.
    pub best_improvement: f64,
}

/// Run the tuning process for one workload on the single-line topology.
pub fn run(workload: Workload, effort: &Effort, seed: u64) -> (TuningProcessResult, TuningRun) {
    let cfg = SessionConfig::new(
        Topology::single(),
        workload,
        population_for(workload, effort),
    )
    .plan(effort.plan)
    .base_seed(seed);
    let (default_wips, default_std) = cfg.measure_default(effort.reps);
    let run = tune_observed(
        &cfg,
        TuningMethod::Default,
        effort.iterations,
        &mut SessionObserver::none(),
    )
    .unwrap_or_else(|e| panic!("tuning session failed: {e}"));

    let half = (effort.iterations / 2) as usize;
    let end = effort.iterations as usize;
    let (mean2, std2) = run.window_stats(half, end);
    let frac = run.fraction_above(half, end, default_wips);
    let result = TuningProcessResult {
        workload,
        default_wips,
        default_std,
        wips_series: run.wips_series(),
        best_wips: run.best_wips,
        convergence_iteration: run.convergence_iteration,
        second_half_mean: mean2,
        second_half_std: std2,
        fraction_better_than_default: frac,
        avg_improvement: mean2 / default_wips - 1.0,
        best_improvement: run.best_wips / default_wips - 1.0,
    };
    (result, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_consistent_summary() {
        let effort = Effort::smoke();
        let (r, run) = run(Workload::Browsing, &effort, 11);
        assert_eq!(r.wips_series.len(), effort.iterations as usize);
        assert_eq!(run.records.len(), effort.iterations as usize);
        assert!(r.default_wips > 0.0);
        assert!(r.best_wips >= r.second_half_mean - 1e-9 || r.best_wips > 0.0);
        assert!((0.0..=1.0).contains(&r.fraction_better_than_default));
        assert!(r.best_improvement >= r.avg_improvement - 1.0); // sanity
    }
}
