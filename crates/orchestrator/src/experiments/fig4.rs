//! Figure 4: no single configuration is good for every workload.
//!
//! For each workload, take the best configuration found after the tuning
//! run and apply it to *all three* workloads. The paper's finding: each
//! column of the resulting 3×3 WIPS matrix is won by its own workload's
//! configuration, and the diagonal improves on the default by 5–16%.

use super::{population_for, Effort};
use crate::par::shared_pool;
use crate::session::SessionConfig;
use cluster::config::{ClusterConfig, Topology};
use tpcw::mix::Workload;

/// The Figure 4 matrix and improvement table.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// `wips[c][w]`: config tuned for workload `c` run under workload `w`
    /// (indices follow [`Workload::ALL`]).
    pub wips: [[f64; 3]; 3],
    /// Default-config WIPS per workload.
    pub default_wips: [f64; 3],
    /// Diagonal improvement vs default per workload (the figure's table).
    pub improvement: [f64; 3],
}

impl Fig4Result {
    /// Does each workload's own configuration win its column?
    pub fn diagonal_dominates(&self) -> bool {
        (0..3).all(|w| (0..3).all(|c| self.wips[w][w] >= self.wips[c][w] - 1e-9))
    }
}

/// Evaluate the cross-workload matrix given the three tuned configs.
///
/// `configs[i]` is the best configuration found when tuning for
/// `Workload::ALL[i]`. Each cell is the mean over `effort.reps` seeds, run
/// in parallel.
pub fn run_with_configs(configs: &[ClusterConfig; 3], effort: &Effort, seed: u64) -> Fig4Result {
    // Cells: (config index, workload index) plus defaults (3, workload).
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for c in 0..4 {
        for w in 0..3 {
            cells.push((c, w));
        }
    }
    let reps = effort.reps.max(1);
    // Whole cells are the unit of parallelism: each schedules onto the
    // shared worker pool alongside replications and queued-trial prefetch,
    // and results merge back in cell order regardless of worker count.
    let tuned = configs.clone();
    let effort = *effort;
    let results = shared_pool().run_batch(cells.clone(), 0, move |&(c, w)| {
        let workload = Workload::ALL[w];
        let cfg = SessionConfig::new(
            Topology::single(),
            workload,
            population_for(workload, &effort),
        )
        .plan(effort.plan)
        .base_seed(seed ^ ((c as u64) << 32) ^ w as u64);
        let config = if c < 3 {
            tuned[c].clone()
        } else {
            ClusterConfig::defaults(&cfg.topology)
        };
        let mut total = 0.0;
        for r in 0..reps {
            total += cfg.evaluate(config.clone(), r).metrics.wips;
        }
        total / reps as f64
    });
    let mut wips = [[0.0; 3]; 3];
    let mut default_wips = [0.0; 3];
    for (&(c, w), v) in cells.iter().zip(&results) {
        if c < 3 {
            wips[c][w] = *v;
        } else {
            default_wips[w] = *v;
        }
    }
    let mut improvement = [0.0; 3];
    for w in 0..3 {
        improvement[w] = wips[w][w] / default_wips[w] - 1.0;
    }
    Fig4Result {
        wips,
        default_wips,
        improvement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_fills_and_default_is_positive() {
        let effort = Effort::smoke();
        let t = Topology::single();
        let configs = [
            ClusterConfig::defaults(&t),
            ClusterConfig::defaults(&t),
            ClusterConfig::defaults(&t),
        ];
        let r = run_with_configs(&configs, &effort, 3);
        for w in 0..3 {
            assert!(r.default_wips[w] > 0.0);
            for c in 0..3 {
                assert!(r.wips[c][w] > 0.0);
            }
            // All configs are the default here, so improvements ~0.
            assert!(r.improvement[w].abs() < 0.25, "{:?}", r.improvement);
        }
    }
}
