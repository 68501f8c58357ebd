//! Parameter sensitivity analysis.
//!
//! §III.A: "the Active Harmony tuning process is also helpful for system
//! administrators and developers to identify those parameters that
//! actually affect system performance" — e.g. the cache-swap watermarks
//! turned out not to matter, while thread counts and buffer sizes did.
//!
//! This experiment makes that claim mechanical: one-at-a-time sweeps of
//! every Table 3 parameter to its range boundaries (all else at default),
//! reporting each parameter's throughput impact.

use super::{population_for, Effort};
use crate::binding;
use crate::par::shared_pool;
use crate::session::SessionConfig;
use cluster::config::Topology;
use tpcw::mix::Workload;

/// Sensitivity of one parameter.
#[derive(Debug, Clone)]
pub struct ParamSensitivity {
    pub name: String,
    /// WIPS with the parameter at its minimum (all else default).
    pub at_min: f64,
    /// WIPS with the parameter at its maximum.
    pub at_max: f64,
    /// Largest relative deviation from the default-config WIPS.
    pub impact: f64,
}

/// Result of the sweep for one workload.
#[derive(Debug, Clone)]
pub struct SensitivityResult {
    pub workload: Workload,
    pub default_wips: f64,
    /// Per-parameter sensitivities, sorted by impact (largest first).
    pub entries: Vec<ParamSensitivity>,
}

impl SensitivityResult {
    /// Impact of a named parameter (0 if unknown).
    #[cfg(test)]
    fn impact_of(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|e| e.name.ends_with(name))
            .map(|e| e.impact)
            .unwrap_or(0.0)
    }
}

/// Run the one-at-a-time sweep on the single-work-line topology.
pub fn run(workload: Workload, effort: &Effort, seed: u64) -> SensitivityResult {
    let topology = Topology::single();
    // Pin the seed: sensitivity compares configurations, so measurement
    // noise between cells would masquerade as impact.
    let base = SessionConfig::new(topology.clone(), workload, population_for(workload, effort))
        .plan(effort.plan)
        .base_seed(seed)
        .pin_seed(true);

    let space = binding::full_space(&topology);
    let default_config = space.default_config();
    let default_wips = base
        .evaluate(binding::config_from_full(&topology, &default_config), 0)
        .metrics
        .wips;

    let dims: Vec<usize> = (0..space.dims()).collect();
    // One dimension = one pool job; entries land in dimension order before
    // the impact sort, so worker count never changes the result.
    let mut entries = shared_pool().run_batch(dims, 0, move |&dim| {
        let def = space.def(dim);
        let mut low = default_config.clone();
        low.set(dim, def.min);
        let mut high = default_config.clone();
        high.set(dim, def.max);
        let at_min = base
            .evaluate(binding::config_from_full(&topology, &low), 0)
            .metrics
            .wips;
        let at_max = base
            .evaluate(binding::config_from_full(&topology, &high), 0)
            .metrics
            .wips;
        let impact = ((at_min - default_wips).abs() / default_wips)
            .max((at_max - default_wips).abs() / default_wips);
        ParamSensitivity {
            name: def.name.clone(),
            at_min,
            at_max,
            impact,
        }
    });
    entries.sort_by(|a, b| b.impact.total_cmp(&a.impact));
    SensitivityResult {
        workload,
        default_wips,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_parameter() {
        let effort = Effort::smoke();
        let r = run(Workload::Shopping, &effort, 9);
        assert_eq!(r.entries.len(), 23);
        assert!(r.default_wips > 0.0);
        // Sorted descending.
        for pair in r.entries.windows(2) {
            assert!(pair[0].impact >= pair[1].impact);
        }
        // Impacts are finite and non-negative.
        for e in &r.entries {
            assert!(e.impact.is_finite() && e.impact >= 0.0, "{}", e.name);
        }
    }

    #[test]
    fn swap_watermarks_are_inert_even_at_smoke_scale() {
        // The paper's flagship "does not matter" parameters: pinned seed
        // makes this exact — the watermarks do not enter any service-time
        // path, so the impact is strictly zero.
        let effort = Effort::smoke();
        let r = run(Workload::Browsing, &effort, 10);
        assert_eq!(r.impact_of("cache_swap_low"), 0.0);
        assert_eq!(r.impact_of("cache_swap_high"), 0.0);
    }
}
