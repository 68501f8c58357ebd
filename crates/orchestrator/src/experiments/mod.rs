//! Paper-experiment runners: one per table/figure of the evaluation.
//!
//! Every runner takes an [`Effort`] so the same code path serves three
//! audiences: `paper()` regenerates the published artifact at full
//! fidelity, `quick()` gives a CI-speed approximation, and `smoke()` is
//! for unit tests.
//!
//! The browser populations are the calibrated operating points from
//! DESIGN.md §4 — chosen so the default configuration saturates each
//! workload's bottleneck the way the paper's testbed did.

pub mod chaos;
pub mod detect;
pub mod faults;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod resume;
pub mod sensitivity;
pub mod table3;
pub mod table4;
pub mod tuners;
pub mod tuning_process;

use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;

/// How much simulation to spend.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Measurement plan per iteration.
    pub plan: IntervalPlan,
    /// Tuning iterations per run (paper: 200).
    pub iterations: u32,
    /// Independent replicas for baseline/static measurements.
    pub reps: u32,
    /// Scale factor applied to all browser populations (1.0 = calibrated).
    pub(crate) population_scale: f64,
}

impl Effort {
    /// Full-fidelity regeneration (matches the paper's 200 iterations;
    /// interval plan is the proportionally reduced `fast` plan — see the
    /// DESIGN.md substitution table).
    pub fn paper() -> Effort {
        Effort {
            plan: IntervalPlan::fast(),
            iterations: 200,
            reps: 5,
            population_scale: 1.0,
        }
    }

    /// CI-speed approximation (a couple of minutes). Uses the same
    /// calibrated measurement plan as `paper()` — the tiny plan's short
    /// warm-up leaves proxy caches cold and shifts the bottleneck.
    pub fn quick() -> Effort {
        Effort {
            plan: IntervalPlan::fast(),
            iterations: 60,
            reps: 2,
            population_scale: 1.0,
        }
    }

    /// Unit-test speed; shapes are noisy at this effort.
    pub fn smoke() -> Effort {
        Effort {
            plan: IntervalPlan::tiny(),
            iterations: 10,
            reps: 1,
            population_scale: 0.25,
        }
    }
}

/// Calibrated per-workload operating points (browser populations) for the
/// single-work-line (1 proxy / 1 app / 1 db) experiments of §III.A.
pub fn population_for(workload: Workload, effort: &Effort) -> u32 {
    let base = match workload {
        Workload::Browsing => 1_300,
        Workload::Shopping => 1_700,
        Workload::Ordering => 1_450,
    };
    scale_pop(base, effort)
}

pub(crate) fn scale_pop(base: u32, effort: &Effort) -> u32 {
    ((base as f64 * effort.population_scale).round() as u32).max(10)
}

/// Operating point for the Figure 5 changing-workload run.
pub(crate) fn fig5_population(effort: &Effort) -> u32 {
    scale_pop(1_500, effort)
}

/// Operating point and topology scale for Table 4 (2 nodes per tier).
pub(crate) fn table4_population(effort: &Effort) -> u32 {
    scale_pop(3_400, effort)
}
