//! Cohort-batched load model: collapse N emulated browsers into a
//! bounded set of weighted *tokens* whose think-time returns are
//! quantised onto a slot wheel.
//!
//! The per-browser model schedules one think-time event per browser,
//! so the calendar queue's pending set — and the event count — grows
//! linearly with population. The cohort model caps the number of
//! circulating entities at `bins × Interaction::COUNT` tokens; each
//! token stands for `weight` browsers. Service demand is multiplied by
//! the token weight (so tier utilisation and the saturation throughput
//! `capacity / demand` match the per-browser model exactly) and every
//! completion/error/drop is counted `weight` times. Think-time returns
//! are rounded to the nearest multiple of `bin_width =
//! think_mean / bins`; all tokens landing in the same slot are
//! released by a single batch event. Round-to-nearest keeps the
//! quantisation zero-mean, so the long-run cycle rate — and therefore
//! WIPS — is unbiased.
//!
//! When `population <= bins × Interaction::COUNT` the weight is 1 and
//! the cohort model differs from the per-browser model only by think
//! quantisation and batched releases — that is the regime where the
//! equivalence gates are tight.

use crate::interaction::Interaction;
use simkit::time::{SimDuration, SimTime};

/// Default number of think-time bins for the cohort model. With 14
/// interactions this caps the circulating population at 896 tokens.
pub const DEFAULT_COHORT_BINS: u32 = 64;

/// Which browser-population model drives the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadModel {
    /// One discrete entity (and one think-time event) per browser.
    /// The historical model; all golden fingerprints are pinned to it.
    #[default]
    PerBrowser,
    /// Weighted tokens on a think-time slot wheel; event count is
    /// bounded by `bins × Interaction::COUNT` regardless of population.
    Cohort {
        /// Number of think-time quantisation bins (slot wheel width is
        /// `think_mean / bins`). Must be at least 1.
        bins: u32,
    },
}

impl LoadModel {
    /// Short human-readable name (`per-browser` / `cohort`), matching
    /// the CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            LoadModel::PerBrowser => "per-browser",
            LoadModel::Cohort { .. } => "cohort",
        }
    }
}

impl std::fmt::Display for LoadModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadModel::PerBrowser => write!(f, "per-browser"),
            LoadModel::Cohort { bins } => write!(f, "cohort({bins})"),
        }
    }
}

/// The resolved cohort geometry for one scenario: how many tokens
/// circulate, what each is worth, and how think returns quantise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortPlan {
    /// The browser population the tokens stand for.
    pub(crate) population: u32,
    /// Number of circulating tokens (`<= bins × Interaction::COUNT`).
    pub tokens: u32,
    /// Browsers per token; the last token may carry a remainder (see
    /// [`CohortPlan::token_weight`]). Weights sum to `population`.
    pub weight: u32,
    /// Width of one think-time slot.
    pub(crate) bin_width: SimDuration,
}

impl CohortPlan {
    /// Build the plan for `population` browsers with mean think time
    /// `think_mean` and `bins` quantisation bins (clamped to >= 1).
    pub fn build(population: u32, think_mean: SimDuration, bins: u32) -> CohortPlan {
        let bins = bins.max(1);
        let max_tokens = bins.saturating_mul(Interaction::COUNT as u32).max(1);
        let weight = population.div_ceil(max_tokens).max(1);
        let tokens = population.div_ceil(weight).max(1);
        let width_us = (think_mean.as_micros() / u64::from(bins)).max(1);
        CohortPlan {
            population,
            tokens,
            weight,
            bin_width: SimDuration::from_micros(width_us),
        }
    }

    /// How many browsers token `token` stands for. Every token weighs
    /// `weight` except the last, which carries the remainder so the
    /// weights sum exactly to `population`.
    pub fn token_weight(&self, token: u32) -> u32 {
        if token + 1 < self.tokens {
            self.weight
        } else {
            let full = u64::from(self.weight) * u64::from(self.tokens - 1);
            (u64::from(self.population).saturating_sub(full)).max(1) as u32
        }
    }

    /// Slot index nearest to `at` (round-to-nearest keeps quantisation
    /// zero-mean). Saturates at `u32::MAX` slots — ~71 simulated
    /// minutes per slot-microsecond of width, far beyond any plan.
    pub fn slot_of(&self, at: SimTime) -> u32 {
        let w = self.bin_width.as_micros().max(1);
        ((at.as_micros().saturating_add(w / 2)) / w).min(u64::from(u32::MAX)) as u32
    }

    /// Absolute release time of slot `slot`.
    pub fn slot_time(&self, slot: u32) -> SimTime {
        SimTime::ZERO
            + SimDuration::from_micros(self.bin_width.as_micros().saturating_mul(u64::from(slot)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn think() -> SimDuration {
        SimDuration::from_secs_f64(7.0)
    }

    #[test]
    fn small_populations_keep_weight_one() {
        for pop in [1, 14, 100, 896] {
            let p = CohortPlan::build(pop, think(), DEFAULT_COHORT_BINS);
            assert_eq!(p.weight, 1, "population {pop}");
            assert_eq!(p.tokens, pop);
        }
    }

    #[test]
    fn token_weights_sum_to_population() {
        for pop in [1, 13, 100, 897, 1_000, 10_000, 123_457, 1_000_000] {
            for bins in [1, 4, 48, 64] {
                let p = CohortPlan::build(pop, think(), bins);
                let sum: u64 = (0..p.tokens).map(|t| u64::from(p.token_weight(t))).sum();
                assert_eq!(sum, u64::from(pop), "pop {pop} bins {bins}");
                assert!(
                    p.tokens <= bins.max(1) * Interaction::COUNT as u32,
                    "pop {pop} bins {bins}: {} tokens",
                    p.tokens
                );
            }
        }
    }

    #[test]
    fn million_browsers_need_bounded_tokens() {
        let p = CohortPlan::build(1_000_000, think(), DEFAULT_COHORT_BINS);
        assert_eq!(p.tokens, 896);
        assert_eq!(p.weight, 1117);
        // 895 tokens at full weight plus one remainder token.
        assert_eq!(p.token_weight(0), 1117);
        assert_eq!(p.token_weight(p.tokens - 1), 1_000_000 - 1117 * 895);
    }

    #[test]
    fn slot_rounding_is_nearest() {
        let p = CohortPlan::build(1_000, think(), 64);
        let w = p.bin_width.as_micros();
        assert_eq!(p.slot_of(SimTime::ZERO), 0);
        // Just below the halfway point rounds down; at or past it, up.
        assert_eq!(
            p.slot_of(SimTime::ZERO + SimDuration::from_micros(w / 2 - 1)),
            0
        );
        assert_eq!(
            p.slot_of(SimTime::ZERO + SimDuration::from_micros(w.div_ceil(2))),
            1
        );
        // Round-trip error is at most half a slot.
        for us in [0_u64, 123_456, 7_000_000, 90_000_000] {
            let t = SimTime::ZERO + SimDuration::from_micros(us);
            let back = p.slot_time(p.slot_of(t));
            let err = back.as_micros().abs_diff(us);
            assert!(err * 2 <= w, "t={us} err={err} w={w}");
        }
    }

    #[test]
    fn zero_bins_is_clamped() {
        // bins=0 clamps to 1 bin: 14 token slots, weight ceil(100/14)=8,
        // tokens ceil(100/8)=13.
        let p = CohortPlan::build(100, think(), 0);
        assert_eq!(p.weight, 8);
        assert_eq!(p.tokens, 13);
        assert!(p.bin_width.as_micros() >= 1);
    }

    #[test]
    fn load_model_names() {
        assert_eq!(LoadModel::PerBrowser.name(), "per-browser");
        assert_eq!(LoadModel::Cohort { bins: 64 }.name(), "cohort");
        assert_eq!(LoadModel::default(), LoadModel::PerBrowser);
        assert_eq!(format!("{}", LoadModel::Cohort { bins: 8 }), "cohort(8)");
    }
}
