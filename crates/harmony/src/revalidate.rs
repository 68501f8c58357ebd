//! Best-configuration revalidation under measurement noise.
//!
//! A tuner's "best" observation suffers the winner's curse: over hundreds
//! of noisy iterations, the maximum is biased upward — some of that peak
//! is luck, not configuration. [`Revalidating`] wraps any [`Tuner`] and
//! periodically re-proposes the incumbent best configuration instead of a
//! new exploration point, maintaining an *averaged* performance estimate
//! per configuration. Its [`Revalidating::validated_best`] reports the
//! configuration with the best noise-corrected mean.

use crate::space::{Configuration, ParamSpace};
use crate::tuner::Tuner;
use std::collections::HashMap;

/// Wraps a tuner, spending every `period`-th iteration re-measuring the
/// incumbent best configuration.
pub struct Revalidating<T: Tuner> {
    inner: T,
    period: u32,
    counter: u32,
    /// What the pending proposal is: exploration (forwarded to the inner
    /// tuner) or a revalidation of a stored configuration.
    pending: Option<Pending>,
    /// Sum/count of observations per configuration we have revalidated.
    estimates: HashMap<Configuration, (f64, u32)>,
}

enum Pending {
    Exploration,
    Revalidation(Configuration),
}

impl<T: Tuner> Revalidating<T> {
    /// Revalidate every `period` proposals (period >= 2).
    pub fn new(inner: T, period: u32) -> Self {
        assert!(period >= 2, "period must leave room for exploration");
        Revalidating {
            inner,
            period,
            counter: 0,
            pending: None,
            estimates: HashMap::new(),
        }
    }

    /// The configuration with the best *averaged* performance among those
    /// revalidated at least once, with its mean and sample count. Falls
    /// back to the inner tuner's single-observation best.
    pub fn validated_best(&self) -> Option<(Configuration, f64, u32)> {
        let averaged = self
            .estimates
            .iter()
            .filter(|(_, (_, n))| *n >= 2)
            .map(|(c, (sum, n))| (c.clone(), sum / *n as f64, *n))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        averaged.or_else(|| self.inner.best().map(|(c, p)| (c.clone(), p, 1)))
    }

    fn record_estimate(&mut self, config: Configuration, perf: f64) {
        let e = self.estimates.entry(config).or_insert((0.0, 0));
        e.0 += perf;
        e.1 += 1;
    }
}

impl<T: Tuner> Tuner for Revalidating<T> {
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }

    fn propose(&mut self) -> Configuration {
        assert!(self.pending.is_none(), "propose() twice without observe()");
        self.counter += 1;
        let revalidate_now = self.counter.is_multiple_of(self.period);
        if revalidate_now {
            if let Some((best, _)) = self.inner.best() {
                let config = best.clone();
                self.pending = Some(Pending::Revalidation(config.clone()));
                return config;
            }
        }
        let config = self.inner.propose();
        self.pending = Some(Pending::Exploration);
        config
    }

    fn observe(&mut self, performance: f64) {
        let Some(pending) = self.pending.take() else {
            panic!("observe() without propose()");
        };
        match pending {
            Pending::Exploration => {
                self.inner.observe(performance);
                // Seed the estimate table whenever an exploration sample
                // becomes the new incumbent, so revalidation has a base
                // observation to average against.
                if let Some((c, p)) = self.inner.best() {
                    if p == performance {
                        self.record_estimate(c.clone(), performance);
                    }
                }
            }
            Pending::Revalidation(config) => {
                self.record_estimate(config, performance);
                // The inner tuner does not see revalidation samples — its
                // propose/observe protocol stays strictly alternating on
                // exploration steps only.
            }
        }
    }

    fn best(&self) -> Option<(&Configuration, f64)> {
        self.inner.best()
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }

    fn name(&self) -> &'static str {
        "revalidating"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamDef;
    use crate::simplex::SimplexTuner;
    use simkit::rng::SimRng;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![ParamDef::new("x", 0, 100, 50)])
    }

    #[test]
    fn revalidates_on_schedule() {
        let mut t = Revalidating::new(SimplexTuner::new(space()), 3);
        let mut proposals = Vec::new();
        for i in 0..12 {
            let c = t.propose();
            proposals.push(c.get(0));
            t.observe(-((proposals[i] - 70) as f64).abs());
        }
        // Every third proposal repeats the incumbent best (which is in
        // the list of earlier proposals).
        for i in (2..12).step_by(3) {
            assert!(
                proposals[..i].contains(&proposals[i]),
                "proposal {i} was not a revisit: {proposals:?}"
            );
        }
    }

    #[test]
    fn validated_best_corrects_winners_curse() {
        // True performance is constant 50 everywhere; heavy noise makes
        // single observations swing ±30. The raw best is inflated; the
        // validated mean must sit close to 50.
        let mut t = Revalidating::new(SimplexTuner::new(space()), 2);
        let mut rng = SimRng::new(9);
        for _ in 0..200 {
            let _ = t.propose();
            t.observe(50.0 + rng.normal(0.0, 10.0));
        }
        let raw_best = t.best().unwrap().1;
        let (_, validated_mean, n) = t.validated_best().unwrap();
        assert!(n >= 2);
        assert!(
            raw_best - validated_mean > 5.0,
            "raw {raw_best:.1} should exceed validated {validated_mean:.1}"
        );
        assert!(
            (validated_mean - 50.0).abs() < 10.0,
            "validated mean {validated_mean:.1} should approach truth"
        );
    }

    #[test]
    fn falls_back_to_inner_best_before_any_revalidation() {
        let mut t = Revalidating::new(SimplexTuner::new(space()), 10);
        let c = t.propose();
        t.observe(42.0);
        let (best, perf, n) = t.validated_best().unwrap();
        assert_eq!(best, c);
        assert_eq!(perf, 42.0);
        assert_eq!(n, 1);
    }

    #[test]
    fn protocol_stays_strict() {
        let mut t = Revalidating::new(SimplexTuner::new(space()), 2);
        for i in 0..20 {
            let _ = t.propose();
            t.observe(i as f64);
        }
        // Inner tuner saw only the exploration observations.
        assert!(t.inner.evaluations() <= 20);
    }

    #[test]
    #[should_panic(expected = "period must leave room")]
    fn period_of_one_rejected() {
        let _ = Revalidating::new(SimplexTuner::new(space()), 1);
    }
}
