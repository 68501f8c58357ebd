//! TPC-W measurement: intervals, WIPS, and per-class accounting.
//!
//! The paper measures one *iteration* as 100 s warm-up + 1000 s
//! measurement + 100 s cool-down (simulated time here). Only interactions
//! completing inside the measurement window count toward WIPS.

use crate::interaction::{Interaction, InteractionClass};
use simkit::stats::{DurationHistogram, Welford};
use simkit::time::{SimDuration, SimTime};

/// The three phases of a measurement iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Measure,
    Cooldown,
    /// After the cooldown has elapsed.
    Done,
}

/// Interval plan for one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalPlan {
    pub warmup: SimDuration,
    pub measure: SimDuration,
    pub cooldown: SimDuration,
}

impl IntervalPlan {
    /// The paper's intervals: 100 s / 1000 s / 100 s.
    pub fn hpdc04() -> Self {
        IntervalPlan {
            warmup: SimDuration::from_secs(100),
            measure: SimDuration::from_secs(1000),
            cooldown: SimDuration::from_secs(100),
        }
    }

    /// Reduced intervals for fast experimentation (same proportions).
    pub fn fast() -> Self {
        IntervalPlan {
            warmup: SimDuration::from_secs(20),
            measure: SimDuration::from_secs(200),
            cooldown: SimDuration::from_secs(20),
        }
    }

    /// Minimal intervals for unit tests.
    pub fn tiny() -> Self {
        IntervalPlan {
            warmup: SimDuration::from_secs(5),
            measure: SimDuration::from_secs(30),
            cooldown: SimDuration::from_secs(5),
        }
    }

    /// Total duration of one iteration.
    pub fn total(&self) -> SimDuration {
        self.warmup + self.measure + self.cooldown
    }

    /// Phase at `elapsed` time since the iteration started.
    pub fn phase_at(&self, elapsed: SimDuration) -> Phase {
        if elapsed < self.warmup {
            Phase::Warmup
        } else if elapsed < self.warmup + self.measure {
            Phase::Measure
        } else if elapsed < self.total() {
            Phase::Cooldown
        } else {
            Phase::Done
        }
    }
}

/// Collects interaction completions for one iteration.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    plan: IntervalPlan,
    started_at: SimTime,
    completed: [u64; Interaction::COUNT],
    errors: u64,
    dropped: u64,
    response: Welford,
    response_hist: DurationHistogram,
    /// Response-time accumulators per interaction (Table 1 order).
    per_interaction_response: [Welford; Interaction::COUNT],
    /// Completions outside the measurement window (not counted in WIPS).
    outside_window: u64,
}

impl MetricsCollector {
    pub fn new(plan: IntervalPlan, started_at: SimTime) -> Self {
        MetricsCollector {
            plan,
            started_at,
            completed: [0; Interaction::COUNT],
            errors: 0,
            dropped: 0,
            response: Welford::new(),
            response_hist: DurationHistogram::new(SimDuration::from_millis(5), 4_000),
            per_interaction_response: std::array::from_fn(|_| Welford::new()),
            outside_window: 0,
        }
    }

    pub fn plan(&self) -> &IntervalPlan {
        &self.plan
    }

    /// Phase at absolute time `now`.
    pub fn phase(&self, now: SimTime) -> Phase {
        self.plan.phase_at(now.since(self.started_at))
    }

    fn in_measure_window(&self, now: SimTime) -> bool {
        self.phase(now) == Phase::Measure
    }

    /// Record a successfully completed interaction.
    pub fn record_completion(&mut self, now: SimTime, ix: Interaction, response: SimDuration) {
        self.record_completion_weighted(now, ix, response, 1);
    }

    /// Record `weight` completed interactions sharing one response time
    /// (a cohort token standing for `weight` browsers). The response
    /// sample is recorded once: token responses are *convoy* responses,
    /// and replicating the sample would only fake confidence in a
    /// distribution the cohort model quantises anyway.
    pub fn record_completion_weighted(
        &mut self,
        now: SimTime,
        ix: Interaction,
        response: SimDuration,
        weight: u64,
    ) {
        if self.in_measure_window(now) {
            self.completed[ix.index()] += weight;
            self.response.record(response.as_secs_f64());
            self.response_hist.record(response);
            self.per_interaction_response[ix.index()].record(response.as_secs_f64());
        } else {
            self.outside_window += weight;
        }
    }

    /// Record `weight` failed interactions (cohort token weight).
    pub fn record_error_weighted(&mut self, now: SimTime, weight: u64) {
        if self.in_measure_window(now) {
            self.errors += weight;
        }
    }

    /// Record `weight` admission drops (cohort token weight).
    pub fn record_drop_weighted(&mut self, now: SimTime, weight: u64) {
        if self.in_measure_window(now) {
            self.dropped += weight;
        }
    }

    /// Total successful interactions in the measurement window.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Completions of one class.
    pub(crate) fn completed_class(&self, class: InteractionClass) -> u64 {
        Interaction::ALL
            .iter()
            .filter(|i| i.class() == class)
            .map(|i| self.completed[i.index()])
            .sum()
    }

    pub fn outside_window(&self) -> u64 {
        self.outside_window
    }

    /// Web interactions per second over the measurement window.
    pub fn wips(&self) -> f64 {
        let secs = self.plan.measure.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.total_completed() as f64 / secs
        }
    }

    /// Mean response time (seconds) of counted interactions.
    pub(crate) fn mean_response_secs(&self) -> f64 {
        self.response.mean()
    }

    /// Completion-weighted mean response time of one class.
    pub fn mean_response_of_class(&self, class: InteractionClass) -> f64 {
        let mut merged = Welford::new();
        for ix in Interaction::ALL {
            if ix.class() == class {
                merged.merge(&self.per_interaction_response[ix.index()]);
            }
        }
        merged.mean()
    }

    /// Approximate response-time percentile.
    pub(crate) fn response_percentile(&self, q: f64) -> SimDuration {
        self.response_hist.percentile(q)
    }

    /// Summarise into an immutable result.
    pub fn summarise(&self) -> IterationMetrics {
        IterationMetrics {
            wips: self.wips(),
            completed: self.total_completed(),
            browse_completed: self.completed_class(InteractionClass::Browse),
            order_completed: self.completed_class(InteractionClass::Order),
            errors: self.errors,
            dropped: self.dropped,
            mean_response_secs: self.mean_response_secs(),
            p90_response: self.response_percentile(0.90),
        }
    }
}

/// Immutable summary of one iteration's measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationMetrics {
    pub wips: f64,
    pub completed: u64,
    pub browse_completed: u64,
    pub order_completed: u64,
    pub errors: u64,
    pub dropped: u64,
    pub mean_response_secs: f64,
    pub p90_response: SimDuration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector() -> MetricsCollector {
        MetricsCollector::new(IntervalPlan::tiny(), SimTime::from_secs(100))
    }

    #[test]
    fn phases_partition_the_iteration() {
        let plan = IntervalPlan::hpdc04();
        assert_eq!(plan.phase_at(SimDuration::ZERO), Phase::Warmup);
        assert_eq!(plan.phase_at(SimDuration::from_secs(99)), Phase::Warmup);
        assert_eq!(plan.phase_at(SimDuration::from_secs(100)), Phase::Measure);
        assert_eq!(plan.phase_at(SimDuration::from_secs(1099)), Phase::Measure);
        assert_eq!(plan.phase_at(SimDuration::from_secs(1100)), Phase::Cooldown);
        assert_eq!(plan.phase_at(SimDuration::from_secs(1199)), Phase::Cooldown);
        assert_eq!(plan.phase_at(SimDuration::from_secs(1200)), Phase::Done);
        assert_eq!(plan.total(), SimDuration::from_secs(1200));
    }

    #[test]
    fn only_measure_window_counts() {
        let mut m = collector();
        // Started at t=100, tiny plan: warmup 5s, measure 30s, cooldown 5s.
        let r = SimDuration::from_millis(100);
        m.record_completion(SimTime::from_secs(102), Interaction::Home, r); // warmup
        m.record_completion(SimTime::from_secs(110), Interaction::Home, r); // measure
        m.record_completion(SimTime::from_secs(134), Interaction::BuyConfirm, r); // measure
        m.record_completion(SimTime::from_secs(136), Interaction::Home, r); // cooldown
        assert_eq!(m.total_completed(), 2);
        assert_eq!(m.outside_window(), 2);
        assert_eq!(m.completed[Interaction::Home.index()], 1);
        assert_eq!(m.completed_class(InteractionClass::Order), 1);
    }

    #[test]
    fn wips_normalises_by_measure_window() {
        let mut m = collector();
        for _ in 0..60 {
            m.record_completion(
                SimTime::from_secs(110),
                Interaction::Home,
                SimDuration::from_millis(50),
            );
        }
        // 60 completions over a 30 s window = 2 WIPS.
        assert!((m.wips() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn errors_and_drops_count_only_in_window() {
        let mut m = collector();
        m.record_error_weighted(SimTime::from_secs(101), 1); // warmup — ignored
        m.record_error_weighted(SimTime::from_secs(120), 1);
        m.record_drop_weighted(SimTime::from_secs(120), 1);
        m.record_drop_weighted(SimTime::from_secs(139), 1); // cooldown — ignored
        assert_eq!(m.errors, 1);
        assert_eq!(m.dropped, 1);
    }

    #[test]
    fn weighted_records_count_weight_browsers_one_sample() {
        let mut m = collector();
        let inside = SimTime::from_secs(115);
        m.record_completion_weighted(inside, Interaction::Home, SimDuration::from_millis(50), 12);
        m.record_error_weighted(inside, 5);
        m.record_drop_weighted(inside, 7);
        assert_eq!(m.total_completed(), 12);
        assert_eq!(m.errors, 5);
        assert_eq!(m.dropped, 7);
        // One response sample for the whole cohort token.
        assert!((m.mean_response_secs() - 0.05).abs() < 1e-9);
        // Outside the window the full weight lands in outside_window.
        m.record_completion_weighted(
            SimTime::from_secs(101),
            Interaction::Home,
            SimDuration::from_millis(50),
            9,
        );
        assert_eq!(m.outside_window(), 9);
    }

    #[test]
    fn per_interaction_response_tracked() {
        let mut m = collector();
        let inside = SimTime::from_secs(115);
        m.record_completion(inside, Interaction::Home, SimDuration::from_millis(50));
        m.record_completion(inside, Interaction::Home, SimDuration::from_millis(150));
        m.record_completion(
            inside,
            Interaction::BuyConfirm,
            SimDuration::from_millis(400),
        );
        assert!((m.per_interaction_response[Interaction::Home.index()].mean() - 0.1).abs() < 1e-9);
        assert!(
            (m.per_interaction_response[Interaction::BuyConfirm.index()].mean() - 0.4).abs() < 1e-9
        );
        assert_eq!(
            m.per_interaction_response[Interaction::SearchRequest.index()].mean(),
            0.0
        );
        assert!((m.mean_response_of_class(InteractionClass::Browse) - 0.1).abs() < 1e-9);
        assert!((m.mean_response_of_class(InteractionClass::Order) - 0.4).abs() < 1e-9);
    }

    #[test]
    fn summary_is_consistent() {
        let mut m = collector();
        m.record_completion(
            SimTime::from_secs(115),
            Interaction::Home,
            SimDuration::from_millis(200),
        );
        m.record_completion(
            SimTime::from_secs(116),
            Interaction::BuyConfirm,
            SimDuration::from_millis(400),
        );
        let s = m.summarise();
        assert_eq!(s.completed, 2);
        assert_eq!(s.browse_completed, 1);
        assert_eq!(s.order_completed, 1);
        assert!((s.mean_response_secs - 0.3).abs() < 1e-9);
        assert!(s.wips > 0.0);
    }
}
