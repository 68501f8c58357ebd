//! The ask–tell tuner interface.
//!
//! Active Harmony separates *what to try next* (the tuning algorithm) from
//! *how performance is measured* (the instrumented system). A [`Tuner`]
//! proposes one configuration per tuning iteration; the harness applies it,
//! runs an iteration, and reports the observed performance back. Higher
//! performance is better (WIPS in this paper).

use crate::space::{Configuration, ParamSpace};
use persist::{PersistError, State};

/// One proposed evaluation in a batch: a configuration tagged with an
/// identifier unique among the batch's outstanding trials, so results
/// can be reported back in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trial {
    pub id: u64,
    pub config: Configuration,
}

impl Trial {
    pub(crate) fn new(id: u64, config: Configuration) -> Self {
        Trial { id, config }
    }
}

/// A typed performance observation: the measured mean plus how much the
/// measurement itself can be trusted. The bare-`f64` protocol collapses
/// this to `mean` alone; noise-aware tuners (TUNA) weight observations
/// by the interval width and replication count instead of taking every
/// sample at face value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Measured performance (higher = better; WIPS in this paper).
    pub mean: f64,
    /// 95% confidence half-width of the measurement (0 = exact).
    pub ci_half_width: f64,
    /// Independent replications folded into `mean` (>= 1).
    pub replications: u32,
}

impl Measurement {
    /// An exact observation: a single sample taken at face value.
    pub fn point(mean: f64) -> Self {
        Measurement {
            mean,
            ci_half_width: 0.0,
            replications: 1,
        }
    }

    /// Builder: attach a 95% confidence half-width.
    pub fn with_ci(mut self, ci_half_width: f64) -> Self {
        self.ci_half_width = ci_half_width;
        self
    }

    /// Builder: set the replication count (clamped to >= 1).
    pub fn with_replications(mut self, replications: u32) -> Self {
        self.replications = replications.max(1);
        self
    }

    /// Half-width relative to the mean's magnitude (0 when the mean is 0).
    pub(crate) fn relative_ci(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            (self.ci_half_width / self.mean).abs()
        }
    }
}

/// A tuning algorithm driven in strict propose → observe alternation.
///
/// The v2 protocol extends the original one-`f64`-per-`propose` loop in
/// two backward-compatible directions: [`Tuner::propose_batch`] lets an
/// algorithm hand out a whole round of trial-tagged configurations at
/// once, and [`Tuner::observe_measurement`] carries a typed
/// [`Measurement`] instead of a bare mean. Implementors only provide
/// `propose`/`observe`; every v2 entry point has a default that reduces
/// to the strict alternating protocol.
pub trait Tuner {
    /// The space this tuner explores.
    fn space(&self) -> &ParamSpace;

    /// Propose the next configuration to evaluate.
    ///
    /// Must be followed by exactly one [`Tuner::observe`] call before the
    /// next `propose`.
    fn propose(&mut self) -> Configuration;

    /// Report the performance (higher = better) of the configuration from
    /// the immediately preceding [`Tuner::propose`].
    fn observe(&mut self, performance: f64);

    /// Best configuration seen so far, with its performance.
    fn best(&self) -> Option<(&Configuration, f64)>;

    /// Number of observations so far.
    fn evaluations(&self) -> u64;

    /// Short algorithm name (reports).
    fn name(&self) -> &'static str;

    /// Propose a whole round of trials at once. Batch-native algorithms
    /// (BestConfig's divide-and-diverge rounds, ClassyTune's candidate
    /// sets) override this to hand out every planned evaluation of the
    /// round; each trial must then receive exactly one
    /// [`Tuner::observe_trial`] call (any order) before the next batch.
    /// The default is a one-element batch wrapping [`Tuner::propose`].
    fn propose_batch(&mut self) -> Vec<Trial> {
        let id = self.evaluations();
        vec![Trial::new(id, self.propose())]
    }

    /// Report the measurement of one trial from the current batch. The
    /// default ignores the id (a one-element default batch is implicitly
    /// ordered) and forwards to [`Tuner::observe_measurement`].
    fn observe_trial(&mut self, trial_id: u64, m: Measurement) {
        let _ = trial_id;
        self.observe_measurement(m);
    }

    /// Report a typed [`Measurement`] for the pending proposal. The
    /// default collapses it to the mean — algorithms that never look at
    /// measurement uncertainty behave identically under both protocols.
    fn observe_measurement(&mut self, m: Measurement) {
        self.observe(m.mean);
    }

    /// Number of trials in the tuner's current planning round — what
    /// [`Tuner::propose_batch`] would hand out next. Strictly
    /// alternating tuners report 1.
    fn batch_size(&self) -> usize {
        1
    }

    /// Ask for the next configuration — alias for [`Tuner::propose`] in
    /// the ask/tell vocabulary used by the optimisation literature.
    fn ask(&mut self) -> Configuration {
        self.propose()
    }

    /// Tell the tuner a typed observation — alias for
    /// [`Tuner::observe_measurement`] in the ask/tell vocabulary.
    fn tell_measurement(&mut self, m: Measurement) {
        self.observe_measurement(m);
    }

    /// Forget search state (simplex geometry, step sizes, cursor
    /// position) but keep the parameter space, so the tuner can restart
    /// cleanly after a workload change instead of being rebuilt by hand.
    /// The default is a no-op: memoryless tuners are already reset.
    fn reset(&mut self) {}

    /// Per-iteration internal state worth tracing (e.g. the simplex
    /// vertex spread), as ordered name/value pairs. Default: none.
    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Export the tuner's full search state for checkpointing (object-
    /// safe mirror of `persist::Checkpointable`). The default returns
    /// [`State::Null`], meaning "nothing to save" — tuners that support
    /// crash-safe resume override both this and
    /// [`Tuner::restore_state`].
    fn save_state(&self) -> State {
        State::Null
    }

    /// Restore search state saved by [`Tuner::save_state`]. The default
    /// rejects restoration so a resumed session fails loudly instead of
    /// silently restarting a tuner from scratch.
    fn restore_state(&mut self, _state: &State) -> Result<(), PersistError> {
        Err(PersistError::Unsupported(self.name().to_string()))
    }
}

/// Shared best-seen bookkeeping for tuner implementations.
#[derive(Debug, Clone, Default)]
pub(crate) struct BestTracker {
    best: Option<(Configuration, f64)>,
    evaluations: u64,
}

impl BestTracker {
    pub(crate) fn record(&mut self, config: &Configuration, perf: f64) {
        self.evaluations += 1;
        let improved = match &self.best {
            Some((_, p)) => perf > *p,
            None => true,
        };
        if improved {
            self.best = Some((config.clone(), perf));
        }
    }

    pub(crate) fn best(&self) -> Option<(&Configuration, f64)> {
        self.best.as_ref().map(|(c, p)| (c, *p))
    }

    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Export for checkpointing.
    pub(crate) fn save_state(&self) -> State {
        let best = match &self.best {
            Some((config, perf)) => State::map()
                .with("values", State::i64_list(config.values()))
                .with("perf", State::F64(*perf)),
            None => State::Null,
        };
        State::map()
            .with("best", best)
            .with("evaluations", State::U64(self.evaluations))
    }

    /// Restore from [`BestTracker::save_state`] output.
    pub(crate) fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        self.best = match state.require("best")? {
            State::Null => None,
            best => Some((
                Configuration::from_values(best.require("values")?.to_i64_vec()?),
                best.field_f64("perf")?,
            )),
        };
        self.evaluations = state.field_u64("evaluations")?;
        Ok(())
    }
}

/// Serialise an RNG's full state (shared by the seeded tuners'
/// checkpoint paths — resume must continue the exact random sequence).
pub(crate) fn rng_state(rng: &simkit::rng::SimRng) -> State {
    State::List(rng.state().iter().map(|&w| State::U64(w)).collect())
}

/// Rebuild an RNG from [`rng_state`] output.
pub(crate) fn rng_from_state(state: &State) -> Result<simkit::rng::SimRng, PersistError> {
    let words = state
        .as_list()
        .ok_or_else(|| PersistError::Schema("rng state is not a list".into()))?;
    if words.len() != 4 {
        return Err(PersistError::Schema(format!(
            "rng state has {} words, expected 4",
            words.len()
        )));
    }
    let mut s = [0u64; 4];
    for (slot, w) in s.iter_mut().zip(words) {
        *slot = w
            .as_u64()
            .ok_or_else(|| PersistError::Schema("rng word is not a u64".into()))?;
    }
    Ok(simkit::rng::SimRng::from_state(s))
}

/// `Option<Configuration>` as state (Null = None).
pub(crate) fn opt_config_state(config: &Option<Configuration>) -> State {
    match config {
        Some(c) => State::i64_list(c.values()),
        None => State::Null,
    }
}

/// Restore [`opt_config_state`] output.
pub(crate) fn opt_config_from_state(state: &State) -> Result<Option<Configuration>, PersistError> {
    match state {
        State::Null => Ok(None),
        values => Ok(Some(Configuration::from_values(values.to_i64_vec()?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_tracker_keeps_maximum() {
        let mut t = BestTracker::default();
        assert!(t.best().is_none());
        let a = Configuration::from_values(vec![1]);
        let b = Configuration::from_values(vec![2]);
        let c = Configuration::from_values(vec![3]);
        t.record(&a, 10.0);
        t.record(&b, 30.0);
        t.record(&c, 20.0);
        let (cfg, perf) = t.best().unwrap();
        assert_eq!(cfg.values(), &[2]);
        assert_eq!(perf, 30.0);
        assert_eq!(t.evaluations(), 3);
    }

    #[test]
    fn ties_keep_first() {
        let mut t = BestTracker::default();
        let a = Configuration::from_values(vec![1]);
        let b = Configuration::from_values(vec![2]);
        t.record(&a, 10.0);
        t.record(&b, 10.0);
        assert_eq!(t.best().unwrap().0.values(), &[1]);
    }

    #[test]
    fn measurement_builders_and_relative_ci() {
        let m = Measurement::point(200.0);
        assert_eq!(m.ci_half_width, 0.0);
        assert_eq!(m.replications, 1);
        let m = m.with_ci(10.0).with_replications(3);
        assert_eq!(m.relative_ci(), 0.05);
        assert_eq!(m.replications, 3);
        assert_eq!(Measurement::point(0.0).with_ci(5.0).relative_ci(), 0.0);
        assert_eq!(Measurement::point(1.0).with_replications(0).replications, 1);
    }

    /// Minimal strict-alternation tuner to exercise the v2 defaults.
    struct Probe {
        space: ParamSpace,
        pending: bool,
        tracker: BestTracker,
        last_observed: Option<f64>,
    }

    impl Tuner for Probe {
        fn space(&self) -> &ParamSpace {
            &self.space
        }
        fn propose(&mut self) -> Configuration {
            assert!(!self.pending, "propose() twice without observe()");
            self.pending = true;
            self.space.default_config()
        }
        fn observe(&mut self, performance: f64) {
            assert!(self.pending, "observe() without propose()");
            self.pending = false;
            self.last_observed = Some(performance);
            self.tracker
                .record(&self.space.default_config(), performance);
        }
        fn best(&self) -> Option<(&Configuration, f64)> {
            self.tracker.best()
        }
        fn evaluations(&self) -> u64 {
            self.tracker.evaluations()
        }
        fn name(&self) -> &'static str {
            "probe"
        }
    }

    fn probe() -> Probe {
        use crate::param::ParamDef;
        Probe {
            space: ParamSpace::new(vec![ParamDef::new("x", 0, 10, 5)]),
            pending: false,
            tracker: BestTracker::default(),
            last_observed: None,
        }
    }

    #[test]
    fn default_batch_wraps_propose() {
        let mut t = probe();
        assert_eq!(t.batch_size(), 1);
        let batch = t.propose_batch();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 0);
        assert_eq!(batch[0].config, t.space().default_config());
        t.observe_trial(batch[0].id, Measurement::point(7.0).with_ci(1.0));
        assert_eq!(t.last_observed, Some(7.0));
        assert_eq!(t.evaluations(), 1);
        // The next default batch carries a fresh id.
        assert_eq!(t.propose_batch()[0].id, 1);
    }

    #[test]
    fn tell_measurement_routes_through_the_typed_path() {
        let mut t = probe();
        let _ = t.ask();
        t.tell_measurement(Measurement::point(3.5));
        assert_eq!(t.last_observed, Some(3.5));
        let _ = t.ask();
        t.tell_measurement(Measurement::point(4.5).with_replications(2));
        assert_eq!(t.last_observed, Some(4.5));
    }
}
