//! ClassyTune-style comparison-based tuning.
//!
//! ClassyTune (Zhu & Liu, 2019) observes that absolute performance
//! numbers from a live system are unreliable, but *comparisons* between
//! a candidate and the incumbent measured back-to-back are much more
//! stable. The tuner therefore never regresses on raw scores: each round
//! perturbs the incumbent into a batch of candidates, labels every
//! candidate `won`/`lost` against the incumbent's score, and feeds those
//! labels to a per-dimension classifier (a signed bias) that learns
//! which direction of change tends to win. Winning directions are
//! sampled more often in later rounds; a round with no winner halves the
//! perturbation steps and decays the biases so the search anneals onto
//! the incumbent.

use crate::space::{Configuration, ParamSpace};
use crate::tuner::{
    opt_config_from_state, opt_config_state, rng_from_state, rng_state, BestTracker, Measurement,
    Trial, Tuner,
};
use persist::{Checkpointable, PersistError, State};
use simkit::rng::SimRng;

use std::collections::VecDeque;

/// How strongly one win/loss label moves a dimension's direction bias.
const BIAS_LEARNING_RATE: f64 = 0.2;
/// Biases are clamped so no direction is ever sampled with certainty.
const BIAS_CLAMP: f64 = 1.0;

/// ClassyTune's comparison-based classification tuning (ask–tell,
/// batch-native).
#[derive(Debug, Clone)]
pub struct ClassyTuneTuner {
    space: ParamSpace,
    rng: SimRng,
    seed: u64,
    /// Candidates perturbed from the incumbent per round.
    batch: usize,
    start: Option<Configuration>,
    /// Current incumbent and its measured score.
    incumbent: Option<Configuration>,
    incumbent_perf: Option<f64>,
    /// Per-dimension direction bias in [-1, 1]: positive means raising
    /// the parameter has tended to win comparisons.
    bias: Vec<f64>,
    /// Per-dimension perturbation magnitude (halved on stale rounds).
    step: Vec<i64>,
    /// Planned candidates of the current round, not yet proposed.
    queue: VecDeque<Configuration>,
    outstanding: Vec<(u64, Configuration)>,
    results: Vec<(Configuration, f64)>,
    pending: Option<Configuration>,
    trial_counter: u64,
    round: u32,
    /// Rounds that produced no winner (diagnostics).
    stale_rounds: u32,
    tracker: BestTracker,
}

impl ClassyTuneTuner {
    pub fn new(space: ParamSpace, seed: u64) -> Self {
        let dims = space.dims();
        let step = space.defs().iter().map(|d| (d.span() / 4).max(1)).collect();
        ClassyTuneTuner {
            space,
            rng: SimRng::new(seed),
            seed,
            batch: dims.clamp(3, 6),
            start: None,
            incumbent: None,
            incumbent_perf: None,
            bias: vec![0.0; dims],
            step,
            queue: VecDeque::new(),
            outstanding: Vec::new(),
            results: Vec::new(),
            pending: None,
            trial_counter: 0,
            round: 0,
            stale_rounds: 0,
            tracker: BestTracker::default(),
        }
    }

    /// Builder: candidates compared against the incumbent per round.
    pub fn candidates_per_round(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "a comparison round needs at least 1 candidate");
        self.batch = batch;
        self
    }

    /// Builder: seed the search from a known-good configuration.
    pub fn start_from(mut self, config: Configuration) -> Self {
        self.start = Some(self.space.clamp(config.values()));
        self
    }

    /// Completed comparison rounds (diagnostics).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Mean absolute direction bias (diagnostics): how decided the
    /// per-dimension classifiers are.
    fn mean_bias(&self) -> f64 {
        self.bias.iter().map(|b| b.abs()).sum::<f64>() / self.bias.len() as f64
    }

    /// Perturb the incumbent on a few dimensions, sampling each moved
    /// dimension's direction from its learned bias.
    fn perturb(&mut self, base: &Configuration) -> Configuration {
        let dims = self.space.dims();
        let moved = 1 + self.rng.next_below(dims.min(3) as u64) as usize;
        let mut values = base.values().to_vec();
        for _ in 0..moved {
            let d = self.rng.next_below(dims as u64) as usize;
            let p_up = (0.5 + 0.4 * self.bias[d]).clamp(0.1, 0.9);
            let dir: i64 = if self.rng.chance(p_up) { 1 } else { -1 };
            let magnitude = 1 + self.rng.next_below(self.step[d].max(1) as u64) as i64;
            let def = self.space.def(d);
            values[d] = def.clamp(values[d] + dir * magnitude);
        }
        Configuration::from_values(values)
    }

    /// Plan the next round of candidates.
    fn plan_round(&mut self) {
        match self.incumbent.clone() {
            None => {
                // Round zero measures the starting point alone so every
                // later candidate has an incumbent to be compared with.
                let start = self
                    .start
                    .clone()
                    .unwrap_or_else(|| self.space.default_config());
                self.queue.push_back(start);
            }
            Some(base) => {
                for _ in 0..self.batch {
                    let candidate = self.perturb(&base);
                    self.queue.push_back(candidate);
                }
            }
        }
    }

    /// Close a finished round: learn direction labels from every
    /// comparison, then adopt the winner or anneal the steps.
    fn fold_round(&mut self) {
        let results = std::mem::take(&mut self.results);
        let Some(incumbent) = self.incumbent.clone() else {
            // Round zero: the lone result becomes the incumbent.
            if let Some((config, perf)) = results.into_iter().next() {
                self.incumbent = Some(config);
                self.incumbent_perf = Some(perf);
            }
            self.round += 1;
            return;
        };
        let incumbent_perf = self.incumbent_perf.unwrap_or(f64::NEG_INFINITY);

        // Classification step: each candidate contributes one label per
        // dimension it moved — did moving that way win the comparison?
        for (config, perf) in &results {
            let won = *perf > incumbent_perf;
            for d in 0..self.space.dims() {
                let delta = config.get(d) - incumbent.get(d);
                if delta == 0 {
                    continue;
                }
                let dir = if delta > 0 { 1.0 } else { -1.0 };
                let label = if won { dir } else { -dir };
                self.bias[d] =
                    (self.bias[d] + BIAS_LEARNING_RATE * label).clamp(-BIAS_CLAMP, BIAS_CLAMP);
            }
        }

        // Selection step: adopt the best winner, or anneal when the
        // whole round lost its comparison.
        let winner = results
            .into_iter()
            .filter(|(_, perf)| *perf > incumbent_perf)
            .reduce(|a, b| if b.1 > a.1 { b } else { a });
        match winner {
            Some((config, perf)) => {
                self.incumbent = Some(config);
                self.incumbent_perf = Some(perf);
            }
            None => {
                self.stale_rounds += 1;
                for s in &mut self.step {
                    *s = (*s / 2).max(1);
                }
                for b in &mut self.bias {
                    *b *= 0.5;
                }
            }
        }
        self.round += 1;
    }

    fn ensure_round(&mut self) {
        if self.queue.is_empty() && self.outstanding.is_empty() {
            if !self.results.is_empty() {
                self.fold_round();
            }
            if self.queue.is_empty() {
                self.plan_round();
            }
        }
    }

    fn record(&mut self, config: Configuration, perf: f64) {
        self.tracker.record(&config, perf);
        self.results.push((config, perf));
        // Fold and plan eagerly once the round's last result lands, so
        // `batch_size` and checkpoints already hold the next round.
        self.ensure_round();
    }
}

impl Tuner for ClassyTuneTuner {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Configuration {
        assert!(self.pending.is_none(), "propose() twice without observe()");
        assert!(
            self.outstanding.is_empty(),
            "propose() while a batch is outstanding"
        );
        self.ensure_round();
        let Some(config) = self.queue.pop_front() else {
            unreachable!("ensure_round always plans a non-empty round")
        };
        self.pending = Some(config.clone());
        config
    }

    fn observe(&mut self, performance: f64) {
        let Some(config) = self.pending.take() else {
            panic!("observe() without propose()");
        };
        self.record(config, performance);
    }

    fn propose_batch(&mut self) -> Vec<Trial> {
        assert!(
            self.pending.is_none(),
            "propose_batch() with a pending proposal"
        );
        assert!(
            self.outstanding.is_empty(),
            "propose_batch() while a batch is outstanding"
        );
        self.ensure_round();
        let mut trials = Vec::with_capacity(self.queue.len());
        while let Some(config) = self.queue.pop_front() {
            let id = self.trial_counter;
            self.trial_counter += 1;
            self.outstanding.push((id, config.clone()));
            trials.push(Trial::new(id, config));
        }
        trials
    }

    fn observe_trial(&mut self, trial_id: u64, m: Measurement) {
        let Some(pos) = self.outstanding.iter().position(|(id, _)| *id == trial_id) else {
            panic!("observe_trial() for unknown trial {trial_id}");
        };
        let (_, config) = self.outstanding.remove(pos);
        self.record(config, m.mean);
    }

    fn batch_size(&self) -> usize {
        if !self.queue.is_empty() {
            self.queue.len()
        } else if self.incumbent.is_none() {
            1
        } else {
            self.batch
        }
    }

    fn best(&self) -> Option<(&Configuration, f64)> {
        self.tracker.best()
    }

    fn evaluations(&self) -> u64 {
        self.tracker.evaluations()
    }

    fn name(&self) -> &'static str {
        "classytune"
    }

    fn reset(&mut self) {
        let start = self.start.clone();
        *self =
            ClassyTuneTuner::new(self.space.clone(), self.seed).candidates_per_round(self.batch);
        self.start = start;
    }

    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("round", self.round as f64),
            ("stale_rounds", self.stale_rounds as f64),
            ("mean_bias", self.mean_bias()),
            ("mean_step", {
                self.step.iter().map(|s| *s as f64).sum::<f64>() / self.step.len() as f64
            }),
        ]
    }

    fn save_state(&self) -> State {
        Checkpointable::save_state(self)
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        Checkpointable::restore_state(self, state)
    }
}

impl Checkpointable for ClassyTuneTuner {
    fn save_state(&self) -> State {
        State::map()
            .with("algorithm", State::Str(self.name().to_string()))
            .with("seed", State::U64(self.seed))
            .with("batch", State::U64(self.batch as u64))
            .with("start", opt_config_state(&self.start))
            .with("incumbent", opt_config_state(&self.incumbent))
            .with(
                "incumbent_perf",
                match self.incumbent_perf {
                    Some(p) => State::F64(p),
                    None => State::Null,
                },
            )
            .with("bias", State::f64_list(&self.bias))
            .with("step", State::i64_list(&self.step))
            .with(
                "queue",
                State::List(
                    self.queue
                        .iter()
                        .map(|c| State::i64_list(c.values()))
                        .collect(),
                ),
            )
            .with(
                "outstanding",
                State::List(
                    self.outstanding
                        .iter()
                        .map(|(id, c)| {
                            State::map()
                                .with("id", State::U64(*id))
                                .with("values", State::i64_list(c.values()))
                        })
                        .collect(),
                ),
            )
            .with(
                "results",
                State::List(
                    self.results
                        .iter()
                        .map(|(c, p)| {
                            State::map()
                                .with("values", State::i64_list(c.values()))
                                .with("perf", State::F64(*p))
                        })
                        .collect(),
                ),
            )
            .with("pending", opt_config_state(&self.pending))
            .with("trial_counter", State::U64(self.trial_counter))
            .with("round", State::U64(self.round as u64))
            .with("stale_rounds", State::U64(self.stale_rounds as u64))
            .with("rng", rng_state(&self.rng))
            .with("tracker", self.tracker.save_state())
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let bias = state.require("bias")?.to_f64_vec()?;
        if bias.len() != self.space.dims() {
            return Err(PersistError::Schema(format!(
                "classytune bias has {} dims, space has {}",
                bias.len(),
                self.space.dims()
            )));
        }
        self.seed = state.field_u64("seed")?;
        self.batch = state.field_u64("batch")? as usize;
        self.start = opt_config_from_state(state.require("start")?)?;
        self.incumbent = opt_config_from_state(state.require("incumbent")?)?;
        self.incumbent_perf = match state.require("incumbent_perf")? {
            State::Null => None,
            s => Some(s.as_f64().ok_or_else(|| {
                PersistError::Schema("field 'incumbent_perf' is not an f64".into())
            })?),
        };
        self.bias = bias;
        self.step = state.require("step")?.to_i64_vec()?;
        self.queue = state
            .field_list("queue")?
            .iter()
            .map(|c| Ok(Configuration::from_values(c.to_i64_vec()?)))
            .collect::<Result<_, PersistError>>()?;
        self.outstanding = state
            .field_list("outstanding")?
            .iter()
            .map(|t| {
                Ok((
                    t.field_u64("id")?,
                    Configuration::from_values(t.require("values")?.to_i64_vec()?),
                ))
            })
            .collect::<Result<_, PersistError>>()?;
        self.results = state
            .field_list("results")?
            .iter()
            .map(|r| {
                Ok((
                    Configuration::from_values(r.require("values")?.to_i64_vec()?),
                    r.field_f64("perf")?,
                ))
            })
            .collect::<Result<Vec<_>, PersistError>>()?;
        self.pending = opt_config_from_state(state.require("pending")?)?;
        self.trial_counter = state.field_u64("trial_counter")?;
        self.round = state.field_u64("round")? as u32;
        self.stale_rounds = state.field_u64("stale_rounds")? as u32;
        self.rng = rng_from_state(state.require("rng")?)?;
        self.tracker.restore_state(state.require("tracker")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamDef;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::new("x", 0, 200, 20),
            ParamDef::new("y", 0, 200, 180),
        ])
    }

    fn objective(v: &[i64]) -> f64 {
        let dx = v[0] as f64 - 150.0;
        let dy = v[1] as f64 - 50.0;
        -(dx * dx + dy * dy)
    }

    #[test]
    fn improves_on_quadratic_and_stays_in_bounds() {
        let s = space();
        let mut t = ClassyTuneTuner::new(s.clone(), 42);
        let mut first = None;
        for _ in 0..80 {
            let c = t.propose();
            assert!(s.validate(&c).is_ok(), "{c}");
            let p = objective(c.values());
            first.get_or_insert(p);
            t.observe(p);
        }
        let (_, perf) = t.best().unwrap();
        assert!(perf > first.unwrap(), "never improved on the default");
    }

    #[test]
    fn first_round_measures_the_start_point_alone() {
        let s = space();
        let mut t = ClassyTuneTuner::new(s.clone(), 1);
        let batch = t.propose_batch();
        assert_eq!(batch.len(), 1, "round zero is the incumbent alone");
        assert_eq!(batch[0].config, s.default_config());
        t.observe_trial(batch[0].id, Measurement::point(1.0));
        let round = t.propose_batch();
        assert_eq!(round.len(), t.batch, "full comparison round follows");
    }

    #[test]
    fn incumbent_never_adopts_a_losing_candidate() {
        let mut t = ClassyTuneTuner::new(space(), 7).candidates_per_round(3);
        let c = t.propose();
        t.observe(objective(c.values()));
        let incumbent = t.incumbent.clone().unwrap();
        // Feed a full losing round: incumbent must be unchanged after.
        for _ in 0..3 {
            let _ = t.propose();
            t.observe(f64::MIN);
        }
        let _ = t.propose(); // forces fold_round
        assert_eq!(t.incumbent.as_ref(), Some(&incumbent));
        assert_eq!(t.stale_rounds, 1, "losing round anneals the steps");
    }

    #[test]
    fn winning_directions_gain_bias() {
        let mut t = ClassyTuneTuner::new(space(), 3).candidates_per_round(4);
        for _ in 0..40 {
            let c = t.propose();
            t.observe(objective(c.values()));
        }
        // x must rise towards 150 and y fall towards 50; with the
        // quadratic objective the learned biases should reflect that at
        // least directionally once rounds have folded.
        assert!(t.round() >= 2);
        assert!(t.mean_bias() > 0.0, "labels never moved any bias");
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identical_proposals() {
        let mut a = ClassyTuneTuner::new(space(), 11).candidates_per_round(3);
        for _ in 0..8 {
            let c = a.propose();
            a.observe(objective(c.values()));
        }
        let saved = Checkpointable::save_state(&a);
        let mut b = ClassyTuneTuner::new(space(), 999);
        Checkpointable::restore_state(&mut b, &saved).expect("restore");
        assert_eq!(Checkpointable::save_state(&b), saved, "round trip");
        for i in 0..30 {
            let ca = a.propose();
            let cb = b.propose();
            assert_eq!(ca, cb, "proposal {i} diverged");
            let p = objective(ca.values());
            a.observe(p);
            b.observe(p);
        }
    }

    #[test]
    fn restore_rejects_wrong_dims() {
        let a = ClassyTuneTuner::new(space(), 1);
        let saved = Checkpointable::save_state(&a);
        let other = ParamSpace::new(vec![ParamDef::new("z", 0, 10, 5)]);
        let mut b = ClassyTuneTuner::new(other, 1);
        assert!(Checkpointable::restore_state(&mut b, &saved).is_err());
    }

    #[test]
    fn reset_forgets_search_state() {
        let mut t = ClassyTuneTuner::new(space(), 13);
        for _ in 0..12 {
            let c = t.propose();
            t.observe(objective(c.values()));
        }
        t.reset();
        assert_eq!(t.evaluations(), 0);
        assert!(t.best().is_none());
        assert_eq!(t.propose(), space().default_config());
    }

    #[test]
    #[should_panic(expected = "propose() twice")]
    fn double_propose_panics() {
        let mut t = ClassyTuneTuner::new(space(), 1);
        t.propose();
        t.propose();
    }

    #[test]
    #[should_panic(expected = "observe() without propose()")]
    fn observe_without_propose_panics() {
        let mut t = ClassyTuneTuner::new(space(), 1);
        t.observe(1.0);
    }
}
