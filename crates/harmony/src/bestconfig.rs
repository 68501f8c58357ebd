//! BestConfig-style tuning: divide-and-diverge sampling with recursive
//! bound-and-search.
//!
//! Following Zhu et al. (SoCC'17), the search alternates two moves over
//! *rounds* of samples rather than single points:
//!
//! * **Divide-and-diverge sampling (DDS)** — each dimension's current
//!   range is divided into as many intervals as the round has samples,
//!   and the samples are spread Latin-hypercube style so every interval
//!   of every dimension is probed exactly once per round.
//! * **Recursive bound-and-search (RBS)** — when a round improves on the
//!   best point seen so far, the bounds contract to the neighbourhood of
//!   the round's winner and the next round samples inside them; when a
//!   round fails to improve, the bounds *diverge* (double around the
//!   global best, up to the full space) so the search escapes a local
//!   plateau instead of collapsing into it.
//!
//! Rounds are natural batches: the tuner plans a whole round up front,
//! so [`Tuner::propose_batch`] hands out every remaining sample of the
//! round. They are fixed before any of them is measured, so a harness
//! can evaluate the whole round at once.

use crate::space::{Configuration, ParamSpace};
use crate::tuner::{
    opt_config_from_state, opt_config_state, rng_from_state, rng_state, BestTracker, Measurement,
    Trial, Tuner,
};
use persist::{Checkpointable, PersistError, State};
use simkit::rng::SimRng;

use std::collections::VecDeque;

/// BestConfig's divide-and-diverge sampling + recursive bound-and-search
/// (ask–tell, batch-native).
#[derive(Debug, Clone)]
pub struct BestConfigTuner {
    space: ParamSpace,
    rng: SimRng,
    seed: u64,
    /// Samples per DDS round (also the per-dimension subdivision count).
    samples: usize,
    /// Optional externally seeded start point (round 0's first sample);
    /// defaults to the space's default configuration.
    start: Option<Configuration>,
    /// Current RBS bounds, inclusive.
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Planned samples of the current round, not yet proposed.
    queue: VecDeque<Configuration>,
    /// Proposed batch trials awaiting their result.
    outstanding: Vec<(u64, Configuration)>,
    /// Results observed this round.
    results: Vec<(Configuration, f64)>,
    /// Strict-protocol pending proposal.
    pending: Option<Configuration>,
    trial_counter: u64,
    round: u32,
    diverges: u32,
    /// Global best before the current round started (improvement test).
    best_before_round: f64,
    tracker: BestTracker,
}

impl BestConfigTuner {
    pub fn new(space: ParamSpace, seed: u64) -> Self {
        let dims = space.dims();
        let lo = space.defs().iter().map(|d| d.min).collect();
        let hi = space.defs().iter().map(|d| d.max).collect();
        BestConfigTuner {
            space,
            rng: SimRng::new(seed),
            seed,
            samples: (dims / 2).clamp(4, 8),
            start: None,
            lo,
            hi,
            queue: VecDeque::new(),
            outstanding: Vec::new(),
            results: Vec::new(),
            pending: None,
            trial_counter: 0,
            round: 0,
            diverges: 0,
            best_before_round: f64::NEG_INFINITY,
            tracker: BestTracker::default(),
        }
    }

    /// Builder: samples per DDS round (>= 2).
    pub fn samples_per_round(mut self, samples: usize) -> Self {
        assert!(samples >= 2, "a DDS round needs at least 2 samples");
        self.samples = samples;
        self
    }

    /// Builder: seed the search from a known-good configuration (it
    /// becomes round 0's first sample instead of the space default).
    pub(crate) fn start_from(mut self, config: Configuration) -> Self {
        self.start = Some(self.space.clamp(config.values()));
        self
    }

    /// Mean bound width as a fraction of the full span (diagnostics).
    fn bound_fraction(&self) -> f64 {
        let mut sum = 0.0;
        for (d, def) in self.space.defs().iter().enumerate() {
            let width = (self.hi[d] - self.lo[d]) as f64;
            let span = def.span() as f64;
            sum += if span > 0.0 { width / span } else { 1.0 };
        }
        sum / self.space.dims() as f64
    }

    /// Latin-hypercube sample of the current bounds: one permutation per
    /// dimension spreads the round's samples over every interval.
    fn plan_round(&mut self) {
        let dims = self.space.dims();
        let n = self.samples;
        let mut perms: Vec<Vec<usize>> = Vec::with_capacity(dims);
        for _ in 0..dims {
            let mut perm: Vec<usize> = (0..n).collect();
            // Fisher–Yates from the tuner's own deterministic stream.
            for i in (1..n).rev() {
                let j = self.rng.next_below(i as u64 + 1) as usize;
                perm.swap(i, j);
            }
            perms.push(perm);
        }
        // Transpose to one interval row per sample: row[d] is the
        // interval sample `s` probes on dimension `d`.
        let rows: Vec<Vec<usize>> = (0..n)
            .map(|s| perms.iter().map(|p| p[s]).collect())
            .collect();
        for row in rows {
            let values: Vec<i64> = row
                .iter()
                .enumerate()
                .map(|(d, &interval)| {
                    let def = self.space.def(d);
                    let width = (self.hi[d] - self.lo[d]) as f64;
                    let cell = width / n as f64;
                    let u = self.rng.next_f64();
                    let v = self.lo[d] as f64 + cell * (interval as f64 + u);
                    def.clamp(v.round() as i64)
                })
                .collect();
            self.queue.push_back(Configuration::from_values(values));
        }
        if self.round == 0 {
            // Measure the starting point first so improvement is judged
            // against it (and the session's default row stays honest).
            let start = self
                .start
                .clone()
                .unwrap_or_else(|| self.space.default_config());
            if let Some(front) = self.queue.front_mut() {
                *front = start;
            }
        }
        self.round += 1;
    }

    /// Close the finished round: contract the bounds around its winner
    /// (RBS) or diverge when the round failed to improve.
    fn fold_round(&mut self) {
        let Some(winner) = self
            .results
            .iter()
            .cloned()
            .reduce(|a, b| if b.1 > a.1 { b } else { a })
        else {
            return;
        };
        let improved = winner.1 > self.best_before_round;
        self.best_before_round = self.best_before_round.max(winner.1);
        let center = if improved {
            winner.0
        } else {
            self.diverges += 1;
            self.tracker
                .best()
                .map(|(c, _)| c.clone())
                .unwrap_or_else(|| self.space.default_config())
        };
        for (d, def) in self.space.defs().iter().enumerate() {
            let width = self.hi[d] - self.lo[d];
            let half = if improved {
                // Contract to the winner's sampling cell plus one
                // neighbouring cell on each side.
                ((width / self.samples as i64).max(1)).max(1)
            } else {
                // Diverge: double the current width around the best.
                (width).max(1)
            };
            self.lo[d] = def.clamp(center.get(d) - half);
            self.hi[d] = def.clamp(center.get(d) + half);
            if self.lo[d] == self.hi[d] {
                // A fully collapsed dimension re-opens to the whole span
                // so later divergence can still escape.
                self.lo[d] = def.min;
                self.hi[d] = def.max;
            }
        }
        self.results.clear();
    }

    /// Make sure a round is planned, folding the previous one first.
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

impl Tuner for BestConfigTuner {
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
        } else {
            self.samples
        }
    }

    fn best(&self) -> Option<(&Configuration, f64)> {
        self.tracker.best()
    }

    fn evaluations(&self) -> u64 {
        self.tracker.evaluations()
    }

    fn name(&self) -> &'static str {
        "bestconfig"
    }

    fn reset(&mut self) {
        let start = self.start.clone();
        *self = BestConfigTuner::new(self.space.clone(), self.seed).samples_per_round(self.samples);
        self.start = start;
    }

    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("round", self.round as f64),
            ("diverges", self.diverges as f64),
            ("bound_frac", self.bound_fraction()),
            ("queued", self.queue.len() as f64),
        ]
    }

    fn save_state(&self) -> State {
        Checkpointable::save_state(self)
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        Checkpointable::restore_state(self, state)
    }
}

fn result_state((config, perf): &(Configuration, f64)) -> State {
    State::map()
        .with("values", State::i64_list(config.values()))
        .with("perf", State::F64(*perf))
}

fn result_from_state(state: &State) -> Result<(Configuration, f64), PersistError> {
    Ok((
        Configuration::from_values(state.require("values")?.to_i64_vec()?),
        state.field_f64("perf")?,
    ))
}

impl Checkpointable for BestConfigTuner {
    /// Everything but the parameter space: bounds, the planned round,
    /// outstanding trials, results, and the RNG stream — a restored
    /// tuner continues the exact proposal sequence.
    fn save_state(&self) -> State {
        State::map()
            .with("algorithm", State::Str(self.name().to_string()))
            .with("seed", State::U64(self.seed))
            .with("samples", State::U64(self.samples as u64))
            .with("start", opt_config_state(&self.start))
            .with("lo", State::i64_list(&self.lo))
            .with("hi", State::i64_list(&self.hi))
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
                State::List(self.results.iter().map(result_state).collect()),
            )
            .with("pending", opt_config_state(&self.pending))
            .with("trial_counter", State::U64(self.trial_counter))
            .with("round", State::U64(self.round as u64))
            .with("diverges", State::U64(self.diverges as u64))
            .with("best_before_round", State::F64(self.best_before_round))
            .with("rng", rng_state(&self.rng))
            .with("tracker", self.tracker.save_state())
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let lo = state.require("lo")?.to_i64_vec()?;
        if lo.len() != self.space.dims() {
            return Err(PersistError::Schema(format!(
                "bestconfig bounds have {} dims, space has {}",
                lo.len(),
                self.space.dims()
            )));
        }
        self.seed = state.field_u64("seed")?;
        self.samples = state.field_u64("samples")? as usize;
        self.start = opt_config_from_state(state.require("start")?)?;
        self.lo = lo;
        self.hi = state.require("hi")?.to_i64_vec()?;
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
            .map(result_from_state)
            .collect::<Result<_, _>>()?;
        self.pending = opt_config_from_state(state.require("pending")?)?;
        self.trial_counter = state.field_u64("trial_counter")?;
        self.round = state.field_u64("round")? as u32;
        self.diverges = state.field_u64("diverges")? as u32;
        self.best_before_round = state.field_f64("best_before_round")?;
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
        let dx = v[0] as f64 - 130.0;
        let dy = v[1] as f64 - 60.0;
        -(dx * dx + dy * dy)
    }

    #[test]
    fn improves_on_quadratic_and_stays_in_bounds() {
        let s = space();
        let mut t = BestConfigTuner::new(s.clone(), 42);
        let mut first = None;
        for _ in 0..80 {
            let c = t.propose();
            assert!(s.validate(&c).is_ok(), "{c}");
            let p = objective(c.values());
            first.get_or_insert(p);
            t.observe(p);
        }
        let (best, perf) = t.best().unwrap();
        assert!(perf > first.unwrap(), "never improved");
        let dist = (((best.get(0) - 130).pow(2) + (best.get(1) - 60).pow(2)) as f64).sqrt();
        assert!(dist < 40.0, "best {best} too far (perf {perf})");
    }

    #[test]
    fn first_proposal_is_the_start_point() {
        let s = space();
        assert_eq!(
            BestConfigTuner::new(s.clone(), 1).propose(),
            s.default_config()
        );
        let start = Configuration::from_values(vec![5, 7]);
        assert_eq!(
            BestConfigTuner::new(s, 1)
                .start_from(start.clone())
                .propose(),
            start
        );
    }

    #[test]
    fn batches_cover_whole_rounds_with_unique_ids() {
        let mut t = BestConfigTuner::new(space(), 7).samples_per_round(5);
        let batch = t.propose_batch();
        assert_eq!(batch.len(), 5);
        let mut ids: Vec<u64> = batch.iter().map(|tr| tr.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 5, "trial ids must be unique");
        // Report out of order; the round still closes.
        for tr in batch.iter().rev() {
            t.observe_trial(tr.id, Measurement::point(objective(tr.config.values())));
        }
        assert_eq!(t.evaluations(), 5);
        let next = t.propose_batch();
        assert_eq!(next.len(), 5);
        assert!(next.iter().all(|tr| tr.id >= 5), "ids keep counting");
    }

    #[test]
    fn failed_rounds_diverge_the_bounds() {
        let mut t = BestConfigTuner::new(space(), 3).samples_per_round(4);
        // First round: real scores. Later rounds: always worse, forcing
        // divergence.
        for i in 0..24 {
            let c = t.propose();
            let p = if i < 4 { objective(c.values()) } else { -1e12 };
            t.observe(p);
        }
        assert!(t.diverges > 0, "bounds never widened");
        assert!(t.round >= 5);
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identical_proposals() {
        let mut a = BestConfigTuner::new(space(), 11).samples_per_round(4);
        for _ in 0..9 {
            let c = a.propose();
            a.observe(objective(c.values()));
        }
        // Snapshot mid-protocol, with a proposal pending.
        let _ = a.propose();
        let saved = Checkpointable::save_state(&a);
        a.observe(0.0);

        let mut b = BestConfigTuner::new(space(), 999);
        Checkpointable::restore_state(&mut b, &saved).expect("restore");
        assert_eq!(Checkpointable::save_state(&b), saved, "round trip");
        b.observe(0.0);
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
        let a = BestConfigTuner::new(space(), 1);
        let saved = Checkpointable::save_state(&a);
        let other = ParamSpace::new(vec![ParamDef::new("z", 0, 10, 5)]);
        let mut b = BestConfigTuner::new(other, 1);
        assert!(Checkpointable::restore_state(&mut b, &saved).is_err());
    }

    #[test]
    fn reset_forgets_search_state() {
        let mut t = BestConfigTuner::new(space(), 13);
        for _ in 0..10 {
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
        let mut t = BestConfigTuner::new(space(), 1);
        t.propose();
        t.propose();
    }

    #[test]
    #[should_panic(expected = "observe() without propose()")]
    fn observe_without_propose_panics() {
        let mut t = BestConfigTuner::new(space(), 1);
        t.observe(1.0);
    }
}
