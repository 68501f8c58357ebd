//! TUNA-style noise-robust tuning.
//!
//! Live WIPS measurements are noisy: the `faults` crate's seeded noise
//! spikes can inflate a mediocre configuration's score by 4x for one
//! window. A tuner that trusts raw maxima (simplex does) will crown
//! whichever configuration got lucky. Following TUNA (Fekry et al.),
//! this tuner defends itself three ways:
//!
//! * every configuration keeps its **full observation history**, and its
//!   performance estimate is a CI-**weighted median** of that history —
//!   a single 4x spike cannot move a median the way it moves a max;
//! * candidates that look promising after one observation are
//!   **re-confirmed** with extra replications before they may displace
//!   the incumbent — lucky spikes fail their confirmation runs. The
//!   runs are fixed before any of them is measured, so
//!   [`Tuner::propose_batch`] hands them out as one batch;
//! * observations arrive as typed [`Measurement`]s and are weighted by
//!   `replications / (1 + relative_ci)`, so wide-CI (low-trust) windows
//!   count for less than tight ones.
//!
//! `best()` therefore reports the *estimated* performance of the most
//! trustworthy configuration, not the largest number ever seen — the
//! property the `exp_tuners` noise experiment measures.

use crate::space::{Configuration, ParamSpace};
use crate::tuner::{
    opt_config_from_state, opt_config_state, rng_from_state, rng_state, Measurement, Trial, Tuner,
};
use persist::{Checkpointable, PersistError, State};
use simkit::rng::SimRng;

/// One explored configuration with its observation history.
#[derive(Debug, Clone)]
struct Entry {
    config: Configuration,
    obs: Vec<f64>,
    weights: Vec<f64>,
}

impl Entry {
    fn new(config: Configuration) -> Self {
        Entry {
            config,
            obs: Vec::new(),
            weights: Vec::new(),
        }
    }

    fn push(&mut self, m: &Measurement) {
        let weight = m.replications.max(1) as f64 / (1.0 + m.relative_ci());
        self.obs.push(m.mean);
        self.weights.push(weight);
    }

    /// CI-weighted median of the observation history: the smallest
    /// observation at which the cumulative weight reaches half the
    /// total. Robust to one-sided spikes in either direction.
    fn estimate(&self) -> f64 {
        debug_assert_eq!(self.obs.len(), self.weights.len());
        if self.obs.is_empty() {
            return f64::NEG_INFINITY;
        }
        let mut order: Vec<usize> = (0..self.obs.len()).collect();
        order.sort_by(|&a, &b| {
            self.obs[a]
                .partial_cmp(&self.obs[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let total: f64 = self.weights.iter().sum();
        let half = total / 2.0;
        let mut cumulative = 0.0;
        for &i in &order {
            cumulative += self.weights[i];
            if cumulative >= half {
                return self.obs[i];
            }
        }
        self.obs[order[order.len() - 1]]
    }
}

/// What the next proposal is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Propose a fresh neighbour of the incumbent.
    Explore,
    /// Re-measure entry `entry` `remaining` more times before judging it.
    Confirm { entry: usize, remaining: u32 },
}

/// TUNA's noise-robust tuning: replicated confirmation plus CI-weighted
/// median estimates (ask–tell).
#[derive(Debug, Clone)]
pub struct TunaTuner {
    space: ParamSpace,
    rng: SimRng,
    seed: u64,
    /// Neighbourhood reach as a fraction of each dimension's span.
    reach: f64,
    /// Extra replications a candidate needs before it can displace the
    /// incumbent.
    confirmations: u32,
    start: Option<Configuration>,
    entries: Vec<Entry>,
    incumbent: Option<usize>,
    mode: Mode,
    /// Index of the entry awaiting its observation, if any.
    pending: Option<usize>,
    /// Confirmation runs handed out as one batch and not yet observed.
    outstanding: u32,
    evaluations: u64,
}

impl TunaTuner {
    pub fn new(space: ParamSpace, seed: u64) -> Self {
        TunaTuner {
            space,
            rng: SimRng::new(seed),
            seed,
            reach: 0.25,
            confirmations: 2,
            start: None,
            entries: Vec::new(),
            incumbent: None,
            mode: Mode::Explore,
            pending: None,
            outstanding: 0,
            evaluations: 0,
        }
    }

    /// Builder: neighbourhood reach as a fraction of each span.
    pub fn reach(mut self, reach: f64) -> Self {
        assert!(reach > 0.0 && reach <= 1.0, "reach must be in (0, 1]");
        self.reach = reach;
        self
    }

    /// Builder: replications required to confirm a promising candidate.
    pub fn confirmations(mut self, n: u32) -> Self {
        assert!(n >= 1, "confirmation needs at least one replication");
        self.confirmations = n;
        self
    }

    /// Builder: seed the search from a known-good configuration.
    pub fn start_from(mut self, config: Configuration) -> Self {
        self.start = Some(self.space.clamp(config.values()));
        self
    }

    fn incumbent_estimate(&self) -> f64 {
        self.incumbent
            .map(|i| self.entries[i].estimate())
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// Find or create the entry for a configuration.
    fn entry_index(&mut self, config: &Configuration) -> usize {
        if let Some(i) = self.entries.iter().position(|e| &e.config == config) {
            return i;
        }
        self.entries.push(Entry::new(config.clone()));
        self.entries.len() - 1
    }

    /// Annealing-style neighbour of the incumbent.
    fn neighbour(&mut self, base: &Configuration) -> Configuration {
        let dims = self.space.dims();
        let moved = 1 + self.rng.next_below(dims.min(3) as u64) as usize;
        let mut values = base.values().to_vec();
        for _ in 0..moved {
            let d = self.rng.next_below(dims as u64) as usize;
            let def = self.space.def(d);
            let sd = (def.span() as f64 * self.reach / 2.0).max(1.0);
            let delta = self.rng.normal(0.0, sd).round() as i64;
            values[d] = def.clamp(values[d] + delta);
        }
        Configuration::from_values(values)
    }

    /// The configuration the next propose() will hand out.
    fn next_config(&mut self) -> (usize, Configuration) {
        match self.mode {
            Mode::Confirm { entry, .. } => (entry, self.entries[entry].config.clone()),
            Mode::Explore => match self.incumbent {
                None => {
                    let start = self
                        .start
                        .clone()
                        .unwrap_or_else(|| self.space.default_config());
                    let i = self.entry_index(&start);
                    (i, start)
                }
                Some(inc) => {
                    let base = self.entries[inc].config.clone();
                    let candidate = self.neighbour(&base);
                    let i = self.entry_index(&candidate);
                    (i, candidate)
                }
            },
        }
    }

    /// Fold one observation of `entry` in and decide what comes next.
    fn record(&mut self, entry: usize, m: &Measurement) {
        self.entries[entry].push(m);
        self.evaluations += 1;
        self.settle(entry);
    }

    fn settle(&mut self, entry: usize) {
        match self.mode {
            Mode::Confirm {
                entry: confirming,
                remaining,
            } => {
                debug_assert_eq!(entry, confirming);
                if remaining > 1 {
                    self.mode = Mode::Confirm {
                        entry,
                        remaining: remaining - 1,
                    };
                    return;
                }
                // Confirmation complete: adopt iff the replicated
                // estimate beats the incumbent's.
                if self.entries[entry].estimate() > self.incumbent_estimate() {
                    self.incumbent = Some(entry);
                }
                self.mode = Mode::Explore;
            }
            Mode::Explore => {
                match self.incumbent {
                    None => {
                        // First observation ever: the start point becomes
                        // the incumbent and is confirmed like any other.
                        self.incumbent = Some(entry);
                        if self.confirmations > 1 {
                            self.mode = Mode::Confirm {
                                entry,
                                remaining: self.confirmations - 1,
                            };
                        }
                    }
                    Some(_) => {
                        // A candidate that looks better after one window
                        // must survive confirmation before adoption.
                        if self.entries[entry].estimate() > self.incumbent_estimate() {
                            self.mode = Mode::Confirm {
                                entry,
                                remaining: self.confirmations,
                            };
                        }
                    }
                }
            }
        }
    }
}

impl Tuner for TunaTuner {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Configuration {
        assert!(self.pending.is_none(), "propose() twice without observe()");
        assert!(
            self.outstanding == 0,
            "propose() while a confirmation batch is outstanding"
        );
        let (entry, config) = self.next_config();
        self.pending = Some(entry);
        config
    }

    fn observe(&mut self, performance: f64) {
        self.observe_measurement(Measurement::point(performance));
    }

    /// The primary observation path: the CI and replication count feed
    /// the entry's trust weights.
    fn observe_measurement(&mut self, m: Measurement) {
        let Some(entry) = self.pending.take() else {
            panic!("observe() without propose()");
        };
        self.record(entry, &m);
    }

    /// In Confirm mode every remaining confirmation run is one trial of
    /// a single batch; exploration proposes one neighbour at a time.
    fn propose_batch(&mut self) -> Vec<Trial> {
        match self.mode {
            Mode::Confirm { entry, remaining } if self.pending.is_none() => {
                assert!(
                    self.outstanding == 0,
                    "propose_batch() while a confirmation batch is outstanding"
                );
                self.outstanding = remaining;
                let config = &self.entries[entry].config;
                (0..u64::from(remaining))
                    .map(|k| Trial::new(self.evaluations + k, config.clone()))
                    .collect()
            }
            _ => vec![Trial::new(self.evaluations, self.propose())],
        }
    }

    /// Every trial of a confirmation batch measures the same entry, so
    /// the id only has to be unique; results fold in arrival order.
    fn observe_trial(&mut self, _trial_id: u64, m: Measurement) {
        if self.outstanding == 0 {
            self.observe_measurement(m);
            return;
        }
        let Mode::Confirm { entry, .. } = self.mode else {
            unreachable!("a confirmation batch ends with its last trial")
        };
        self.outstanding -= 1;
        self.record(entry, &m);
    }

    /// The confirmation runs still due, while no batch is outstanding;
    /// otherwise one exploration step.
    fn batch_size(&self) -> usize {
        match self.mode {
            Mode::Confirm { remaining, .. } if self.outstanding == 0 => remaining as usize,
            _ => 1,
        }
    }

    /// Best by *estimate*, not by raw maximum: the entry with the
    /// highest weighted-median estimate among those measured at least as
    /// often as the best-replicated entry requires (so a single lucky
    /// spike cannot win while confirmed entries exist).
    fn best(&self) -> Option<(&Configuration, f64)> {
        let deepest = self.entries.iter().map(|e| e.obs.len()).max()?;
        let need = deepest.min(self.confirmations as usize);
        self.entries
            .iter()
            .filter(|e| e.obs.len() >= need && !e.obs.is_empty())
            .map(|e| (e, e.estimate()))
            .reduce(|a, b| if b.1 > a.1 { b } else { a })
            .map(|(e, est)| (&e.config, est))
    }

    fn evaluations(&self) -> u64 {
        self.evaluations
    }

    fn name(&self) -> &'static str {
        "tuna"
    }

    fn reset(&mut self) {
        let start = self.start.clone();
        *self = TunaTuner::new(self.space.clone(), self.seed)
            .reach(self.reach)
            .confirmations(self.confirmations);
        self.start = start;
    }

    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        let confirming = matches!(self.mode, Mode::Confirm { .. });
        vec![
            ("entries", self.entries.len() as f64),
            ("confirming", if confirming { 1.0 } else { 0.0 }),
            ("incumbent_est", {
                let e = self.incumbent_estimate();
                if e.is_finite() {
                    e
                } else {
                    0.0
                }
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

impl Checkpointable for TunaTuner {
    fn save_state(&self) -> State {
        let (mode, mode_entry, mode_remaining) = match self.mode {
            Mode::Explore => ("explore", 0u64, 0u64),
            Mode::Confirm { entry, remaining } => ("confirm", entry as u64, remaining as u64),
        };
        State::map()
            .with("algorithm", State::Str(self.name().to_string()))
            .with("seed", State::U64(self.seed))
            .with("reach", State::F64(self.reach))
            .with("confirmations", State::U64(self.confirmations as u64))
            .with("start", opt_config_state(&self.start))
            .with(
                "entries",
                State::List(
                    self.entries
                        .iter()
                        .map(|e| {
                            State::map()
                                .with("values", State::i64_list(e.config.values()))
                                .with("obs", State::f64_list(&e.obs))
                                .with("weights", State::f64_list(&e.weights))
                        })
                        .collect(),
                ),
            )
            .with(
                "incumbent",
                match self.incumbent {
                    Some(i) => State::U64(i as u64),
                    None => State::Null,
                },
            )
            .with("mode", State::Str(mode.to_string()))
            .with("mode_entry", State::U64(mode_entry))
            .with("mode_remaining", State::U64(mode_remaining))
            .with(
                "pending",
                match self.pending {
                    Some(i) => State::U64(i as u64),
                    None => State::Null,
                },
            )
            .with("outstanding", State::U64(u64::from(self.outstanding)))
            .with("evaluations", State::U64(self.evaluations))
            .with("rng", rng_state(&self.rng))
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let entries = state
            .field_list("entries")?
            .iter()
            .map(|e| {
                let config = Configuration::from_values(e.require("values")?.to_i64_vec()?);
                if config.values().len() != self.space.dims() {
                    return Err(PersistError::Schema(format!(
                        "tuna entry has {} dims, space has {}",
                        config.values().len(),
                        self.space.dims()
                    )));
                }
                Ok(Entry {
                    config,
                    obs: e.require("obs")?.to_f64_vec()?,
                    weights: e.require("weights")?.to_f64_vec()?,
                })
            })
            .collect::<Result<Vec<_>, PersistError>>()?;
        let mode = match state.field_str("mode")? {
            "explore" => Mode::Explore,
            "confirm" => Mode::Confirm {
                entry: state.field_u64("mode_entry")? as usize,
                remaining: state.field_u64("mode_remaining")? as u32,
            },
            other => {
                return Err(PersistError::Schema(format!("unknown tuna mode '{other}'")));
            }
        };
        self.seed = state.field_u64("seed")?;
        self.reach = state.field_f64("reach")?;
        self.confirmations = state.field_u64("confirmations")? as u32;
        self.start = opt_config_from_state(state.require("start")?)?;
        self.incumbent = match state.require("incumbent")? {
            State::Null => None,
            s => Some(
                s.as_u64()
                    .ok_or_else(|| PersistError::Schema("field 'incumbent' is not a u64".into()))?
                    as usize,
            ),
        };
        self.mode = mode;
        self.pending = match state.require("pending")? {
            State::Null => None,
            s => Some(
                s.as_u64()
                    .ok_or_else(|| PersistError::Schema("field 'pending' is not a u64".into()))?
                    as usize,
            ),
        };
        if let Mode::Confirm { entry, .. } = self.mode {
            if entry >= entries.len() {
                return Err(PersistError::Schema(
                    "tuna confirm entry out of range".into(),
                ));
            }
        }
        // Snapshots from before confirmation batches lack the field.
        self.outstanding = match state.get("outstanding") {
            None => 0,
            Some(s) => s
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| PersistError::Schema("field 'outstanding' is not a u32".into()))?,
        };
        let due = match self.mode {
            Mode::Confirm { remaining, .. } => remaining,
            Mode::Explore => 0,
        };
        if self.outstanding > due {
            return Err(PersistError::Schema(format!(
                "tuna has {} confirmation runs outstanding but {due} due",
                self.outstanding
            )));
        }
        self.evaluations = state.field_u64("evaluations")?;
        self.rng = rng_from_state(state.require("rng")?)?;
        self.entries = entries;
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
        let dx = v[0] as f64 - 120.0;
        let dy = v[1] as f64 - 80.0;
        1000.0 - (dx * dx + dy * dy).sqrt()
    }

    #[test]
    fn improves_on_quadratic_and_stays_in_bounds() {
        let s = space();
        let mut t = TunaTuner::new(s.clone(), 42);
        let mut first = None;
        for _ in 0..120 {
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
    fn first_proposals_measure_and_confirm_the_start() {
        let s = space();
        let mut t = TunaTuner::new(s.clone(), 1).confirmations(3);
        for i in 0..3 {
            let c = t.propose();
            assert_eq!(c, s.default_config(), "confirmation {i} re-measures");
            t.observe(5.0);
        }
        assert_eq!(t.entries.len(), 1);
        assert_eq!(t.entries[0].obs.len(), 3);
    }

    #[test]
    fn one_lucky_spike_does_not_become_best() {
        let s = space();
        let mut t = TunaTuner::new(s.clone(), 7).confirmations(2);
        // The true objective is flat at 100, but one window spikes 4x.
        let mut spiked = false;
        for _ in 0..60 {
            let c = t.propose();
            let honest = 100.0;
            let p = if !spiked && c != s.default_config() {
                spiked = true;
                honest * 4.0
            } else {
                honest
            };
            t.observe(p);
        }
        assert!(spiked, "the spike must have been injected");
        let (_, est) = t.best().unwrap();
        assert!(
            est <= 110.0,
            "a single 4x spike leaked into the estimate: {est}"
        );
    }

    #[test]
    fn wide_ci_observations_weigh_less_than_tight_ones() {
        let mut e = Entry::new(space().default_config());
        // Two trusted observations at 100, one untrusted spike at 400.
        e.push(&Measurement::point(100.0).with_ci(1.0));
        e.push(&Measurement::point(100.0).with_ci(1.0));
        e.push(&Measurement::point(400.0).with_ci(350.0));
        assert_eq!(e.estimate(), 100.0, "weighted median resists the spike");
    }

    #[test]
    fn confirmation_gates_adoption() {
        let s = space();
        let mut t = TunaTuner::new(s.clone(), 3).confirmations(2);
        // Establish the incumbent (start point, confirmed).
        for _ in 0..2 {
            let c = t.propose();
            assert_eq!(c, s.default_config());
            t.observe(100.0);
        }
        // A candidate spikes on first sight, then fails confirmation.
        let candidate = t.propose();
        assert_ne!(candidate, s.default_config());
        t.observe(400.0);
        assert!(matches!(t.mode, Mode::Confirm { .. }), "spike → confirm");
        for _ in 0..2 {
            let c = t.propose();
            assert_eq!(c, candidate, "confirmation re-measures the candidate");
            t.observe(50.0);
        }
        // Median of [400, 50, 50] is 50 < 100: incumbent must hold.
        let inc = t.incumbent.unwrap();
        assert_eq!(t.entries[inc].config, s.default_config());
    }

    #[test]
    fn confirmation_batch_follows_the_alternating_sequence() {
        use crate::server::HarmonyServer;
        let build = || Box::new(TunaTuner::new(space(), 9).confirmations(3));
        let mut alternating = HarmonyServer::new("tuna", build());
        let mut batched = HarmonyServer::new("tuna", build()).batch_protocol(true);
        // A session snapshot lands between iterations: the first one
        // here is taken with the rest of a batch queued and outstanding.
        let mut mid_batch = None;
        let mut after_snapshot = Vec::new();
        let mut batched_steps = 0;
        for i in 0..40 {
            let a = alternating.next_config();
            let b = batched.next_config();
            assert_eq!(a, b, "proposal {i} diverged");
            if mid_batch.is_some() {
                after_snapshot.push(b);
            }
            let p = objective(a.values());
            alternating.report(p);
            batched.report(p);
            if batched.queued().len() > 0 {
                batched_steps += 1;
                mid_batch.get_or_insert_with(|| Checkpointable::save_state(&batched));
            }
        }
        assert!(batched_steps > 2, "confirmations never came as a batch");

        // The mid-batch snapshot resumes byte-identically.
        let saved = mid_batch.expect("a mid-batch snapshot");
        let outstanding = saved
            .require("tuner")
            .and_then(|t| t.field_u64("outstanding"));
        assert!(outstanding.expect("outstanding") > 0);
        let mut restored = HarmonyServer::new("tuna", build()).batch_protocol(true);
        Checkpointable::restore_state(&mut restored, &saved).expect("restore");
        assert_eq!(Checkpointable::save_state(&restored), saved, "round trip");
        for (i, expected) in after_snapshot.iter().enumerate() {
            let c = restored.next_config();
            assert_eq!(&c, expected, "resumed proposal {i} diverged");
            restored.report(objective(c.values()));
        }
        assert_eq!(
            Checkpointable::save_state(&restored).encode(),
            Checkpointable::save_state(&batched).encode()
        );
    }

    #[test]
    fn snapshots_without_an_outstanding_count_restore_as_zero() {
        let mut a = TunaTuner::new(space(), 5);
        let c = a.propose();
        a.observe(objective(c.values()));
        let saved = Checkpointable::save_state(&a);
        let State::Map(fields) = saved.clone() else {
            panic!("tuna state is a map")
        };
        let legacy = State::Map(
            fields
                .into_iter()
                .filter(|(k, _)| k != "outstanding")
                .collect(),
        );
        let mut b = TunaTuner::new(space(), 5);
        Checkpointable::restore_state(&mut b, &legacy).expect("legacy restore");
        assert_eq!(Checkpointable::save_state(&b), saved);
        let bad = saved.with("outstanding", State::U64(99));
        assert!(Checkpointable::restore_state(&mut b, &bad).is_err());
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identical_proposals() {
        let mut a = TunaTuner::new(space(), 11).confirmations(2);
        for _ in 0..15 {
            let c = a.propose();
            a.observe(objective(c.values()));
        }
        let saved = Checkpointable::save_state(&a);
        let mut b = TunaTuner::new(space(), 999);
        Checkpointable::restore_state(&mut b, &saved).expect("restore");
        assert_eq!(Checkpointable::save_state(&b), saved, "round trip");
        for i in 0..40 {
            let ca = a.propose();
            let cb = b.propose();
            assert_eq!(ca, cb, "proposal {i} diverged");
            let p = objective(ca.values());
            a.observe(p);
            b.observe(p);
        }
        assert_eq!(
            a.best().map(|(c, p)| (c.clone(), p)),
            b.best().map(|(c, p)| (c.clone(), p))
        );
    }

    #[test]
    fn restore_rejects_wrong_dims() {
        let mut a = TunaTuner::new(space(), 1);
        let c = a.propose();
        a.observe(objective(c.values()));
        let saved = Checkpointable::save_state(&a);
        let other = ParamSpace::new(vec![ParamDef::new("z", 0, 10, 5)]);
        let mut b = TunaTuner::new(other, 1);
        assert!(Checkpointable::restore_state(&mut b, &saved).is_err());
    }

    #[test]
    fn reset_forgets_search_state() {
        let mut t = TunaTuner::new(space(), 13);
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
        let mut t = TunaTuner::new(space(), 1);
        t.propose();
        t.propose();
    }

    #[test]
    #[should_panic(expected = "observe() without propose()")]
    fn observe_without_propose_panics() {
        let mut t = TunaTuner::new(space(), 1);
        t.observe(1.0);
    }
}
