//! Simulated-annealing tuner.
//!
//! The paper's related work (Nimrod/O) applies simulated annealing to
//! design search; this implementation provides the comparison point for
//! the ablation benches: a single-point stochastic search with a
//! geometric cooling schedule and span-proportional neighbourhood moves.

use crate::space::{Configuration, ParamSpace};
use crate::tuner::{
    opt_config_from_state, opt_config_state, rng_from_state, rng_state, BestTracker, Tuner,
};
use persist::{Checkpointable, PersistError, State};
use simkit::rng::SimRng;

/// Simulated annealing over a bounded integer space (ask–tell).
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    space: ParamSpace,
    rng: SimRng,
    seed: u64,
    /// Current accepted point and its performance.
    current: Configuration,
    current_perf: Option<f64>,
    /// Temperature in performance units; `None` until calibrated from the
    /// first observation.
    temperature: Option<f64>,
    /// Geometric cooling factor per observation.
    cooling: f64,
    /// Neighbourhood size as a fraction of each dimension's span.
    reach: f64,
    pending: Option<Configuration>,
    tracker: BestTracker,
    accepted: u64,
}

impl SimulatedAnnealing {
    pub(crate) fn new(space: ParamSpace, seed: u64) -> Self {
        let current = space.default_config();
        SimulatedAnnealing {
            space,
            rng: SimRng::new(seed),
            seed,
            current,
            current_perf: None,
            temperature: None,
            cooling: 0.97,
            reach: 0.25,
            pending: None,
            tracker: BestTracker::default(),
            accepted: 0,
        }
    }

    /// Override the cooling factor (0 < c < 1; closer to 1 cools slower).
    pub(crate) fn with_cooling(mut self, cooling: f64) -> Self {
        assert!(cooling > 0.0 && cooling < 1.0);
        self.cooling = cooling;
        self
    }

    fn neighbour(&mut self) -> Configuration {
        let mut c = self.current.clone();
        // Perturb a random subset (at least one dimension).
        let dims = self.space.dims();
        let k = 1 + self.rng.next_below(dims.min(3) as u64) as usize;
        for _ in 0..k {
            let dim = self.rng.next_below(dims as u64) as usize;
            let def = self.space.def(dim);
            let span = (def.span() as f64 * self.reach).max(1.0);
            let delta = self.rng.normal(0.0, span / 2.0).round() as i64;
            c.set(dim, def.clamp(c.get(dim) + delta));
        }
        c
    }
}

impl Tuner for SimulatedAnnealing {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Configuration {
        assert!(self.pending.is_none(), "propose() twice without observe()");
        let config = if self.current_perf.is_none() {
            self.current.clone()
        } else {
            self.neighbour()
        };
        self.pending = Some(config.clone());
        config
    }

    fn observe(&mut self, performance: f64) {
        let Some(config) = self.pending.take() else {
            panic!("observe() without propose()");
        };
        self.tracker.record(&config, performance);
        match self.current_perf {
            None => {
                // First observation: calibrate the temperature to a tenth
                // of the observed magnitude (scale-free start).
                self.temperature = Some((performance.abs() * 0.1).max(1e-6));
                self.current_perf = Some(performance);
            }
            Some(current) => {
                let Some(t) = self.temperature else {
                    unreachable!("temperature calibrated on first observation")
                };
                let delta = performance - current;
                let accept = delta >= 0.0 || {
                    let p = (delta / t).exp();
                    self.rng.chance(p)
                };
                if accept {
                    self.current = config;
                    self.current_perf = Some(performance);
                    self.accepted += 1;
                }
                self.temperature = Some((t * self.cooling).max(1e-9));
            }
        }
    }

    fn best(&self) -> Option<(&Configuration, f64)> {
        self.tracker.best()
    }

    fn evaluations(&self) -> u64 {
        self.tracker.evaluations()
    }

    fn name(&self) -> &'static str {
        "annealing"
    }

    fn reset(&mut self) {
        *self = SimulatedAnnealing::new(self.space.clone(), self.seed).with_cooling(self.cooling);
    }

    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("accepted", self.accepted as f64),
            ("temperature", self.temperature.unwrap_or(0.0)),
        ]
    }

    fn save_state(&self) -> State {
        Checkpointable::save_state(self)
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        Checkpointable::restore_state(self, state)
    }
}

impl Checkpointable for SimulatedAnnealing {
    fn save_state(&self) -> State {
        State::map()
            .with("algorithm", State::Str(self.name().to_string()))
            .with("seed", State::U64(self.seed))
            .with("current", State::i64_list(self.current.values()))
            .with(
                "current_perf",
                match self.current_perf {
                    Some(p) => State::F64(p),
                    None => State::Null,
                },
            )
            .with(
                "temperature",
                match self.temperature {
                    Some(t) => State::F64(t),
                    None => State::Null,
                },
            )
            .with("cooling", State::F64(self.cooling))
            .with("reach", State::F64(self.reach))
            .with("pending", opt_config_state(&self.pending))
            .with("accepted", State::U64(self.accepted))
            .with("rng", rng_state(&self.rng))
            .with("tracker", self.tracker.save_state())
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let current = Configuration::from_values(state.require("current")?.to_i64_vec()?);
        if current.values().len() != self.space.dims() {
            return Err(PersistError::Schema(format!(
                "annealing current has {} dims, space has {}",
                current.values().len(),
                self.space.dims()
            )));
        }
        self.current = current;
        self.seed = state.field_u64("seed")?;
        self.current_perf = match state.require("current_perf")? {
            State::Null => None,
            s => Some(s.as_f64().ok_or_else(|| {
                PersistError::Schema("field 'current_perf' is not an f64".into())
            })?),
        };
        self.temperature =
            match state.require("temperature")? {
                State::Null => None,
                s => Some(s.as_f64().ok_or_else(|| {
                    PersistError::Schema("field 'temperature' is not an f64".into())
                })?),
            };
        self.cooling = state.field_f64("cooling")?;
        self.reach = state.field_f64("reach")?;
        self.pending = opt_config_from_state(state.require("pending")?)?;
        self.accepted = state.field_u64("accepted")?;
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
    fn improves_on_quadratic() {
        let mut t = SimulatedAnnealing::new(space(), 42);
        let mut first = None;
        for _ in 0..300 {
            let c = t.propose();
            let p = objective(c.values());
            if first.is_none() {
                first = Some(p);
            }
            t.observe(p);
        }
        let (best, perf) = t.best().unwrap();
        assert!(perf > first.unwrap(), "never improved");
        let dist = (((best.get(0) - 130).pow(2) + (best.get(1) - 60).pow(2)) as f64).sqrt();
        assert!(dist < 40.0, "best {best} too far");
        assert!(t.accepted > 0);
    }

    #[test]
    fn always_in_bounds() {
        let s = space();
        let mut t = SimulatedAnnealing::new(s.clone(), 7);
        for i in 0..200 {
            let c = t.propose();
            assert!(s.validate(&c).is_ok(), "iteration {i}: {c}");
            t.observe((i % 17) as f64);
        }
    }

    #[test]
    fn cooling_reduces_uphill_acceptance() {
        // With a fast-cooled schedule, late bad moves are rejected: the
        // current point stops moving downhill.
        let mut t = SimulatedAnnealing::new(space(), 3).with_cooling(0.5);
        // Feed alternating good/bad scores; after cooling, bad proposals
        // should almost never be accepted.
        for i in 0..50 {
            let _ = t.propose();
            t.observe(if i % 2 == 0 { 100.0 } else { -1e6 });
        }
        let early_accepted = t.accepted;
        let before = t.accepted;
        for _ in 0..50 {
            let _ = t.propose();
            t.observe(-1e6);
        }
        let late_accepted = t.accepted - before;
        assert!(
            late_accepted <= 2,
            "late bad moves accepted {late_accepted}"
        );
        assert!(early_accepted >= 1);
    }

    #[test]
    fn evaluates_default_first() {
        let s = space();
        let mut t = SimulatedAnnealing::new(s.clone(), 1);
        assert_eq!(t.propose(), s.default_config());
    }

    #[test]
    #[should_panic(expected = "propose() twice")]
    fn double_propose_panics() {
        let mut t = SimulatedAnnealing::new(space(), 1);
        t.propose();
        t.propose();
    }
}
