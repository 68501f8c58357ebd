//! Nelder–Mead simplex search adapted to bounded integer spaces.
//!
//! The Active Harmony kernel (paper §II.B): a simplex of `n+1` points in
//! the `n`-dimensional parameter space moves toward better performance by
//! reflecting its worst vertex through the centroid of the others, with
//! expansion, contraction, and multiple contraction (shrink) steps — the
//! three outcomes illustrated in the paper's Figure 3.
//!
//! Adaptations for this setting:
//!
//! * **Integer projection** — every candidate is rounded to the nearest
//!   integer point and clamped to the bounds ("using the resulting values
//!   from the nearest integer point", §II.B).
//! * **Noisy, maximise** — performance is a measured throughput, so the
//!   tuner maximises `perf` (internally minimising `-perf`) and never
//!   assumes re-evaluations agree.
//! * **Degeneracy restart** — when integer rounding collapses the simplex,
//!   it is re-seeded around the best-known point with smaller steps.
//! * **Conservative mode** (optional; the paper's future-work idea of
//!   avoiding extreme values) — candidate steps are shortened so no
//!   coordinate jumps more than a fraction of its range per move.

use crate::space::{Configuration, ParamSpace};
use crate::tuner::{BestTracker, Tuner};
use persist::{Checkpointable, PersistError, State};

/// Standard Nelder–Mead coefficients.
const ALPHA: f64 = 1.0; // reflection
const GAMMA: f64 = 2.0; // expansion
const RHO: f64 = 0.5; // contraction
const SIGMA: f64 = 0.5; // shrink

/// Fraction of each dimension's span used for the initial simplex step.
const INIT_STEP_FRAC: f64 = 0.25;

/// Conservative mode: max per-move coordinate travel as a span fraction.
const CONSERVATIVE_TRAVEL_FRAC: f64 = 0.20;

#[derive(Debug, Clone)]
struct Vertex {
    config: Configuration,
    cost: f64, // -performance
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    /// Building the initial simplex: vertex `next` is being evaluated.
    Init { next: usize },
    /// Waiting to propose the next reflection.
    Reflect,
    /// Reflection point proposed/being evaluated.
    EvalReflect,
    /// Expansion point being evaluated (reflection was a new best).
    EvalExpand,
    /// Outside contraction being evaluated (reflection mediocre).
    EvalContractOut,
    /// Inside contraction being evaluated (reflection was worst).
    EvalContractIn,
    /// Multiple contraction: shrinking vertex `next` toward the best.
    Shrink { next: usize },
}

/// Nelder–Mead over a bounded integer space (ask–tell).
#[derive(Debug, Clone)]
pub struct SimplexTuner {
    space: ParamSpace,
    conservative: bool,
    vertices: Vec<Vertex>,
    phase: Phase,
    /// Config proposed and awaiting its observation.
    pending: Option<Configuration>,
    /// Evaluated reflection vertex (kept while deciding expansion etc.).
    reflected: Option<Vertex>,
    /// Index of the worst vertex for the current reflect cycle.
    worst_idx: usize,
    /// Centroid of all vertices except the worst (current cycle).
    centroid: Vec<f64>,
    /// Per-dimension init step (restarts shrink it).
    init_step: Vec<f64>,
    /// Seed point for (re-)initialisation.
    seed: Configuration,
    tracker: BestTracker,
    restarts: u32,
}

impl SimplexTuner {
    pub fn new(space: ParamSpace) -> Self {
        let seed = space.default_config();
        Self::with_seed(space, seed)
    }

    /// Start the initial simplex around a given configuration.
    pub fn with_seed(space: ParamSpace, seed: Configuration) -> Self {
        let init_step: Vec<f64> = space
            .defs()
            .iter()
            .map(|d| (d.span() as f64 * INIT_STEP_FRAC).max(1.0))
            .collect();
        SimplexTuner {
            space,
            conservative: false,
            vertices: Vec::new(),
            phase: Phase::Init { next: 0 },
            pending: None,
            reflected: None,
            worst_idx: 0,
            centroid: Vec::new(),
            init_step,
            seed,
            tracker: BestTracker::default(),
            restarts: 0,
        }
    }

    /// Enable conservative stepping (avoid jumping to extreme values).
    pub fn conservative(mut self, on: bool) -> Self {
        self.conservative = on;
        self
    }

    /// Number of degeneracy restarts so far (diagnostics).
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Number of vertices currently in the simplex.
    pub fn simplex_size(&self) -> usize {
        self.vertices.len()
    }

    fn dims(&self) -> usize {
        self.space.dims()
    }

    /// The `i`-th initial vertex: the seed, then seed ± step per dimension.
    fn init_vertex(&self, i: usize) -> Configuration {
        if i == 0 {
            return self.seed.clone();
        }
        let dim = i - 1;
        let mut point = self.seed.as_f64();
        let def = self.space.def(dim);
        let step = self.init_step[dim];
        // Step toward the side with more room.
        let up_room = def.max as f64 - point[dim];
        let down_room = point[dim] - def.min as f64;
        point[dim] += if up_room >= down_room { step } else { -step };
        self.space.project(&point)
    }

    /// Centroid of all vertices except `exclude`.
    fn centroid_excluding(&self, exclude: usize) -> Vec<f64> {
        let n = self.dims();
        let mut c = vec![0.0; n];
        let m = (self.vertices.len() - 1).max(1) as f64;
        for (i, v) in self.vertices.iter().enumerate() {
            if i == exclude {
                continue;
            }
            for (acc, &x) in c.iter_mut().zip(v.config.values()) {
                *acc += x as f64 / m;
            }
        }
        c
    }

    /// Candidate = centroid + coef * (centroid - worst), conservative-
    /// clamped and integer-projected.
    fn candidate(&self, coef: f64) -> Configuration {
        let centroid = &self.centroid;
        let worst = self.vertices[self.worst_idx].config.as_f64();
        let mut point: Vec<f64> = centroid
            .iter()
            .zip(&worst)
            .map(|(&c, &w)| c + coef * (c - w))
            .collect();
        if self.conservative {
            for (i, p) in point.iter_mut().enumerate() {
                let span = self.space.def(i).span() as f64;
                let max_travel = (span * CONSERVATIVE_TRAVEL_FRAC).max(1.0);
                let delta = (*p - centroid[i]).clamp(-max_travel, max_travel);
                *p = centroid[i] + delta;
            }
        }
        self.space.project(&point)
    }

    /// The shrink point for vertex `next`.
    fn shrink_point(&self, next: usize) -> Configuration {
        let best = self.best_vertex_idx();
        let bp = self.vertices[best].config.as_f64();
        let vp = self.vertices[next].config.as_f64();
        let point: Vec<f64> = bp
            .iter()
            .zip(&vp)
            .map(|(&b, &v)| b + SIGMA * (v - b))
            .collect();
        self.space.project(&point)
    }

    fn worst_and_indices(&self) -> (usize, usize, f64) {
        // Returns (worst index, best index, second-worst cost).
        let mut worst = 0;
        let mut best = 0;
        for (i, v) in self.vertices.iter().enumerate() {
            if v.cost > self.vertices[worst].cost {
                worst = i;
            }
            if v.cost < self.vertices[best].cost {
                best = i;
            }
        }
        let second_worst_cost = self
            .vertices
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != worst)
            .map(|(_, v)| v.cost)
            .fold(f64::NEG_INFINITY, f64::max);
        (worst, best, second_worst_cost)
    }

    fn best_vertex_idx(&self) -> usize {
        self.worst_and_indices().1
    }

    /// True if integer projection collapsed the simplex.
    fn degenerate(&self) -> bool {
        let first = &self.vertices[0].config;
        self.vertices.iter().all(|v| v.config == *first)
    }

    /// Re-seed the simplex around the best-known configuration with halved
    /// steps (never below one integer step).
    fn restart(&mut self) {
        self.restarts += 1;
        if let Some((best, _)) = self.tracker.best() {
            self.seed = best.clone();
        }
        for s in &mut self.init_step {
            *s = (*s / 2.0).max(1.0);
        }
        self.vertices.clear();
        self.reflected = None;
        self.phase = Phase::Init { next: 0 };
    }

    /// Begin a reflect cycle: fix the worst vertex and centroid.
    fn begin_reflect(&mut self) {
        let (worst, _, _) = self.worst_and_indices();
        self.worst_idx = worst;
        self.centroid = self.centroid_excluding(worst);
    }
}

impl Tuner for SimplexTuner {
    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn propose(&mut self) -> Configuration {
        assert!(
            self.pending.is_none(),
            "propose() called twice without observe()"
        );
        let config = match self.phase.clone() {
            Phase::Init { next } => self.init_vertex(next),
            Phase::Reflect => {
                self.begin_reflect();
                self.phase = Phase::EvalReflect;
                self.candidate(ALPHA)
            }
            Phase::EvalReflect => unreachable!("EvalReflect set inside propose"),
            Phase::EvalExpand => self.candidate(GAMMA),
            Phase::EvalContractOut => self.candidate(RHO),
            Phase::EvalContractIn => self.candidate(-RHO),
            Phase::Shrink { next } => self.shrink_point(next),
        };
        self.pending = Some(config.clone());
        config
    }

    fn observe(&mut self, performance: f64) {
        let Some(config) = self.pending.take() else {
            panic!("observe() without a pending propose()");
        };
        self.tracker.record(&config, performance);
        let cost = -performance;
        let vertex = Vertex { config, cost };

        match self.phase.clone() {
            Phase::Init { next } => {
                self.vertices.push(vertex);
                let full = self.vertices.len() == self.dims() + 1;
                self.phase = if full {
                    Phase::Reflect
                } else {
                    Phase::Init { next: next + 1 }
                };
            }
            Phase::EvalReflect => {
                let (_, best, second_worst) = self.worst_and_indices();
                let best_cost = self.vertices[best].cost;
                let worst_cost = self.vertices[self.worst_idx].cost;
                if vertex.cost < best_cost {
                    // New best: try to go further.
                    self.reflected = Some(vertex);
                    self.phase = Phase::EvalExpand;
                } else if vertex.cost < second_worst {
                    self.vertices[self.worst_idx] = vertex;
                    self.phase = Phase::Reflect;
                } else if vertex.cost < worst_cost {
                    self.reflected = Some(vertex);
                    self.phase = Phase::EvalContractOut;
                } else {
                    self.reflected = Some(vertex);
                    self.phase = Phase::EvalContractIn;
                }
            }
            Phase::EvalExpand => {
                let Some(reflected) = self.reflected.take() else {
                    unreachable!("reflection stored before EvalExpand")
                };
                self.vertices[self.worst_idx] = if vertex.cost < reflected.cost {
                    vertex
                } else {
                    reflected
                };
                self.phase = Phase::Reflect;
            }
            Phase::EvalContractOut => {
                let Some(reflected) = self.reflected.take() else {
                    unreachable!("reflection stored before EvalContractOut")
                };
                if vertex.cost <= reflected.cost {
                    self.vertices[self.worst_idx] = vertex;
                    self.phase = Phase::Reflect;
                } else {
                    // Keep the (better-than-worst) reflection, then shrink.
                    self.vertices[self.worst_idx] = reflected;
                    self.phase = Phase::Shrink { next: 0 };
                    self.skip_best_in_shrink();
                }
            }
            Phase::EvalContractIn => {
                self.reflected = None;
                if vertex.cost < self.vertices[self.worst_idx].cost {
                    self.vertices[self.worst_idx] = vertex;
                    self.phase = Phase::Reflect;
                } else {
                    self.phase = Phase::Shrink { next: 0 };
                    self.skip_best_in_shrink();
                }
            }
            Phase::Shrink { next } => {
                self.vertices[next] = vertex;
                let mut n = next + 1;
                let best = self.best_vertex_idx();
                if n == best {
                    n += 1;
                }
                if n >= self.vertices.len() {
                    if self.degenerate() {
                        self.restart();
                    } else {
                        self.phase = Phase::Reflect;
                    }
                } else {
                    self.phase = Phase::Shrink { next: n };
                }
            }
            Phase::Reflect => unreachable!("observe in non-evaluating phase"),
        }
        // Degeneracy can also arise from repeated integer contraction.
        if matches!(self.phase, Phase::Reflect)
            && self.vertices.len() == self.dims() + 1
            && self.degenerate()
        {
            self.restart();
        }
    }

    fn best(&self) -> Option<(&Configuration, f64)> {
        self.tracker.best()
    }

    fn evaluations(&self) -> u64 {
        self.tracker.evaluations()
    }

    fn name(&self) -> &'static str {
        if self.conservative {
            "simplex-conservative"
        } else {
            "simplex"
        }
    }

    /// Fresh search from the original seed: full-size initial steps, an
    /// empty simplex, and no best-seen memory. Unlike the internal
    /// degeneracy [`restart`](Self::restart), this forgets everything —
    /// it is meant for workload changes, where the old optimum is stale.
    fn reset(&mut self) {
        let seed = self.space.default_config();
        let fresh =
            SimplexTuner::with_seed(self.space.clone(), seed).conservative(self.conservative);
        *self = fresh;
    }

    fn save_state(&self) -> State {
        Checkpointable::save_state(self)
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        Checkpointable::restore_state(self, state)
    }

    /// Simplex vertex state: size, restarts, and the cost spread between
    /// the best and worst vertex (zero spread = converged or degenerate).
    fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        let mut d = vec![
            ("simplex_size", self.vertices.len() as f64),
            ("restarts", self.restarts as f64),
        ];
        if !self.vertices.is_empty() {
            let (worst, best, _) = self.worst_and_indices();
            d.push((
                "vertex_cost_spread",
                self.vertices[worst].cost - self.vertices[best].cost,
            ));
            d.push(("best_vertex_perf", -self.vertices[best].cost));
        }
        d
    }
}

impl SimplexTuner {
    /// Shrink must not re-evaluate the best vertex: advance past it.
    fn skip_best_in_shrink(&mut self) {
        if let Phase::Shrink { next } = self.phase {
            let best = self.best_vertex_idx();
            if next == best {
                self.phase = Phase::Shrink { next: next + 1 };
            }
        }
    }
}

impl Phase {
    fn save(&self) -> State {
        let (tag, next) = match self {
            Phase::Init { next } => ("init", Some(*next)),
            Phase::Reflect => ("reflect", None),
            Phase::EvalReflect => ("eval_reflect", None),
            Phase::EvalExpand => ("eval_expand", None),
            Phase::EvalContractOut => ("eval_contract_out", None),
            Phase::EvalContractIn => ("eval_contract_in", None),
            Phase::Shrink { next } => ("shrink", Some(*next)),
        };
        let mut s = State::map().with("tag", State::Str(tag.to_string()));
        if let Some(next) = next {
            s.set("next", State::U64(next as u64));
        }
        s
    }

    fn restore(state: &State) -> Result<Phase, PersistError> {
        let next = || state.field_u64("next").map(|n| n as usize);
        Ok(match state.field_str("tag")? {
            "init" => Phase::Init { next: next()? },
            "reflect" => Phase::Reflect,
            "eval_reflect" => Phase::EvalReflect,
            "eval_expand" => Phase::EvalExpand,
            "eval_contract_out" => Phase::EvalContractOut,
            "eval_contract_in" => Phase::EvalContractIn,
            "shrink" => Phase::Shrink { next: next()? },
            other => {
                return Err(PersistError::Schema(format!(
                    "unknown simplex phase '{other}'"
                )))
            }
        })
    }
}

fn vertex_state(v: &Vertex) -> State {
    State::map()
        .with("values", State::i64_list(v.config.values()))
        .with("cost", State::F64(v.cost))
}

fn vertex_restore(state: &State) -> Result<Vertex, PersistError> {
    Ok(Vertex {
        config: Configuration::from_values(state.require("values")?.to_i64_vec()?),
        cost: state.field_f64("cost")?,
    })
}

fn optional_config(c: &Option<Configuration>) -> State {
    match c {
        Some(config) => State::i64_list(config.values()),
        None => State::Null,
    }
}

fn optional_config_restore(state: &State) -> Result<Option<Configuration>, PersistError> {
    match state {
        State::Null => Ok(None),
        values => Ok(Some(Configuration::from_values(values.to_i64_vec()?))),
    }
}

impl Checkpointable for SimplexTuner {
    /// Everything but the parameter space (which the session rebuilds
    /// from its own config): simplex geometry, phase machine, pending
    /// proposal, step sizes, and the best-seen tracker.
    fn save_state(&self) -> State {
        State::map()
            .with("algorithm", State::Str(self.name().to_string()))
            .with("conservative", State::Bool(self.conservative))
            .with(
                "vertices",
                State::List(self.vertices.iter().map(vertex_state).collect()),
            )
            .with("phase", self.phase.save())
            .with("pending", optional_config(&self.pending))
            .with(
                "reflected",
                match &self.reflected {
                    Some(v) => vertex_state(v),
                    None => State::Null,
                },
            )
            .with("worst_idx", State::U64(self.worst_idx as u64))
            .with("centroid", State::f64_list(&self.centroid))
            .with("init_step", State::f64_list(&self.init_step))
            .with("seed", State::i64_list(self.seed.values()))
            .with("tracker", self.tracker.save_state())
            .with("restarts", State::U64(self.restarts as u64))
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let dims = self.space.dims();
        let seed = Configuration::from_values(state.require("seed")?.to_i64_vec()?);
        if seed.values().len() != dims {
            return Err(PersistError::Schema(format!(
                "simplex seed has {} values, space has {dims} dims",
                seed.values().len()
            )));
        }
        self.conservative = state.field_bool("conservative")?;
        self.vertices = state
            .field_list("vertices")?
            .iter()
            .map(vertex_restore)
            .collect::<Result<_, _>>()?;
        self.phase = Phase::restore(state.require("phase")?)?;
        self.pending = optional_config_restore(state.require("pending")?)?;
        self.reflected = match state.require("reflected")? {
            State::Null => None,
            v => Some(vertex_restore(v)?),
        };
        self.worst_idx = state.field_u64("worst_idx")? as usize;
        self.centroid = state.require("centroid")?.to_f64_vec()?;
        self.init_step = state.require("init_step")?.to_f64_vec()?;
        self.seed = seed;
        self.tracker.restore_state(state.require("tracker")?)?;
        self.restarts = state.field_u64("restarts")? as u32;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamDef;

    fn space2d() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::new("x", 0, 200, 20),
            ParamDef::new("y", 0, 200, 180),
        ])
    }

    /// Drive a tuner against a deterministic objective.
    fn run(tuner: &mut dyn Tuner, f: impl Fn(&[i64]) -> f64, iters: usize) {
        for _ in 0..iters {
            let c = tuner.propose();
            let perf = f(c.values());
            tuner.observe(perf);
        }
    }

    #[test]
    fn initial_simplex_has_n_plus_one_distinct_vertices() {
        let mut t = SimplexTuner::new(space2d());
        let mut seen = Vec::new();
        for _ in 0..3 {
            let c = t.propose();
            assert!(!seen.contains(&c), "duplicate init vertex {c}");
            seen.push(c);
            t.observe(0.0);
        }
        assert_eq!(t.simplex_size(), 3);
    }

    #[test]
    fn finds_quadratic_optimum() {
        let mut t = SimplexTuner::new(space2d());
        // Maximum at (120, 60).
        let f = |v: &[i64]| {
            let dx = v[0] as f64 - 120.0;
            let dy = v[1] as f64 - 60.0;
            -(dx * dx + dy * dy)
        };
        run(&mut t, f, 120);
        let (best, perf) = t.best().unwrap();
        let dist = (((best.get(0) - 120).pow(2) + (best.get(1) - 60).pow(2)) as f64).sqrt();
        assert!(
            dist < 12.0,
            "best {best} (perf {perf}) too far from optimum"
        );
    }

    #[test]
    fn respects_bounds_always() {
        let space = ParamSpace::new(vec![
            ParamDef::new("a", 10, 20, 15),
            ParamDef::new("b", -5, 5, 0),
            ParamDef::new("c", 0, 1000, 500),
        ]);
        let mut t = SimplexTuner::new(space.clone());
        // Adversarial objective pushing outward.
        let f = |v: &[i64]| (v[0] + v[1] + v[2]) as f64;
        for _ in 0..200 {
            let c = t.propose();
            assert!(space.validate(&c).is_ok(), "out-of-bounds proposal {c}");
            t.observe(f(c.values()));
        }
        // It should drive parameters to their maxima.
        let (best, _) = t.best().unwrap();
        assert_eq!(best.get(0), 20);
        assert_eq!(best.get(2), 1000);
    }

    #[test]
    fn conservative_mode_limits_travel() {
        let space = ParamSpace::new(vec![ParamDef::new("a", 0, 1000, 500)]);
        let mut aggressive = SimplexTuner::new(space.clone());
        let mut conservative = SimplexTuner::new(space).conservative(true);
        let f = |v: &[i64]| v[0] as f64;
        // After init (2 evals), track the largest single move of proposals.
        let max_step = |t: &mut SimplexTuner| {
            let mut last: Option<i64> = None;
            let mut max_step = 0i64;
            for _ in 0..40 {
                let c = t.propose();
                if let Some(prev) = last {
                    max_step = max_step.max((c.get(0) - prev).abs());
                }
                last = Some(c.get(0));
                t.observe(f(c.values()));
            }
            max_step
        };
        let a = max_step(&mut aggressive);
        let c = max_step(&mut conservative);
        assert!(c <= 260, "conservative moved {c} in one step");
        assert!(
            a >= c,
            "aggressive ({a}) should move at least as far as conservative ({c})"
        );
    }

    #[test]
    fn handles_noisy_objective_without_panicking() {
        let mut t = SimplexTuner::new(space2d());
        let mut state = 12345u64;
        let mut noise = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 20.0
        };
        for _ in 0..300 {
            let c = t.propose();
            let base = -(c.get(0) as f64 - 100.0).abs();
            t.observe(base + noise());
        }
        assert!(t.best().is_some());
        assert_eq!(t.evaluations(), 300);
    }

    #[test]
    fn restart_recovers_from_degenerate_simplex() {
        // One-dimensional tight space: integer rounding collapses fast.
        let space = ParamSpace::new(vec![ParamDef::new("a", 0, 4, 2)]);
        let mut t = SimplexTuner::new(space);
        let f = |v: &[i64]| -((v[0] - 3) as f64).abs();
        for _ in 0..60 {
            let c = t.propose();
            t.observe(f(c.values()));
        }
        assert_eq!(t.best().unwrap().0.get(0), 3);
        // Collapse must have triggered at least one restart in 60 iters of
        // a 5-point space.
        assert!(t.restarts() > 0);
    }

    #[test]
    fn ask_tell_aliases_drive_the_search() {
        let mut t = SimplexTuner::new(space2d());
        for _ in 0..30 {
            let c = t.ask();
            t.tell_measurement(crate::tuner::Measurement::point(
                -(c.get(0) as f64 - 120.0).abs(),
            ));
        }
        assert_eq!(t.evaluations(), 30);
        assert!(t.best().is_some());
    }

    #[test]
    fn reset_forgets_search_state() {
        let mut t = SimplexTuner::new(space2d());
        run(&mut t, |v| v[0] as f64, 40);
        assert!(t.evaluations() == 40 && t.best().is_some());
        t.reset();
        assert_eq!(t.evaluations(), 0);
        assert!(t.best().is_none());
        assert_eq!(t.simplex_size(), 0);
        // And it can tune again from scratch.
        run(&mut t, |v| -(v[0] as f64 - 50.0).abs(), 40);
        assert_eq!(t.evaluations(), 40);
    }

    #[test]
    fn diagnostics_expose_vertex_state() {
        let mut t = SimplexTuner::new(space2d());
        run(&mut t, |v| v[0] as f64, 10);
        let d = t.diagnostics();
        let get = |name: &str| {
            d.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing diagnostic {name}"))
        };
        assert_eq!(get("simplex_size"), 3.0);
        assert!(get("vertex_cost_spread") >= 0.0);
    }

    #[test]
    #[should_panic(expected = "propose() called twice")]
    fn double_propose_panics() {
        let mut t = SimplexTuner::new(space2d());
        t.propose();
        t.propose();
    }

    #[test]
    #[should_panic(expected = "without a pending propose")]
    fn observe_without_propose_panics() {
        let mut t = SimplexTuner::new(space2d());
        t.observe(1.0);
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identical_proposals() {
        let f = |v: &[i64]| -(v[0] as f64 - 120.0).abs() - (v[1] as f64 - 60.0).abs();
        let mut live = SimplexTuner::new(space2d()).conservative(true);
        for _ in 0..23 {
            let c = live.propose();
            let p = f(c.values());
            live.observe(p);
        }
        // Checkpoint mid-protocol too: a proposal is pending.
        let pending = live.propose();
        let saved = Checkpointable::save_state(&live);
        let mut resumed = SimplexTuner::new(space2d());
        Checkpointable::restore_state(&mut resumed, &saved).unwrap();
        assert_eq!(resumed.name(), "simplex-conservative");
        let p = f(pending.values());
        live.observe(p);
        resumed.observe(p);
        for _ in 0..40 {
            let a = live.propose();
            let b = resumed.propose();
            assert_eq!(a, b, "diverged after resume");
            let perf = f(a.values());
            live.observe(perf);
            resumed.observe(perf);
        }
        assert_eq!(live.evaluations(), resumed.evaluations());
        assert_eq!(live.best().unwrap().0, resumed.best().unwrap().0);
        assert_eq!(live.restarts(), resumed.restarts());
    }

    #[test]
    fn restore_rejects_wrong_shape_and_wrong_dims() {
        let mut t = SimplexTuner::new(space2d());
        assert!(Checkpointable::restore_state(&mut t, &State::Null).is_err());
        // A 1-D tuner's state must not restore into a 2-D space.
        let mut one_d = SimplexTuner::new(ParamSpace::new(vec![ParamDef::new("a", 0, 9, 5)]));
        for _ in 0..4 {
            let c = one_d.propose();
            one_d.observe(c.get(0) as f64);
        }
        let saved = Checkpointable::save_state(&one_d);
        assert!(matches!(
            Checkpointable::restore_state(&mut t, &saved),
            Err(PersistError::Schema(_))
        ));
    }

    #[test]
    fn n_plus_one_before_improvement() {
        // The paper: tuning n parameters requires exploring n+1
        // configurations before improvements take effect.
        let space = ParamSpace::new(vec![
            ParamDef::new("a", 0, 100, 50),
            ParamDef::new("b", 0, 100, 50),
            ParamDef::new("c", 0, 100, 50),
        ]);
        let mut t = SimplexTuner::new(space);
        for i in 0..4 {
            assert_eq!(t.simplex_size(), i);
            let c = t.propose();
            t.observe(c.get(0) as f64);
        }
        assert_eq!(t.simplex_size(), 4);
    }
}
