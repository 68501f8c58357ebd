//! EXP-TUNERS: cross-tuner, cross-workload comparison of the tuner zoo.
//!
//! Not a paper artifact — the paper fixes the Nelder–Mead simplex — but
//! the natural follow-up once the `Tuner` trait hosts more than one
//! algorithm: how do BestConfig's divide-and-diverge sampling,
//! ClassyTune's comparison-based classification, and TUNA's noise-robust
//! confirmation protocol stack up against the paper's simplex on the
//! same workloads? Two probes per (tuner, workload) cell:
//!
//! 1. a **clean** tuning session (best WIPS, improvement over the
//!    default configuration, iterations until within 1% of best);
//! 2. the same session under a periodic measurement-noise fault plan
//!    (stability: second-half coefficient of variation).
//!
//! The **noise duel** then isolates the trait-v2 payoff: each tuner runs
//! ask/tell against spiked measurements, reports the configuration *it*
//! believes is best, and that configuration is re-measured fault-free.
//! A tuner fooled by a 4× noise spike (the simplex keeps the raw maximum
//! it observed) overstates its best; TUNA's CI-weighted median estimate
//! discards the spike, so its reported best survives clean
//! re-measurement. `regression` is that overstatement, relative.

use super::{population_for, Effort};
use crate::binding;
use crate::session::{tune_observed, tuner_seed, SessionConfig, SessionError, SessionObserver};
use cluster::config::Topology;
use faults::FaultPlan;
use harmony::strategy::TuningMethod;
use tpcw::mix::Workload;

/// The tuners this experiment compares (all speak the full ask/tell v2
/// protocol and persist through the checkpoint path).
pub const ZOO: [&str; 4] = ["simplex", "bestconfig", "classytune", "tuna"];

/// The workloads each tuner runs against.
pub const WORKLOADS: [Workload; 2] = [Workload::Browsing, Workload::Shopping];

/// One (tuner, workload) cell of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub tuner: &'static str,
    pub workload: Workload,
    /// Default-configuration WIPS (the shared baseline for the column).
    pub default_wips: f64,
    /// Best WIPS found in the clean session.
    pub best_wips: f64,
    /// `best_wips / default_wips - 1`.
    pub improvement: f64,
    /// First iteration within 1% of the session best.
    pub iterations_to_best: u32,
    /// Second-half WIPS standard deviation of the clean session.
    pub second_half_sd: f64,
    /// Second-half coefficient of variation under the periodic noise
    /// fault plan — the "stability under faults" column.
    pub faulted_cv: f64,
}

/// One tuner's outcome in the noise duel.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseOutcome {
    pub tuner: &'static str,
    /// The performance the tuner *claims* for its best configuration
    /// (its own `best()` — whatever its internal estimate kept).
    pub reported_best: f64,
    /// Fault-free re-measurement of that configuration.
    pub clean_wips: f64,
    /// Relative overstatement: `max(0, reported/clean - 1)`.
    pub regression: f64,
}

/// Result of the cross-tuner experiment.
#[derive(Debug, Clone)]
pub struct TunersResult {
    pub cells: Vec<Cell>,
    pub noise: Vec<NoiseOutcome>,
}

impl TunersResult {
    /// The duel outcome for one tuner, when it ran.
    pub fn noise_for(&self, tuner: &str) -> Option<&NoiseOutcome> {
        self.noise.iter().find(|n| n.tuner == tuner)
    }
}

/// A 4× measurement-noise spike in every third iteration window,
/// starting at window 1 — frequent enough that every tuner's search
/// crosses several spiked measurements.
pub(crate) fn noise_plan(effort: &Effort) -> FaultPlan {
    let window = effort.plan.total().as_secs_f64();
    let mut plan = FaultPlan::new();
    let mut w = 1u32;
    while w < effort.iterations {
        plan = plan.noise_spike(
            w as f64 * window + effort.plan.warmup.as_secs_f64() + 1.0,
            4.0,
        );
        w += 3;
    }
    plan
}

fn session(effort: &Effort, seed: u64, workload: Workload, tuner: &str) -> SessionConfig {
    SessionConfig::new(
        Topology::single(),
        workload,
        population_for(workload, effort),
    )
    .plan(effort.plan)
    .base_seed(seed)
    .tuner(tuner)
}

fn cell(
    effort: &Effort,
    seed: u64,
    workload: Workload,
    tuner: &'static str,
) -> Result<Cell, SessionError> {
    let clean_cfg = session(effort, seed, workload, tuner);
    let (default_wips, _) = clean_cfg.measure_default(effort.reps);
    let mut observer = SessionObserver::none();
    let clean = tune_observed(
        &clean_cfg,
        TuningMethod::Default,
        effort.iterations,
        &mut observer,
    )?;

    let noisy_cfg = clean_cfg.clone().fault_plan(noise_plan(effort));
    let noisy = tune_observed(
        &noisy_cfg,
        TuningMethod::Default,
        effort.iterations,
        &mut observer,
    )?;
    let half = effort.iterations as usize / 2;
    let (_, second_half_sd) = clean.window_stats(half, effort.iterations as usize);
    let (noisy_mean, noisy_sd) = noisy.window_stats(half, effort.iterations as usize);

    Ok(Cell {
        tuner,
        workload,
        default_wips,
        best_wips: clean.best_wips,
        improvement: clean.best_wips / default_wips - 1.0,
        iterations_to_best: clean.first_within(0.99),
        second_half_sd,
        faulted_cv: if noisy_mean > 0.0 {
            noisy_sd / noisy_mean
        } else {
            0.0
        },
    })
}

/// Run the noise duel: every zoo tuner drives its own ask/tell loop
/// against spiked measurements, then its claimed best configuration is
/// re-measured without faults.
pub(crate) fn noise_duel(effort: &Effort, seed: u64) -> Result<Vec<NoiseOutcome>, SessionError> {
    let workload = Workload::Shopping;
    let clean = SessionConfig::new(
        Topology::single(),
        workload,
        population_for(workload, effort),
    )
    .plan(effort.plan)
    .base_seed(seed);
    let noisy = clean.clone().fault_plan(noise_plan(effort));

    ZOO.iter()
        .map(|&name| {
            let space = binding::full_space(&noisy.topology);
            let mut tuner = harmony::registry::make_tuner(name, space, tuner_seed(&noisy, 0))
                .map_err(|e| SessionError::UnknownTuner(e.to_string()))?;
            for i in 0..effort.iterations {
                let proposal = tuner.propose();
                let config = binding::config_from_full(&noisy.topology, &proposal);
                let out = noisy.evaluate(config, i);
                let m = noisy.measurement_from(out.metrics.wips, out.metrics.completed);
                tuner.observe_measurement(m);
            }
            let (best, reported_best) = tuner
                .best()
                .map(|(c, p)| (c.clone(), p))
                .ok_or_else(|| SessionError::UnknownTuner(format!("{name} reported no best")))?;
            let best_cluster = binding::config_from_full(&noisy.topology, &best);
            let ci = clean.measure_until_precise(&best_cluster, 0.02, effort.reps.max(2));
            let clean_wips = ci.mean;
            let regression = if clean_wips > 0.0 {
                (reported_best / clean_wips - 1.0).max(0.0)
            } else {
                0.0
            };
            Ok(NoiseOutcome {
                tuner: name,
                reported_best,
                clean_wips,
                regression,
            })
        })
        .collect()
}

/// Run the full experiment: the 4×2 comparison table plus the duel.
pub fn run(effort: &Effort, seed: u64) -> Result<TunersResult, SessionError> {
    let mut cells = Vec::new();
    for workload in WORKLOADS {
        for tuner in ZOO {
            cells.push(cell(effort, seed, workload, tuner)?);
        }
    }
    Ok(TunersResult {
        cells,
        noise: noise_duel(effort, seed)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cross_table_covers_the_zoo() {
        let effort = Effort::smoke();
        let r = run(&effort, 42).expect("experiment");
        assert_eq!(r.cells.len(), ZOO.len() * WORKLOADS.len());
        for workload in WORKLOADS {
            for tuner in ZOO {
                let c = r
                    .cells
                    .iter()
                    .find(|c| c.tuner == tuner && c.workload == workload)
                    .expect("every (tuner, workload) cell present");
                assert!(c.default_wips > 0.0, "{tuner}/{workload}");
                assert!(c.best_wips > 0.0, "{tuner}/{workload}");
                assert!(
                    c.iterations_to_best < effort.iterations,
                    "{tuner}/{workload}"
                );
                assert!(c.second_half_sd >= 0.0 && c.faulted_cv >= 0.0);
            }
        }
        assert_eq!(r.noise.len(), ZOO.len());
    }

    /// The acceptance bar of the tuner-zoo PR: under injected WIPS noise
    /// the simplex keeps the raw spiked maximum as its best, while
    /// TUNA's confirmation-median estimate survives fault-free
    /// re-measurement — its regression is strictly smaller.
    #[test]
    fn tuna_shrugs_off_noise_that_fools_simplex() {
        let effort = Effort::smoke();
        let noise = noise_duel(&effort, 42).expect("duel");
        let simplex = noise
            .iter()
            .find(|n| n.tuner == "simplex")
            .expect("simplex");
        let tuna = noise.iter().find(|n| n.tuner == "tuna").expect("tuna");
        assert!(
            simplex.regression > 0.05,
            "the spiked plan must actually fool the simplex: {simplex:?}"
        );
        assert!(
            tuna.regression < simplex.regression,
            "TUNA must regress strictly less than the simplex: {tuna:?} vs {simplex:?}"
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let effort = Effort::smoke();
        let a = run(&effort, 7).expect("run a");
        let b = run(&effort, 7).expect("run b");
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca, cb);
        }
        assert_eq!(a.noise, b.noise);
    }
}
