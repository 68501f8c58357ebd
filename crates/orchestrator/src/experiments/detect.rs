//! EXP-DETECT: the failure detector scored against ground truth.
//!
//! Not a paper artifact — the paper's testbed reports failures out of
//! band — but the question PR 8 makes answerable: when reconfiguration
//! is gated on *observed* membership (heartbeats → φ-accrual →
//! hysteresis) instead of the injector oracle, what does detection cost?
//!
//! Two parts:
//!
//! 1. **φ-threshold sweep** — every plan in the chaos library (plus a
//!    clean control) runs a detector-mode resilient session at each
//!    φ threshold. Per cell: true/false `Down` confirmations, mean
//!    detection latency, and hard crashes the detector missed inside the
//!    detection horizon. Low thresholds detect fast but false-positive
//!    on stalls and jitter; high thresholds are safe but slow — the
//!    sweep maps that tradeoff empirically.
//! 2. **Oracle vs detector recovery** — the crash-storm plan runs once
//!    with oracle-gated reconfiguration and once detector-gated, same
//!    seeds. The contract: at default thresholds the detector recovers
//!    the WIPS dip within one extra iteration of the oracle.

use super::{scale_pop, Effort};
use crate::experiments::chaos;
use crate::par::shared_pool;
use crate::resilient::{run_resilient_session_observed, ResilienceSettings, ResilientRun};
use crate::session::{SessionConfig, SessionError, SessionObserver};
use detect::DetectorConfig;
use faults::{library, FaultKind, FaultPlan};
use tpcw::mix::Workload;

/// The φ thresholds the sweep visits (the middle one is the default).
pub(crate) const PHI_THRESHOLDS: [f64; 5] = [4.0, 6.0, 8.0, 12.0, 16.0];

/// Seconds after a crash within which a detection must land to count —
/// generous against the default cadence (1 s beats, 3 confirmations).
pub const DETECTION_HORIZON_S: f64 = 15.0;

/// One φ-threshold × plan cell of the sweep.
#[derive(Debug, Clone)]
pub struct DetectCell {
    pub phi_threshold: f64,
    pub plan: &'static str,
    /// `Down` confirmations of genuinely crashed nodes.
    pub true_positives: usize,
    /// `Down` confirmations the ground truth contradicts.
    pub false_positives: usize,
    /// Hard crashes (node stayed down through the horizon) with no
    /// `Down` confirmation inside the horizon.
    pub missed_crashes: usize,
    /// Mean crash → confirmation latency over the true positives
    /// (`-1.0`: none scored).
    pub mean_latency_s: f64,
    pub reconfigs: usize,
    pub best_wips: f64,
}

/// Crash-storm recovery, oracle-gated vs detector-gated.
#[derive(Debug, Clone)]
pub struct RecoveryComparison {
    /// Iterations after the first crash until WIPS regained the recovery
    /// fraction of the pre-crash best (`None`: never within the run).
    pub oracle_recovery: Option<u32>,
    pub detector_recovery: Option<u32>,
    pub oracle_best_wips: f64,
    pub detector_best_wips: f64,
    pub oracle_reconfigs: usize,
    pub detector_reconfigs: usize,
}

impl RecoveryComparison {
    /// Extra dip iterations detection cost over the oracle (0 when both
    /// recovered equally or neither did; `i64::MAX` when only the
    /// detector failed to recover).
    pub fn detector_extra_iterations(&self) -> i64 {
        match (self.oracle_recovery, self.detector_recovery) {
            (Some(o), Some(d)) => d as i64 - o as i64,
            (Some(_), None) => i64::MAX,
            _ => 0,
        }
    }
}

/// The sweep plus the recovery comparison, in deterministic order.
#[derive(Debug, Clone)]
pub struct DetectResult {
    pub cells: Vec<DetectCell>,
    pub thresholds: Vec<f64>,
    pub plans: Vec<&'static str>,
    pub comparison: RecoveryComparison,
}

impl DetectResult {
    #[cfg(test)]
    fn cell(&self, phi_threshold: f64, plan: &str) -> Option<&DetectCell> {
        self.cells
            .iter()
            .find(|c| c.phi_threshold == phi_threshold && c.plan == plan)
    }

    /// Cells at the default φ threshold.
    pub fn default_cells(&self) -> Vec<&DetectCell> {
        let default = DetectorConfig::default().phi_threshold;
        self.cells
            .iter()
            .filter(|c| c.phi_threshold == default)
            .collect()
    }

    /// The gate `exp detect` enforces: at default thresholds, no hard
    /// crash goes undetected, the clean plan never false-positives, and
    /// recovery costs at most one extra dip iteration over the oracle.
    #[cfg(test)]
    fn conformant(&self) -> bool {
        self.default_cells()
            .iter()
            .all(|c| c.missed_crashes == 0 && (c.plan != "clean" || c.false_positives == 0))
            && self.comparison.detector_extra_iterations() <= 1
    }

    /// Render the sweep as CSV (one row per cell).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "phi_threshold,plan,true_positives,false_positives,missed_crashes,\
             mean_latency_s,reconfigs,best_wips\n",
        );
        for c in &self.cells {
            out.push_str(&format!(
                "{},{},{},{},{},{:.3},{},{:.3}\n",
                c.phi_threshold,
                c.plan,
                c.true_positives,
                c.false_positives,
                c.missed_crashes,
                c.mean_latency_s,
                c.reconfigs,
                c.best_wips
            ));
        }
        out
    }
}

/// The chaos-hardened policy profile with the detector on at `phi`.
pub(crate) fn settings(effort: &Effort, phi_threshold: f64) -> ResilienceSettings {
    ResilienceSettings {
        detector: Some(DetectorConfig {
            phi_threshold,
            ..DetectorConfig::default()
        }),
        ..chaos::settings(effort)
    }
}

/// Hard crashes the detector failed to confirm inside the horizon. A
/// crash only counts as "hard" if the node stayed down through the whole
/// horizon and the horizon fits inside the observed span.
fn missed_hard_crashes(run: &ResilientRun, horizon_s: f64, span_s: f64) -> usize {
    run.faults
        .iter()
        .filter(|(_, e)| matches!(e.kind, FaultKind::Crash))
        .filter(|(_, e)| {
            let Some(node) = e.node else { return false };
            let at = e.at.as_secs_f64();
            if at + horizon_s > span_s {
                return false;
            }
            let restarted_inside = run.faults.iter().any(|(_, r)| {
                matches!(r.kind, FaultKind::Restart)
                    && r.node == Some(node)
                    && r.at.as_secs_f64() > at
                    && r.at.as_secs_f64() <= at + horizon_s
            });
            if restarted_inside {
                return false;
            }
            !run.detections
                .iter()
                .any(|d| d.node == node && d.is_down() && d.at_s >= at && d.at_s <= at + horizon_s)
        })
        .count()
}

/// Run the sweep and the oracle-vs-detector comparison.
pub fn run(effort: &Effort, seed: u64) -> Result<DetectResult, SessionError> {
    let effort = *effort;
    let topology = chaos::topology();
    let window_s = effort.plan.total().as_secs_f64();
    let span_s = window_s * effort.iterations as f64;

    let mut plans: Vec<(&'static str, FaultPlan)> = vec![("clean", FaultPlan::new())];
    plans.extend(
        library::all(window_s, topology.len())
            .into_iter()
            .map(|c| (c.name, c.plan)),
    );
    let plan_names: Vec<&'static str> = plans.iter().map(|&(n, _)| n).collect();

    let population = scale_pop(600, &effort);
    let cfg_for = |plan: &FaultPlan| {
        let cfg = SessionConfig::new(topology.clone(), Workload::Shopping, population)
            .plan(effort.plan)
            .base_seed(seed);
        if plan.is_empty() {
            cfg
        } else {
            cfg.fault_plan(plan.clone())
        }
    };

    let grid: Vec<(f64, &'static str, SessionConfig)> = PHI_THRESHOLDS
        .iter()
        .flat_map(|&phi| plans.iter().map(move |p| (phi, p.0, cfg_for(&p.1))))
        .collect();
    let outs = shared_pool().run_batch(grid, chaos::GRID_WIDTH, move |&(phi, name, ref cfg)| {
        run_resilient_session_observed(
            cfg,
            &settings(&effort, phi),
            effort.iterations,
            &mut SessionObserver::none(),
        )
        .map(|run| DetectCell {
            phi_threshold: phi,
            plan: name,
            true_positives: run
                .detections
                .iter()
                .filter(|d| d.is_down() && d.truth_crashed)
                .count(),
            false_positives: run.detection_false_positives(),
            missed_crashes: missed_hard_crashes(&run, DETECTION_HORIZON_S, span_s),
            mean_latency_s: run.mean_detection_latency_s().unwrap_or(-1.0),
            reconfigs: run.reconfigs.len(),
            best_wips: run.best_wips,
        })
    });
    let cells = outs.into_iter().collect::<Result<Vec<_>, _>>()?;

    // Oracle vs detector on the crash-storm plan, identical seeds. The
    // recovery fraction is deliberately modest: the storm keeps wounding
    // the cluster, so full recovery inside the run is not guaranteed.
    let storm = library::crash_storm(window_s, topology.len());
    let oracle = run_resilient_session_observed(
        &cfg_for(&storm),
        &chaos::settings(&effort),
        effort.iterations,
        &mut SessionObserver::none(),
    )?;
    let default_phi = DetectorConfig::default().phi_threshold;
    let detector = run_resilient_session_observed(
        &cfg_for(&storm),
        &settings(&effort, default_phi),
        effort.iterations,
        &mut SessionObserver::none(),
    )?;
    let frac = 0.5;
    let comparison = RecoveryComparison {
        oracle_recovery: oracle.recovery_iterations(frac),
        detector_recovery: detector.recovery_iterations(frac),
        oracle_best_wips: oracle.best_wips,
        detector_best_wips: detector.best_wips,
        oracle_reconfigs: oracle.reconfigs.len(),
        detector_reconfigs: detector.reconfigs.len(),
    };

    Ok(DetectResult {
        cells,
        thresholds: PHI_THRESHOLDS.to_vec(),
        plans: plan_names,
        comparison,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_conformant_at_defaults() {
        let effort = Effort::smoke();
        let r = run(&effort, 11).expect("sweep");
        assert_eq!(r.cells.len(), PHI_THRESHOLDS.len() * r.plans.len());
        assert!(
            r.conformant(),
            "{:?} / {:?}",
            r.default_cells(),
            r.comparison
        );
        // The clean control never detects anything at any threshold at
        // or above the default.
        let default = DetectorConfig::default().phi_threshold;
        for c in r.cells.iter().filter(|c| c.plan == "clean") {
            if c.phi_threshold >= default {
                assert_eq!(c.false_positives, 0, "{c:?}");
                assert_eq!(c.true_positives, 0, "{c:?}");
            }
        }
        // Crash plans are detected at the default threshold, promptly.
        let storm = r.cell(default, "crash-storm").expect("cell");
        assert!(storm.true_positives > 0, "{storm:?}");
        assert!(
            storm.mean_latency_s > 0.0 && storm.mean_latency_s < DETECTION_HORIZON_S,
            "{storm:?}"
        );
    }

    #[test]
    fn lower_thresholds_never_detect_later() {
        let effort = Effort::smoke();
        let r = run(&effort, 7).expect("sweep");
        // Latency is monotone (not strictly) in the threshold wherever
        // both thresholds scored a true positive.
        let lat = |phi: f64| {
            r.cell(phi, "crash-storm")
                .filter(|c| c.true_positives > 0)
                .map(|c| c.mean_latency_s)
        };
        let pairs: Vec<f64> = PHI_THRESHOLDS.iter().filter_map(|&p| lat(p)).collect();
        for w in pairs.windows(2) {
            assert!(
                w[0] <= w[1] + 1e-9,
                "a stricter threshold cannot confirm earlier: {pairs:?}"
            );
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let effort = Effort::smoke();
        let a = run(&effort, 5).expect("a");
        let b = run(&effort, 5).expect("b");
        let key = |r: &DetectResult| -> Vec<(usize, usize, u64)> {
            r.cells
                .iter()
                .map(|c| (c.true_positives, c.false_positives, c.best_wips.to_bits()))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_eq!(
            a.comparison.detector_recovery,
            b.comparison.detector_recovery
        );
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let effort = Effort::smoke();
        let r = run(&effort, 3).expect("sweep");
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 1 + r.cells.len());
        assert!(csv.starts_with("phi_threshold,plan,"));
    }
}
