//! Figure 5: tuning responsiveness to changing workloads.
//!
//! The workload cycles Browsing → Shopping → Ordering every `period`
//! iterations while one Harmony server keeps tuning. The paper's claim:
//! only a few iterations are needed to adapt after each change.

use super::{fig5_population, Effort};
use crate::schedule::{recovery_iterations, tune_with_schedule_observed, WorkloadSchedule};
use crate::session::{SessionConfig, SessionObserver};
use cluster::config::Topology;
use tpcw::mix::Workload;

/// Result of the responsiveness experiment.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// Per-iteration WIPS.
    pub wips_series: Vec<f64>,
    /// Workload per iteration.
    pub workloads: Vec<Workload>,
    /// Iterations where the workload changed.
    pub change_points: Vec<u32>,
    /// For each change point: iterations until WIPS reached 90% of the
    /// segment median (`None` = never within the segment).
    pub recovery: Vec<(u32, Option<u32>)>,
}

impl Fig5Result {
    /// Mean recovery time across change points that recovered.
    pub fn mean_recovery(&self) -> Option<f64> {
        let recs: Vec<u32> = self.recovery.iter().filter_map(|(_, r)| *r).collect();
        if recs.is_empty() {
            None
        } else {
            Some(recs.iter().sum::<u32>() as f64 / recs.len() as f64)
        }
    }
}

/// Run Figure 5. The paper holds each workload for 100 iterations over a
/// 300-iteration run; we keep that proportion at every effort level by
/// using `period = effort.iterations / 2` per segment × three segments
/// (at `Effort::paper()` that is exactly 100-iteration segments).
pub fn run(effort: &Effort, seed: u64) -> Fig5Result {
    let period = (effort.iterations / 2).max(2);
    let schedule = WorkloadSchedule::cycling(period, 1); // B, S, O once each
    let cfg = SessionConfig::new(
        Topology::single(),
        Workload::Browsing,
        fig5_population(effort),
    )
    .plan(effort.plan)
    .base_seed(seed);
    let run = tune_with_schedule_observed(&cfg, &schedule, &mut SessionObserver::none())
        .unwrap_or_else(|e| panic!("figure 5 session failed: {e}"));
    let recovery = recovery_iterations(&run, &schedule, 0.9);
    Fig5Result {
        wips_series: run.wips_series(),
        workloads: run.records.iter().map(|r| r.workload).collect(),
        change_points: schedule.change_points(),
        recovery,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_three_segments() {
        let effort = Effort::smoke();
        let r = run(&effort, 21);
        assert_eq!(r.change_points.len(), 2);
        assert_eq!(r.wips_series.len(), r.workloads.len());
        assert!(r.workloads.contains(&Workload::Browsing));
        assert!(r.workloads.contains(&Workload::Shopping));
        assert!(r.workloads.contains(&Workload::Ordering));
        assert_eq!(r.recovery.len(), 2);
    }
}
