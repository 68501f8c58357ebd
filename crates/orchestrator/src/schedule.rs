//! Changing-workload sessions (Figure 5).
//!
//! The workload switches on a fixed schedule while tuning runs
//! continuously; the tuner is *not* told about the change — it simply
//! observes different performance, exactly as the paper's system did. The
//! interesting output is how quickly measured WIPS recovers after each
//! switch. The session is the one tuning loop
//! (`session::drive_tuning`) with the schedule as its
//! per-iteration workload.

use crate::session::{
    drive_tuning, Parts, SessionConfig, SessionError, SessionObserver, TuningRun,
};
use harmony::strategy::TuningMethod;
use tpcw::mix::Workload;

/// A workload schedule: hold each entry's workload for its span.
#[derive(Debug, Clone)]
pub struct WorkloadSchedule {
    /// `(span_in_iterations, workload)` segments, applied in order; the
    /// last segment extends to the end of the run.
    pub segments: Vec<(u32, Workload)>,
}

impl WorkloadSchedule {
    /// The paper's Figure 5 schedule: change the workload every
    /// `period` iterations, cycling Browsing → Shopping → Ordering.
    pub fn cycling(period: u32, cycles: u32) -> Self {
        let order = [Workload::Browsing, Workload::Shopping, Workload::Ordering];
        let segments = (0..cycles * 3)
            .map(|i| (period, order[(i % 3) as usize]))
            .collect();
        WorkloadSchedule { segments }
    }

    /// Workload active at `iteration`.
    pub fn workload_at(&self, iteration: u32) -> Workload {
        let mut acc = 0;
        for (span, w) in &self.segments {
            acc += span;
            if iteration < acc {
                return *w;
            }
        }
        self.segments
            .last()
            .map(|(_, w)| *w)
            .unwrap_or(Workload::Shopping)
    }

    /// Iterations at which the workload changes (segment boundaries).
    pub fn change_points(&self) -> Vec<u32> {
        let mut points = Vec::new();
        let mut acc = 0;
        for (i, (span, _)) in self.segments.iter().enumerate() {
            if i > 0 {
                points.push(acc);
            }
            acc += span;
        }
        points
    }

    /// Total scheduled iterations.
    pub fn total_iterations(&self) -> u32 {
        self.segments.iter().map(|(s, _)| s).sum()
    }
}

/// Tune against a workload schedule: the default method's one Harmony
/// server over every parameter of the single work line (the §III.A
/// setup), running the session's tuner, with iteration records
/// labelled `scheduled`. A session with a checkpoint policy is refused
/// with [`SessionError::Checkpoint`]: schedule sessions are not
/// checkpointed.
pub fn tune_with_schedule_observed(
    base: &SessionConfig,
    schedule: &WorkloadSchedule,
    observer: &mut SessionObserver,
) -> Result<TuningRun, SessionError> {
    let workload_at = |i| schedule.workload_at(i);
    let parts = Parts {
        workload_at: Some(&workload_at),
        ..Parts::default()
    };
    let iterations = schedule.total_iterations();
    drive_tuning(base, TuningMethod::Default, iterations, parts, observer).map(|(run, _)| run)
}

/// Recovery time after each workload change: iterations until WIPS first
/// reaches `threshold_frac` of the segment's median WIPS.
pub fn recovery_iterations(
    run: &TuningRun,
    schedule: &WorkloadSchedule,
    threshold_frac: f64,
) -> Vec<(u32, Option<u32>)> {
    let wips = run.wips_series();
    schedule
        .change_points()
        .into_iter()
        .map(|cp| {
            let seg_end = schedule
                .change_points()
                .into_iter()
                .find(|&p| p > cp)
                .unwrap_or(schedule.total_iterations());
            let seg: Vec<f64> = wips[cp as usize..(seg_end as usize).min(wips.len())].to_vec();
            if seg.is_empty() {
                return (cp, None);
            }
            let mut sorted = seg.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            let recovered = seg
                .iter()
                .position(|&w| w >= threshold_frac * median)
                .map(|p| p as u32);
            (cp, recovered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::config::Topology;
    use tpcw::metrics::IntervalPlan;

    fn scheduled(cfg: &SessionConfig, schedule: &WorkloadSchedule) -> TuningRun {
        tune_with_schedule_observed(cfg, schedule, &mut SessionObserver::none())
            .expect("scheduled run")
    }

    #[test]
    fn cycling_schedule_layout() {
        let s = WorkloadSchedule::cycling(100, 2);
        assert_eq!(s.total_iterations(), 600);
        assert_eq!(s.workload_at(0), Workload::Browsing);
        assert_eq!(s.workload_at(99), Workload::Browsing);
        assert_eq!(s.workload_at(100), Workload::Shopping);
        assert_eq!(s.workload_at(250), Workload::Ordering);
        assert_eq!(s.workload_at(300), Workload::Browsing);
        assert_eq!(s.change_points(), vec![100, 200, 300, 400, 500]);
    }

    #[test]
    fn workload_at_past_end_holds_last() {
        let s = WorkloadSchedule {
            segments: vec![(10, Workload::Browsing), (10, Workload::Ordering)],
        };
        assert_eq!(s.workload_at(999), Workload::Ordering);
    }

    #[test]
    fn scheduled_run_switches_workloads() {
        let cfg = SessionConfig::new(Topology::single(), Workload::Browsing, 300)
            .plan(IntervalPlan::tiny());
        let schedule = WorkloadSchedule {
            segments: vec![(3, Workload::Browsing), (3, Workload::Ordering)],
        };
        let run = scheduled(&cfg, &schedule);
        assert_eq!(run.records.len(), 6);
        assert_eq!(run.records[0].workload, Workload::Browsing);
        assert_eq!(run.records[5].workload, Workload::Ordering);
    }

    #[test]
    fn recovery_metric_computes() {
        let cfg = SessionConfig::new(Topology::single(), Workload::Browsing, 200)
            .plan(IntervalPlan::tiny());
        let schedule = WorkloadSchedule {
            segments: vec![(4, Workload::Browsing), (4, Workload::Shopping)],
        };
        let run = scheduled(&cfg, &schedule);
        let rec = recovery_iterations(&run, &schedule, 0.9);
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].0, 4);
    }

    #[test]
    fn one_segment_schedule_is_the_default_method() {
        let cfg = SessionConfig::new(Topology::single(), Workload::Browsing, 300)
            .plan(IntervalPlan::tiny())
            .pin_seed(true);
        let schedule = WorkloadSchedule {
            segments: vec![(6, Workload::Browsing)],
        };
        let run = scheduled(&cfg, &schedule);
        let tuned = crate::session::tune_observed(
            &cfg,
            TuningMethod::Default,
            6,
            &mut SessionObserver::none(),
        )
        .expect("tuning");
        let bits = |r: &TuningRun| {
            r.wips_series()
                .iter()
                .map(|w| w.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&run), bits(&tuned));
        assert_eq!(run.best_wips.to_bits(), tuned.best_wips.to_bits());
    }
}
