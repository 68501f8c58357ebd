//! The assembled failure detector: monitor → φ → membership, per window.
//!
//! [`Detector::observe_window`] is the one entry point a session drives:
//! it derives the window's heartbeat arrivals from the injector, delivers
//! them to the per-node [`PhiAccrual`] estimators in time order, and at
//! every heartbeat tick assesses each node's φ against the
//! [`MembershipView`]. Arrivals landing beyond the window (a stall
//! thawing after the boundary) are carried as pending into the next
//! window, so contiguous windows observe exactly the beat schedule.
//!
//! The detector never sees [`faults::Health`] — only arrival times — and
//! its whole mutable state (estimator windows, membership streaks,
//! pending arrivals) is [`Checkpointable`] bit-exactly.

use crate::membership::{MembershipConfig, MembershipView, NodeState};
use crate::monitor;
use crate::phi::PhiAccrual;
use faults::FaultInjector;
use persist::{Checkpointable, PersistError, State};
use simkit::time::{SimDuration, SimTime};

/// Detector tuning. Defaults confirm a hard crash in a handful of beats
/// while never false-positiving on jitter alone; the EXP-DETECT sweep
/// maps the φ-threshold tradeoff empirically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Heartbeat period (simulated seconds). Also the φ bootstrap prior.
    pub heartbeat_s: f64,
    /// Nominal delivery latency for a healthy beat.
    pub latency_s: f64,
    /// Fractional latency jitter amplitude (widened by noise spikes).
    pub jitter: f64,
    /// φ sliding-window capacity (inter-arrival samples per node).
    pub window: usize,
    /// Floor on the interval σ so a metronomic history cannot make the
    /// estimator hair-triggered.
    pub min_std_s: f64,
    /// φ at or above this is a suspicious assessment.
    pub phi_threshold: f64,
    /// Consecutive suspicious assessments confirming `Suspect` → `Down`.
    pub confirm: u32,
    /// Consecutive calm assessments recovering `Down` → `Up`.
    pub recover: u32,
    /// Flap-damping penalty bound.
    pub flap_max_penalty: u32,
    /// Calm assessments to shed one penalty point.
    pub flap_decay: u32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            heartbeat_s: 1.0,
            latency_s: 0.05,
            jitter: 0.25,
            window: 64,
            min_std_s: 0.25,
            phi_threshold: 8.0,
            confirm: 3,
            recover: 2,
            flap_max_penalty: 4,
            flap_decay: 4,
        }
    }
}

impl DetectorConfig {
    fn membership(&self) -> MembershipConfig {
        MembershipConfig {
            phi_threshold: self.phi_threshold,
            confirm: self.confirm,
            recover: self.recover,
            flap_max_penalty: self.flap_max_penalty,
            flap_decay: self.flap_decay,
        }
    }
}

/// A membership change, stamped with the assessment tick that caused it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedTransition {
    pub at: SimTime,
    pub node: usize,
    pub from: NodeState,
    pub to: NodeState,
    pub phi: f64,
}

/// What one window of observation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Membership transitions, in assessment order.
    pub transitions: Vec<DetectedTransition>,
    /// Per-node maximum φ over the window's assessment ticks.
    pub peak_phi: Vec<f64>,
    /// Membership at the window's end.
    pub states: Vec<NodeState>,
    /// Beats due in the window.
    pub(crate) beats: u64,
    /// Arrivals delivered to the estimators this window.
    pub delivered: u64,
    /// Beats suppressed by a crash.
    pub missed: u64,
}

impl WindowReport {
    /// Nodes newly confirmed `Down` this window — the only signal allowed
    /// to gate reconfiguration.
    pub fn confirmed_down(&self) -> Vec<usize> {
        self.transitions
            .iter()
            .filter(|t| t.to == NodeState::Down)
            .map(|t| t.node)
            .collect()
    }
}

/// The per-session failure detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    config: DetectorConfig,
    seed: u64,
    nodes: usize,
    phis: Vec<PhiAccrual>,
    view: MembershipView,
    /// Arrivals computed in an earlier window that land in a later one,
    /// as `(arrival_us, node)`, sorted.
    pending_us: Vec<(u64, usize)>,
}

impl Detector {
    pub fn new(config: DetectorConfig, nodes: usize, seed: u64) -> Detector {
        Detector {
            seed,
            nodes,
            phis: vec![PhiAccrual::new(config.window); nodes],
            view: MembershipView::new(config.membership(), nodes),
            pending_us: Vec::new(),
            config,
        }
    }

    /// Current membership of one node.
    #[cfg(test)]
    fn state(&self, node: usize) -> NodeState {
        self.view.state(node)
    }

    /// Per-node liveness as the detector believes it: `true` unless the
    /// node is confirmed `Down`. (`Suspect` still counts as live — only a
    /// confirmed failure may trigger recovery.)
    #[cfg(test)]
    fn live(&self) -> Vec<bool> {
        (0..self.nodes).map(|n| !self.view.is_down(n)).collect()
    }

    /// Observe one measurement window `[start, end)`: derive heartbeat
    /// arrivals from the injector, deliver them in time order, and assess
    /// membership at each heartbeat tick in `(start, end]`.
    pub fn observe_window(
        &mut self,
        injector: &FaultInjector,
        start: SimTime,
        end: SimTime,
    ) -> WindowReport {
        let hw =
            monitor::heartbeat_arrivals(injector, &self.config, self.seed, self.nodes, start, end);
        let mut queue = std::mem::take(&mut self.pending_us);
        queue.extend(hw.arrivals.iter().map(|&(t, n)| (t.as_micros(), n)));
        queue.sort_unstable();

        let period_us = SimDuration::from_secs_f64(self.config.heartbeat_s)
            .as_micros()
            .max(1);
        let mut transitions = Vec::new();
        let mut peak_phi = vec![0.0f64; self.nodes];
        let mut delivered = 0u64;
        let mut qi = 0usize;
        let mut m = start.as_micros() / period_us + 1;
        loop {
            let tick_us = m.saturating_mul(period_us);
            if tick_us > end.as_micros() {
                break;
            }
            while qi < queue.len() && queue[qi].0 <= tick_us {
                let (at_us, node) = queue[qi];
                if let Some(phi) = self.phis.get_mut(node) {
                    phi.record(SimTime::from_micros(at_us));
                    delivered += 1;
                }
                qi += 1;
            }
            let tick = SimTime::from_micros(tick_us);
            for (n, peak) in peak_phi.iter_mut().enumerate() {
                let phi = self.phis[n].phi(tick, self.config.heartbeat_s, self.config.min_std_s);
                if phi > *peak {
                    *peak = phi;
                }
                if let Some(t) = self.view.assess(n, phi) {
                    transitions.push(DetectedTransition {
                        at: tick,
                        node: t.node,
                        from: t.from,
                        to: t.to,
                        phi: t.phi,
                    });
                }
            }
            m += 1;
        }
        self.pending_us = queue.split_off(qi);
        WindowReport {
            transitions,
            peak_phi,
            states: self.view.states(),
            beats: hw.beats,
            delivered,
            missed: hw.missed,
        }
    }
}

impl Checkpointable for Detector {
    fn save_state(&self) -> State {
        State::map()
            .with(
                "phis",
                State::List(self.phis.iter().map(|p| p.save_state()).collect()),
            )
            .with("membership", self.view.save_state())
            .with(
                "pending",
                State::List(
                    self.pending_us
                        .iter()
                        .map(|&(at, node)| {
                            State::map()
                                .with("at", State::U64(at))
                                .with("node", State::U64(node as u64))
                        })
                        .collect(),
                ),
            )
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let phis = state.field_list("phis")?;
        if phis.len() != self.nodes {
            return Err(PersistError::Schema(format!(
                "detector: {} phi estimators saved, session has {} nodes",
                phis.len(),
                self.nodes
            )));
        }
        for (p, s) in self.phis.iter_mut().zip(phis) {
            p.restore_state(s)?;
        }
        self.view.restore_state(state.require("membership")?)?;
        let mut pending = Vec::new();
        for item in state.field_list("pending")? {
            pending.push((item.field_u64("at")?, item.field_u64("node")? as usize));
        }
        self.pending_us = pending;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultPlan;

    const W: u64 = 40;

    fn detector() -> Detector {
        Detector::new(DetectorConfig::default(), 4, 42)
    }

    fn drive(det: &mut Detector, plan: &FaultPlan, windows: u64) -> Vec<WindowReport> {
        let inj = FaultInjector::new(plan, 7);
        (0..windows)
            .map(|i| {
                det.observe_window(
                    &inj,
                    SimTime::from_secs(i * W),
                    SimTime::from_secs((i + 1) * W),
                )
            })
            .collect()
    }

    #[test]
    fn clean_plan_never_transitions() {
        let mut det = detector();
        for report in drive(&mut det, &FaultPlan::new(), 4) {
            assert!(report.transitions.is_empty(), "{:?}", report.transitions);
            assert_eq!(report.missed, 0);
            for &phi in &report.peak_phi {
                assert!(
                    phi < det.config.phi_threshold / 2.0,
                    "jitter alone must stay far from the threshold: {phi}"
                );
            }
        }
        assert_eq!(det.live(), vec![true; 4]);
    }

    #[test]
    fn a_hard_crash_is_confirmed_down_within_seconds() {
        let plan = FaultPlan::new().crash(10.0, 2);
        let mut det = detector();
        let reports = drive(&mut det, &plan, 1);
        let down: Vec<_> = reports[0]
            .transitions
            .iter()
            .filter(|t| t.to == NodeState::Down)
            .collect();
        assert_eq!(down.len(), 1, "{:?}", reports[0].transitions);
        assert_eq!(down[0].node, 2);
        let latency = down[0].at.as_secs_f64() - 10.0;
        assert!(
            (0.0..10.0).contains(&latency),
            "confirmation {latency}s after the crash"
        );
        assert_eq!(det.state(2), NodeState::Down);
        assert_eq!(det.live(), vec![true, true, false, true]);
        assert_eq!(reports[0].confirmed_down(), vec![2]);
    }

    #[test]
    fn a_restart_recovers_membership() {
        let plan = FaultPlan::new().crash(10.0, 2).restart(25.0, 2);
        let mut det = detector();
        let reports = drive(&mut det, &plan, 1);
        let seq: Vec<_> = reports[0]
            .transitions
            .iter()
            .filter(|t| t.node == 2)
            .map(|t| t.to)
            .collect();
        assert_eq!(
            seq,
            vec![NodeState::Suspect, NodeState::Down, NodeState::Up],
            "down while crashed, up after the restart"
        );
        assert_eq!(det.state(2), NodeState::Up);
    }

    #[test]
    fn a_short_stall_flaps_but_never_confirms() {
        let plan = FaultPlan::new().stall(10.0, 1, 2.0);
        let mut det = detector();
        let reports = drive(&mut det, &plan, 1);
        assert!(
            !reports[0]
                .transitions
                .iter()
                .any(|t| t.to == NodeState::Down),
            "a 2s stall must not be confirmed dead: {:?}",
            reports[0].transitions
        );
        assert_eq!(det.state(1), NodeState::Up);
    }

    #[test]
    fn a_stall_crossing_the_window_boundary_is_carried_as_pending() {
        let plan = FaultPlan::new().stall(37.0, 0, 6.0);
        let mut det = detector();
        let reports = drive(&mut det, &plan, 2);
        let total_beats: u64 = reports.iter().map(|r| r.beats).sum();
        let total_delivered: u64 = reports.iter().map(|r| r.delivered).sum();
        let total_missed: u64 = reports.iter().map(|r| r.missed).sum();
        assert_eq!(total_missed, 0);
        assert_eq!(
            total_delivered, total_beats,
            "deferred beats must arrive in the next window, not vanish"
        );
        assert_eq!(det.state(0), NodeState::Up);
    }

    #[test]
    fn observation_is_deterministic() {
        let plan = FaultPlan::new().crash(10.0, 2).stall(50.0, 1, 8.0);
        let mut a = detector();
        let mut b = detector();
        let ra = drive(&mut a, &plan, 3);
        let rb = drive(&mut b, &plan, 3);
        assert_eq!(ra, rb);
        assert_eq!(a.save_state().encode(), b.save_state().encode());
    }

    #[test]
    fn kill_and_resume_mid_suspicion_is_bit_exact() {
        // Crash late in window 1 so suspicion is still building at the
        // boundary; the restored detector must continue the streak.
        let plan = FaultPlan::new().crash(78.0, 3);
        let mut full = detector();
        let full_reports = drive(&mut full, &plan, 3);

        let mut front = detector();
        let inj = FaultInjector::new(&plan, 7);
        let r0 = front.observe_window(&inj, SimTime::ZERO, SimTime::from_secs(W));
        let r1 = front.observe_window(&inj, SimTime::from_secs(W), SimTime::from_secs(2 * W));
        assert_eq!(r0, full_reports[0]);
        assert_eq!(r1, full_reports[1]);
        let saved = front.save_state();

        let mut resumed = detector();
        resumed.restore_state(&saved).expect("restore");
        let r2 = resumed.observe_window(&inj, SimTime::from_secs(2 * W), SimTime::from_secs(3 * W));
        assert_eq!(r2, full_reports[2], "post-resume window must splice");
        assert_eq!(resumed.save_state().encode(), full.save_state().encode());
    }

    #[test]
    fn restore_rejects_node_count_mismatch() {
        let det = detector();
        let mut other = Detector::new(DetectorConfig::default(), 3, 42);
        assert!(other.restore_state(&det.save_state()).is_err());
    }
}
