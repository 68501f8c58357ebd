//! Projecting a fault plan onto measurement windows.

use crate::health::{Health, Slowdown};
use crate::plan::{FaultEvent, FaultKind, FaultPlan};
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};

/// A health transition inside one measurement window, expressed as an
/// offset from the window's start so the DES can schedule it directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthChange {
    pub after: SimDuration,
    pub node: usize,
    pub health: Health,
}

/// The health schedule one simulation run applies: initial per-node
/// states plus in-run transitions. Attached to a `ClusterScenario`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthTimeline {
    pub initial: Vec<Health>,
    pub changes: Vec<HealthChange>,
}

impl HealthTimeline {
    /// True when the timeline does nothing (all nodes up, no changes) —
    /// callers can drop it to keep the no-fault path byte-identical.
    pub fn is_trivial(&self) -> bool {
        self.changes.is_empty() && self.initial.iter().all(Health::is_up)
    }
}

/// Everything a fault plan does to one measurement window `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFaults {
    /// Node health at the window's start (events strictly before `start`).
    pub(crate) initial: Vec<Health>,
    /// Transitions inside the window, sorted by offset. Includes the
    /// implicit recoveries that end a stall.
    pub(crate) changes: Vec<HealthChange>,
    /// Product of noise-spike factors landing in the window (1.0 = none).
    pub noise: f64,
    /// The raw in-window events, for tracing. Stall *ends* are implicit
    /// and do not appear here.
    pub events: Vec<FaultEvent>,
    /// Offsets of `Crash` events inside the window. Stalls make nodes
    /// `Down` via `changes`, but only a crash invalidates the in-flight
    /// measurement and triggers reconfiguration — this list keeps
    /// `crashes()`/`crash_in()` crash-only.
    pub(crate) crash_offsets: Vec<(usize, SimDuration)>,
    /// Total stalled seconds overlapping the window, summed across stall
    /// events. The timeout policy charges this against its budget: a
    /// stalled node makes the evaluation *take longer*, it does not kill
    /// the measurement.
    pub stall_s: f64,
}

impl WindowFaults {
    /// The timeline to attach to the scenario for this window.
    pub fn timeline(&self) -> HealthTimeline {
        HealthTimeline {
            initial: self.initial.clone(),
            changes: self.changes.clone(),
        }
    }

    pub fn is_trivial(&self) -> bool {
        self.changes.is_empty() && self.noise == 1.0 && self.initial.iter().all(Health::is_up)
    }

    /// Nodes whose `Crash` event lands inside the window. Stalls are
    /// excluded: a stalled node recovers on its own and must not be
    /// treated as needing a restart.
    pub fn crashes(&self) -> Vec<usize> {
        self.crash_offsets.iter().map(|&(n, _)| n).collect()
    }

    /// The first crash whose offset falls in `[from, to)`, if any.
    pub fn crash_in(&self, from: SimDuration, to: SimDuration) -> Option<(usize, SimDuration)> {
        self.crash_offsets
            .iter()
            .find(|&&(_, after)| after >= from && after < to)
            .map(|&(n, after)| (n, after))
    }
}

/// One entry in the expanded schedule: either a plan event or the
/// implicit end of a stall (which has no raw event of its own).
#[derive(Debug, Clone, Copy)]
enum Action {
    Kind(FaultKind),
    StallEnd,
}

#[derive(Debug, Clone, Copy)]
struct Step {
    at: SimTime,
    node: Option<usize>,
    action: Action,
    raw: Option<FaultEvent>,
}

/// Per-node fold state while replaying the schedule.
#[derive(Debug, Clone, Copy)]
struct NodeFold {
    down: bool,
    stalled: bool,
    cpu: f64,
    disk: f64,
    nic: f64,
}

impl NodeFold {
    const PRISTINE: NodeFold = NodeFold {
        down: false,
        stalled: false,
        cpu: 1.0,
        disk: 1.0,
        nic: 1.0,
    };

    fn apply(&mut self, action: Action) {
        match action {
            Action::Kind(FaultKind::Crash) => self.down = true,
            Action::Kind(FaultKind::Restart) => *self = NodeFold::PRISTINE,
            Action::Kind(FaultKind::CpuSlow(f)) => self.cpu = f,
            Action::Kind(FaultKind::DiskSlow(f)) => self.disk = f,
            Action::Kind(FaultKind::NicDegrade(f)) => self.nic = f,
            Action::Kind(FaultKind::NoiseSpike(_)) => {}
            Action::Kind(FaultKind::Stall(_)) => self.stalled = true,
            // Only the stall lifts: a node that crashed mid-stall stays
            // down until an explicit restart.
            Action::StallEnd => self.stalled = false,
        }
    }

    fn health(&self) -> Health {
        if self.down || self.stalled {
            Health::Down
        } else if self.cpu > 1.0 || self.disk > 1.0 || self.nic > 1.0 {
            Health::Degraded(Slowdown {
                cpu: self.cpu,
                disk: self.disk,
                nic: self.nic,
            })
        } else {
            Health::Up
        }
    }
}

/// A node's raw operational state at an instant, as the monitoring plane
/// sees it. [`Health`] collapses crashes and stalls into `Down`, but a
/// failure detector needs the distinction: a crash silences heartbeats
/// outright, a stall only *defers* them until `stalled_until`, and
/// slowdowns merely stretch their latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeStatus {
    /// Crashed and not yet restarted: heartbeats stop entirely.
    pub crashed: bool,
    /// Mid-stall: heartbeats due before this instant arrive, late, when
    /// the stall lifts. Overlapping stalls merge to the latest end.
    pub stalled_until: Option<SimTime>,
    /// Resource degradation factors (1.0 = nominal) — these jitter
    /// heartbeat latency without ever suppressing the beat.
    pub slowdown: Slowdown,
}

impl NodeStatus {
    pub(crate) const UP: NodeStatus = NodeStatus {
        crashed: false,
        stalled_until: None,
        slowdown: Slowdown {
            cpu: 1.0,
            disk: 1.0,
            nic: 1.0,
        },
    };
}

/// A stateless projection of one plan + seed onto the session timeline.
/// Replaying the same window twice yields identical faults, which is what
/// makes retries and resumed sessions deterministic.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    seed: u64,
}

impl FaultInjector {
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        FaultInjector {
            plan: plan.clone(),
            seed,
        }
    }

    /// The plan expanded into a sorted step schedule: every event, plus an
    /// implicit `StallEnd` step `duration_s` after each stall.
    fn steps(&self) -> Vec<Step> {
        let mut steps: Vec<Step> = Vec::with_capacity(self.plan.events().len());
        for e in self.plan.events() {
            steps.push(Step {
                at: e.at,
                node: e.node,
                action: Action::Kind(e.kind),
                raw: Some(*e),
            });
            if let Some(d) = e.kind.stall_duration_s() {
                steps.push(Step {
                    at: e
                        .at
                        .checked_add(SimDuration::from_secs_f64(d))
                        .unwrap_or(SimTime::MAX),
                    node: e.node,
                    action: Action::StallEnd,
                    raw: None,
                });
            }
        }
        // Stable: simultaneous steps keep plan order, ends after starts.
        steps.sort_by_key(|s| s.at);
        steps
    }

    fn fold_until(&self, t: SimTime, nodes: usize) -> Vec<NodeFold> {
        let mut folds = vec![NodeFold::PRISTINE; nodes];
        for s in self.steps() {
            if s.at >= t {
                break;
            }
            if let Some(n) = s.node {
                if n < nodes {
                    folds[n].apply(s.action);
                }
            }
        }
        folds
    }

    /// Node healths once every event strictly before `t` has applied.
    pub fn health_at(&self, t: SimTime, nodes: usize) -> Vec<Health> {
        self.fold_until(t, nodes)
            .iter()
            .map(NodeFold::health)
            .collect()
    }

    /// Raw node statuses once every event strictly before `t` has
    /// applied — the monitoring plane's ground truth. Unlike
    /// [`FaultInjector::health_at`], crashes and stalls stay distinct and
    /// a stall carries its end time, so heartbeat arrivals can be derived
    /// (stopped vs deferred vs jittered).
    pub fn status_at(&self, t: SimTime, nodes: usize) -> Vec<NodeStatus> {
        let mut statuses = vec![NodeStatus::UP; nodes];
        for s in self.steps() {
            if s.at >= t {
                break;
            }
            let Some(n) = s.node else { continue };
            if n >= nodes {
                continue;
            }
            let st = &mut statuses[n];
            match s.action {
                Action::Kind(FaultKind::Crash) => st.crashed = true,
                Action::Kind(FaultKind::Restart) => *st = NodeStatus::UP,
                Action::Kind(FaultKind::CpuSlow(f)) => st.slowdown.cpu = f,
                Action::Kind(FaultKind::DiskSlow(f)) => st.slowdown.disk = f,
                Action::Kind(FaultKind::NicDegrade(f)) => st.slowdown.nic = f,
                Action::Kind(FaultKind::NoiseSpike(_)) => {}
                Action::Kind(FaultKind::Stall(d)) => {
                    let until =
                        s.at.checked_add(SimDuration::from_secs_f64(d))
                            .unwrap_or(SimTime::MAX);
                    st.stalled_until = Some(match st.stalled_until {
                        Some(u) => u.max(until),
                        None => until,
                    });
                }
                // The merged `stalled_until` already encodes every end;
                // expired stalls are swept below.
                Action::StallEnd => {}
            }
        }
        for st in &mut statuses {
            if matches!(st.stalled_until, Some(u) if u < t) {
                st.stalled_until = None;
            }
        }
        statuses
    }

    /// Project the plan onto the measurement window `[start, end)`.
    pub fn window(&self, start: SimTime, end: SimTime, nodes: usize) -> WindowFaults {
        let mut folds = self.fold_until(start, nodes);
        let initial: Vec<Health> = folds.iter().map(NodeFold::health).collect();
        let mut changes = Vec::new();
        let mut noise = 1.0;
        let mut events = Vec::new();
        let mut crash_offsets = Vec::new();
        for s in self.steps() {
            if s.at < start {
                continue;
            }
            if s.at >= end {
                break;
            }
            if let Some(e) = s.raw {
                events.push(e);
            }
            match s.node {
                Some(n) if n < nodes => {
                    folds[n].apply(s.action);
                    changes.push(HealthChange {
                        after: s.at.since(start),
                        node: n,
                        health: folds[n].health(),
                    });
                    if matches!(s.action, Action::Kind(FaultKind::Crash)) {
                        crash_offsets.push((n, s.at.since(start)));
                    }
                }
                _ => {
                    if let Action::Kind(FaultKind::NoiseSpike(f)) = s.action {
                        noise *= f;
                    }
                }
            }
        }
        WindowFaults {
            initial,
            changes,
            noise,
            events,
            crash_offsets,
            stall_s: self.stall_overlap_s(start, end, nodes),
        }
    }

    /// Seconds of stall overlapping `[start, end)`, summed over stall
    /// events (concurrent stalls on different nodes each count).
    fn stall_overlap_s(&self, start: SimTime, end: SimTime, nodes: usize) -> f64 {
        let mut total = 0.0;
        for e in self.plan.events() {
            let Some(d) = e.kind.stall_duration_s() else {
                continue;
            };
            if !matches!(e.node, Some(n) if n < nodes) {
                continue;
            }
            let stall_end =
                e.at.checked_add(SimDuration::from_secs_f64(d))
                    .unwrap_or(SimTime::MAX);
            let lo = e.at.max(start);
            let hi = stall_end.min(end);
            if hi > lo {
                total += hi.since(lo).as_secs_f64();
            }
        }
        total
    }

    /// Deterministic multiplicative perturbation for a noisy window:
    /// a factor in `[1/noise, noise]` drawn from the injector seed and the
    /// window start, so the same window re-measured at a *different*
    /// session time draws a fresh value while an exact replay repeats it.
    pub fn wips_noise(&self, window_start: SimTime, noise: f64) -> f64 {
        if noise <= 1.0 {
            return 1.0;
        }
        let mut rng = SimRng::new(self.seed ^ window_start.as_micros().rotate_left(17));
        let u = rng.next_f64() * 2.0 - 1.0;
        noise.powf(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new()
            .crash(30.0, 3)
            .restart(55.0, 3)
            .cpu_slow(10.0, 1, 2.5)
            .noise_spike(40.0, 4.0)
    }

    #[test]
    fn health_folds_in_order() {
        let inj = FaultInjector::new(&plan(), 1);
        let h = inj.health_at(SimTime::from_secs(5), 5);
        assert!(h.iter().all(Health::is_up));
        let h = inj.health_at(SimTime::from_secs(31), 5);
        assert!(h[3].is_down());
        assert_eq!(h[1].cpu_factor(), 2.5);
        let h = inj.health_at(SimTime::from_secs(56), 5);
        assert!(h[3].is_up(), "restart heals the crash");
    }

    #[test]
    fn window_splits_initial_and_changes() {
        let inj = FaultInjector::new(&plan(), 1);
        let w = inj.window(SimTime::from_secs(20), SimTime::from_secs(50), 5);
        assert_eq!(
            w.initial[1].cpu_factor(),
            2.5,
            "pre-window slowdown is initial"
        );
        assert_eq!(w.changes.len(), 1);
        assert_eq!(
            w.changes[0],
            HealthChange {
                after: SimDuration::from_secs(10),
                node: 3,
                health: Health::Down
            }
        );
        assert_eq!(w.noise, 4.0);
        assert_eq!(w.crashes(), vec![3]);
        assert_eq!(
            w.crash_in(SimDuration::from_secs(5), SimDuration::from_secs(15)),
            Some((3, SimDuration::from_secs(10)))
        );
        assert_eq!(
            w.crash_in(SimDuration::ZERO, SimDuration::from_secs(5)),
            None
        );
        assert_eq!(w.stall_s, 0.0);
    }

    #[test]
    fn empty_plan_windows_are_trivial() {
        let inj = FaultInjector::new(&FaultPlan::new(), 9);
        let w = inj.window(SimTime::ZERO, SimTime::from_secs(30), 4);
        assert!(w.is_trivial());
        assert!(w.timeline().is_trivial());
    }

    #[test]
    fn projection_is_deterministic() {
        let a = FaultInjector::new(&plan(), 7);
        let b = FaultInjector::new(&plan(), 7);
        let (s, e) = (SimTime::from_secs(25), SimTime::from_secs(60));
        assert_eq!(a.window(s, e, 5), b.window(s, e, 5));
        assert_eq!(a.wips_noise(s, 4.0), b.wips_noise(s, 4.0));
    }

    #[test]
    fn noise_draw_varies_with_window_but_stays_bounded() {
        let inj = FaultInjector::new(&plan(), 7);
        let a = inj.wips_noise(SimTime::from_secs(25), 4.0);
        let b = inj.wips_noise(SimTime::from_secs(26), 4.0);
        assert_ne!(a, b);
        for v in [a, b] {
            assert!((0.25..=4.0).contains(&v), "{v} outside [1/4, 4]");
        }
        assert_eq!(inj.wips_noise(SimTime::from_secs(25), 1.0), 1.0);
    }

    #[test]
    fn stall_downs_the_node_then_recovers_without_a_restart() {
        let p = FaultPlan::new().stall(10.0, 2, 8.0);
        let inj = FaultInjector::new(&p, 1);
        assert!(inj.health_at(SimTime::from_secs(9), 4)[2].is_up());
        assert!(inj.health_at(SimTime::from_secs(11), 4)[2].is_down());
        assert!(
            inj.health_at(SimTime::from_secs(19), 4)[2].is_up(),
            "stall ends on its own at t=18"
        );
    }

    #[test]
    fn stall_is_not_a_crash() {
        let p = FaultPlan::new().stall(10.0, 2, 8.0);
        let inj = FaultInjector::new(&p, 1);
        let w = inj.window(SimTime::ZERO, SimTime::from_secs(30), 4);
        // The node goes Down and comes back in the health timeline...
        assert_eq!(w.changes.len(), 2);
        assert!(w.changes[0].health.is_down());
        assert_eq!(w.changes[1].after, SimDuration::from_secs(18));
        assert!(w.changes[1].health.is_up());
        // ...but no crash is reported: nothing to restart, nothing to
        // invalidate mid-measure.
        assert!(w.crashes().is_empty());
        assert_eq!(
            w.crash_in(SimDuration::ZERO, SimDuration::from_secs(30)),
            None
        );
        assert_eq!(w.stall_s, 8.0);
        assert_eq!(w.events.len(), 1, "the implicit end is not a raw event");
    }

    #[test]
    fn stall_overlap_is_clipped_to_the_window() {
        let p = FaultPlan::new().stall(10.0, 0, 20.0).stall(25.0, 1, 20.0);
        let inj = FaultInjector::new(&p, 1);
        // Window [15, 35): first stall contributes [15, 30) = 15 s, the
        // second [25, 35) = 10 s.
        let w = inj.window(SimTime::from_secs(15), SimTime::from_secs(35), 4);
        assert_eq!(w.stall_s, 25.0);
        // A window after both stalls sees nothing.
        let w = inj.window(SimTime::from_secs(50), SimTime::from_secs(60), 4);
        assert_eq!(w.stall_s, 0.0);
        assert!(w.is_trivial());
    }

    #[test]
    fn status_distinguishes_crash_from_stall() {
        let p = FaultPlan::new()
            .crash(10.0, 0)
            .stall(10.0, 1, 8.0)
            .cpu_slow(10.0, 2, 2.5)
            .restart(40.0, 0);
        let inj = FaultInjector::new(&p, 1);

        let st = inj.status_at(SimTime::from_secs(12), 4);
        assert!(st[0].crashed, "crash is a crash");
        assert!(st[0].stalled_until.is_none());
        assert!(!st[1].crashed, "a stall is not a crash");
        assert_eq!(st[1].stalled_until, Some(SimTime::from_secs(18)));
        assert_eq!(st[2].slowdown.cpu, 2.5);
        assert!(!st[2].crashed && st[2].stalled_until.is_none());
        assert_eq!(st[3], NodeStatus::UP);

        // The stall lifts on its own; the crash needs the restart.
        let st = inj.status_at(SimTime::from_secs(30), 4);
        assert!(st[0].crashed);
        assert!(st[1].stalled_until.is_none(), "stall expired at t=18");
        let st = inj.status_at(SimTime::from_secs(41), 4);
        assert!(!st[0].crashed, "restart clears the crash");
    }

    #[test]
    fn overlapping_stalls_merge_to_the_latest_end() {
        let p = FaultPlan::new().stall(10.0, 2, 10.0).stall(15.0, 2, 20.0);
        let inj = FaultInjector::new(&p, 1);
        let st = inj.status_at(SimTime::from_secs(22), 4);
        assert_eq!(
            st[2].stalled_until,
            Some(SimTime::from_secs(35)),
            "second stall extends the first"
        );
    }

    #[test]
    fn crash_during_stall_stays_down_after_the_stall_ends() {
        let p = FaultPlan::new().stall(10.0, 2, 8.0).crash(12.0, 2);
        let inj = FaultInjector::new(&p, 1);
        assert!(
            inj.health_at(SimTime::from_secs(20), 4)[2].is_down(),
            "the crash outlives the stall"
        );
        let w = inj.window(SimTime::ZERO, SimTime::from_secs(30), 4);
        assert_eq!(w.crashes(), vec![2], "only the crash needs a restart");
    }
}
