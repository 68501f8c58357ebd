//! Suspicion → membership: hysteresis and flap damping.
//!
//! Raw φ values are continuous and twitchy; reconfiguration is expensive
//! and irreversible within a session. This module is the debouncing layer
//! between them: each node carries an `Up` / `Suspect` / `Down` state,
//! and suspicion must *persist* before it is believed —
//!
//! * **hysteresis** — a node is `Suspect` the first assessment φ crosses
//!   the threshold, but only `confirm` consecutive suspicious assessments
//!   confirm it `Down`; `recover` consecutive calm assessments bring a
//!   `Down` node back `Up`;
//! * **flap damping** — every false alarm (`Suspect` that clears without
//!   confirming) adds a penalty point, bounded by `flap_max_penalty`, and
//!   each point raises the effective confirmation streak by one. Penalty
//!   decays one point per `flap_decay` consecutive calm assessments, so a
//!   formerly jittery node eventually earns back fast detection.
//!
//! The view is plain integer bookkeeping — no clocks, no RNG — so it is
//! trivially deterministic and checkpoints bit-exactly.

use persist::{Checkpointable, PersistError, State};

/// Detected membership of one node. `Suspect` is visible to observers
/// (trace records, experiments) but only `Down` may gate reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    Up,
    Suspect,
    Down,
}

impl NodeState {
    pub fn name(&self) -> &'static str {
        match self {
            NodeState::Up => "up",
            NodeState::Suspect => "suspect",
            NodeState::Down => "down",
        }
    }

    pub fn from_name(name: &str) -> Result<NodeState, PersistError> {
        match name {
            "up" => Ok(NodeState::Up),
            "suspect" => Ok(NodeState::Suspect),
            "down" => Ok(NodeState::Down),
            other => Err(PersistError::Schema(format!(
                "membership state: unknown name {other:?}"
            ))),
        }
    }
}

/// Debouncing knobs. Kept separate from the φ estimator's config so the
/// two layers can be tested in isolation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MembershipConfig {
    /// φ at or above this is a suspicious assessment.
    pub(crate) phi_threshold: f64,
    /// Consecutive suspicious assessments before `Suspect` confirms `Down`.
    pub(crate) confirm: u32,
    /// Consecutive calm assessments before `Down` recovers to `Up`.
    pub(crate) recover: u32,
    /// Upper bound on the flap penalty (bounds the effective confirm
    /// streak at `confirm + flap_max_penalty`).
    pub(crate) flap_max_penalty: u32,
    /// Calm assessments required to shed one penalty point.
    pub(crate) flap_decay: u32,
}

/// A state change the view decided on during one assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Transition {
    pub(crate) node: usize,
    pub(crate) from: NodeState,
    pub(crate) to: NodeState,
    /// The φ that triggered the assessment.
    pub(crate) phi: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct NodeMembership {
    state: NodeState,
    /// Consecutive suspicious assessments while `Suspect`.
    suspect_streak: u32,
    /// Consecutive calm assessments while `Down`.
    calm_streak: u32,
    /// Flap-damping penalty points.
    penalty: u32,
    /// Consecutive calm `Up` assessments counted toward penalty decay.
    calm_run: u32,
}

impl NodeMembership {
    const FRESH: NodeMembership = NodeMembership {
        state: NodeState::Up,
        suspect_streak: 0,
        calm_streak: 0,
        penalty: 0,
        calm_run: 0,
    };
}

/// The per-node membership state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipView {
    config: MembershipConfig,
    nodes: Vec<NodeMembership>,
}

impl MembershipView {
    pub(crate) fn new(config: MembershipConfig, nodes: usize) -> MembershipView {
        MembershipView {
            config,
            nodes: vec![NodeMembership::FRESH; nodes],
        }
    }

    #[cfg(test)]
    pub(crate) fn state(&self, node: usize) -> NodeState {
        self.nodes.get(node).map_or(NodeState::Up, |n| n.state)
    }

    pub(crate) fn states(&self) -> Vec<NodeState> {
        self.nodes.iter().map(|n| n.state).collect()
    }

    #[cfg(test)]
    pub(crate) fn is_down(&self, node: usize) -> bool {
        self.state(node) == NodeState::Down
    }

    /// The suspicious streak currently required to confirm this node
    /// `Down`: the base `confirm` plus accrued flap penalty.
    #[cfg(test)]
    fn effective_confirm(&self, node: usize) -> u32 {
        let penalty = self.nodes.get(node).map_or(0, |n| n.penalty);
        self.config.confirm.saturating_add(penalty)
    }

    /// Feed one assessment (a φ reading at a heartbeat tick) for `node`.
    /// Returns the transition, if this assessment caused one.
    pub(crate) fn assess(&mut self, node: usize, phi: f64) -> Option<Transition> {
        let cfg = self.config;
        let m = self.nodes.get_mut(node)?;
        let suspicious = phi.is_finite() && phi >= cfg.phi_threshold;
        let from = m.state;
        match m.state {
            NodeState::Up => {
                if suspicious {
                    m.state = NodeState::Suspect;
                    m.suspect_streak = 1;
                    m.calm_run = 0;
                } else {
                    m.calm_run = m.calm_run.saturating_add(1);
                    if m.penalty > 0 && m.calm_run >= cfg.flap_decay {
                        m.penalty -= 1;
                        m.calm_run = 0;
                    }
                }
            }
            NodeState::Suspect => {
                if suspicious {
                    m.suspect_streak = m.suspect_streak.saturating_add(1);
                    if m.suspect_streak >= cfg.confirm.saturating_add(m.penalty) {
                        m.state = NodeState::Down;
                        m.calm_streak = 0;
                    }
                } else {
                    // A false alarm: the node cleared before confirming.
                    // Remember the flap so the next one confirms slower.
                    m.state = NodeState::Up;
                    m.suspect_streak = 0;
                    m.penalty = (m.penalty + 1).min(cfg.flap_max_penalty);
                    m.calm_run = 0;
                }
            }
            NodeState::Down => {
                if suspicious {
                    m.calm_streak = 0;
                } else {
                    m.calm_streak = m.calm_streak.saturating_add(1);
                    if m.calm_streak >= cfg.recover {
                        // A genuine recovery (restart observed), not a
                        // flap: no penalty.
                        m.state = NodeState::Up;
                        m.suspect_streak = 0;
                        m.calm_streak = 0;
                        m.calm_run = 0;
                    }
                }
            }
        }
        (m.state != from).then_some(Transition {
            node,
            from,
            to: m.state,
            phi,
        })
    }
}

impl Checkpointable for MembershipView {
    fn save_state(&self) -> State {
        State::map().with(
            "nodes",
            State::List(
                self.nodes
                    .iter()
                    .map(|n| {
                        State::map()
                            .with("state", State::Str(n.state.name().to_string()))
                            .with("suspect", State::U64(n.suspect_streak as u64))
                            .with("calm", State::U64(n.calm_streak as u64))
                            .with("penalty", State::U64(n.penalty as u64))
                            .with("calm_run", State::U64(n.calm_run as u64))
                    })
                    .collect(),
            ),
        )
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let items = state.field_list("nodes")?;
        if items.len() != self.nodes.len() {
            return Err(PersistError::Schema(format!(
                "membership: {} nodes saved, view has {}",
                items.len(),
                self.nodes.len()
            )));
        }
        let mut nodes = Vec::with_capacity(items.len());
        for item in items {
            nodes.push(NodeMembership {
                state: NodeState::from_name(item.field_str("state")?)?,
                suspect_streak: item.field_u64("suspect")? as u32,
                calm_streak: item.field_u64("calm")? as u32,
                penalty: item.field_u64("penalty")? as u32,
                calm_run: item.field_u64("calm_run")? as u32,
            });
        }
        self.nodes = nodes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MembershipConfig {
        MembershipConfig {
            phi_threshold: 8.0,
            confirm: 3,
            recover: 2,
            flap_max_penalty: 4,
            flap_decay: 3,
        }
    }

    const HOT: f64 = 20.0;
    const COLD: f64 = 0.1;

    #[test]
    fn confirmation_needs_a_sustained_streak() {
        let mut v = MembershipView::new(cfg(), 2);
        assert_eq!(
            v.assess(0, HOT).map(|t| (t.from, t.to)),
            Some((NodeState::Up, NodeState::Suspect))
        );
        assert_eq!(v.assess(0, HOT), None, "streak 2 of 3");
        let t = v.assess(0, HOT).expect("third in a row confirms");
        assert_eq!((t.from, t.to), (NodeState::Suspect, NodeState::Down));
        assert_eq!(v.state(1), NodeState::Up, "other nodes untouched");
    }

    #[test]
    fn a_cleared_suspect_is_a_flap_and_raises_the_bar() {
        let mut v = MembershipView::new(cfg(), 1);
        assert_eq!(v.effective_confirm(0), 3);
        v.assess(0, HOT);
        let t = v.assess(0, COLD).expect("clearing is a transition");
        assert_eq!((t.from, t.to), (NodeState::Suspect, NodeState::Up));
        assert_eq!(v.effective_confirm(0), 4, "one flap, one penalty point");
        // Now confirmation takes confirm + penalty = 4 suspicious beats.
        v.assess(0, HOT);
        v.assess(0, HOT);
        v.assess(0, HOT);
        assert_eq!(v.state(0), NodeState::Suspect, "3 < 4: still suspect");
        v.assess(0, HOT);
        assert_eq!(v.state(0), NodeState::Down);
    }

    #[test]
    fn flap_penalty_is_bounded_and_decays() {
        let mut v = MembershipView::new(cfg(), 1);
        for _ in 0..10 {
            v.assess(0, HOT);
            v.assess(0, COLD);
        }
        assert_eq!(
            v.effective_confirm(0),
            3 + 4,
            "penalty saturates at flap_max_penalty"
        );
        // flap_decay calm assessments shed one point each.
        for _ in 0..3 {
            v.assess(0, COLD);
        }
        assert_eq!(v.effective_confirm(0), 3 + 3);
        for _ in 0..9 {
            v.assess(0, COLD);
        }
        assert_eq!(v.effective_confirm(0), 3, "fully decayed");
    }

    #[test]
    fn down_recovers_after_calm_streak_without_penalty() {
        let mut v = MembershipView::new(cfg(), 1);
        for _ in 0..3 {
            v.assess(0, HOT);
        }
        assert_eq!(v.state(0), NodeState::Down);
        assert_eq!(v.assess(0, COLD), None, "calm 1 of 2");
        let t = v.assess(0, COLD).expect("recovered");
        assert_eq!((t.from, t.to), (NodeState::Down, NodeState::Up));
        assert_eq!(v.effective_confirm(0), 3, "recovery is not a flap");
    }

    #[test]
    fn suspicion_while_down_resets_the_recovery_streak() {
        let mut v = MembershipView::new(cfg(), 1);
        for _ in 0..3 {
            v.assess(0, HOT);
        }
        v.assess(0, COLD);
        v.assess(0, HOT);
        v.assess(0, COLD);
        assert_eq!(v.state(0), NodeState::Down, "streak was reset");
        v.assess(0, COLD);
        assert_eq!(v.state(0), NodeState::Up);
    }

    #[test]
    fn nan_phi_is_never_suspicious() {
        let mut v = MembershipView::new(cfg(), 1);
        assert_eq!(v.assess(0, f64::NAN), None);
        assert_eq!(v.state(0), NodeState::Up);
    }

    #[test]
    fn save_restore_save_is_bit_exact() {
        let mut v = MembershipView::new(cfg(), 3);
        v.assess(0, HOT);
        v.assess(1, HOT);
        v.assess(1, COLD);
        for _ in 0..3 {
            v.assess(2, HOT);
        }
        let saved = v.save_state();
        let mut fresh = MembershipView::new(cfg(), 3);
        fresh.restore_state(&saved).expect("restore");
        assert_eq!(fresh, v);
        assert_eq!(fresh.save_state().encode(), saved.encode());
    }

    #[test]
    fn restore_rejects_node_count_mismatch() {
        let v = MembershipView::new(cfg(), 3);
        let mut other = MembershipView::new(cfg(), 2);
        assert!(other.restore_state(&v.save_state()).is_err());
    }
}
