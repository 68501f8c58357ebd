//! Declarative fault schedules.

use crate::json::{self, Json};
use simkit::time::SimTime;
use std::fmt;

/// What happens to a node (or to the measurement) at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Node stops accepting new work; in-flight requests drain.
    Crash,
    /// Node returns to pristine health (clears crash and slowdowns).
    Restart,
    /// CPU service times scaled by the factor (≥ 1).
    CpuSlow(f64),
    /// Disk service times scaled by the factor (≥ 1).
    DiskSlow(f64),
    /// NIC transfer times scaled by the factor (≥ 1) — congestion or
    /// packet loss forcing retransmits.
    NicDegrade(f64),
    /// Measurement noise multiplier for the window the event lands in;
    /// widens the reported confidence interval and perturbs the sample.
    NoiseSpike(f64),
    /// Node is unresponsive (refuses new work) for the given number of
    /// simulated seconds, then resumes with its prior slowdowns intact —
    /// a GC pause, a lock convoy, an I/O hiccup. Unlike a crash there is
    /// no restart event; the recovery instant is implied by the duration.
    Stall(f64),
}

impl FaultKind {
    /// Stable label used in JSON plans and trace records.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Restart => "restart",
            FaultKind::CpuSlow(_) => "cpu_slow",
            FaultKind::DiskSlow(_) => "disk_slow",
            FaultKind::NicDegrade(_) => "nic_degrade",
            FaultKind::NoiseSpike(_) => "noise",
            FaultKind::Stall(_) => "stall",
        }
    }

    /// The slowdown/noise factor (1.0 for crash/restart/stall).
    pub fn factor(&self) -> f64 {
        match self {
            FaultKind::Crash | FaultKind::Restart | FaultKind::Stall(_) => 1.0,
            FaultKind::CpuSlow(f)
            | FaultKind::DiskSlow(f)
            | FaultKind::NicDegrade(f)
            | FaultKind::NoiseSpike(f) => *f,
        }
    }

    /// The stall duration, if this is a stall.
    pub(crate) fn stall_duration_s(&self) -> Option<f64> {
        match self {
            FaultKind::Stall(d) => Some(*d),
            _ => None,
        }
    }

    /// Whether this kind targets a specific node.
    pub(crate) fn needs_node(&self) -> bool {
        !matches!(self, FaultKind::NoiseSpike(_))
    }
}

/// One scheduled fault at an absolute simulated timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    /// Target node, `None` for cluster-wide events (noise spikes).
    pub node: Option<usize>,
    pub kind: FaultKind,
    /// Optional caller-assigned event id. Ids must be unique within a
    /// plan; they let traces and tooling refer to specific events.
    pub(crate) id: Option<u64>,
}

/// Why a plan could not be parsed or validated.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    Json(String),
    MissingField(&'static str),
    UnknownKind(String),
    BadFactor {
        kind: String,
        factor: f64,
    },
    NodeOutOfRange {
        node: usize,
        nodes: usize,
    },
    MissingNode {
        kind: String,
    },
    /// A stall needs a positive, finite duration.
    BadDuration {
        duration_s: f64,
    },
    /// Two events share the same explicit id.
    DuplicateId(u64),
    /// An event timestamp is negative (times are simulated seconds ≥ 0).
    NegativeTime(f64),
    /// A node is scheduled to crash again while already down — the
    /// windows of the two crashes overlap with no restart in between.
    OverlappingCrash {
        node: usize,
        at_s: f64,
    },
    Io(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Json(msg) => write!(f, "invalid JSON: {msg}"),
            PlanError::MissingField(name) => write!(f, "fault event missing field '{name}'"),
            PlanError::UnknownKind(k) => write!(
                f,
                "unknown fault kind '{k}' (expected crash, restart, cpu_slow, disk_slow, nic_degrade, noise, or stall)"
            ),
            PlanError::BadFactor { kind, factor } => {
                write!(f, "fault '{kind}' needs a factor >= 1, got {factor}")
            }
            PlanError::NodeOutOfRange { node, nodes } => {
                write!(f, "fault targets node {node} but the cluster has {nodes} nodes")
            }
            PlanError::MissingNode { kind } => {
                write!(f, "fault '{kind}' requires a 'node' field")
            }
            PlanError::BadDuration { duration_s } => {
                write!(f, "fault 'stall' needs a positive finite duration_s, got {duration_s}")
            }
            PlanError::DuplicateId(id) => {
                write!(f, "duplicate fault event id {id}")
            }
            PlanError::NegativeTime(at_s) => {
                write!(f, "fault event time must be >= 0, got {at_s}")
            }
            PlanError::OverlappingCrash { node, at_s } => write!(
                f,
                "node {node} crashes again at {at_s}s while already down (no restart in between)"
            ),
            PlanError::Io(msg) => write!(f, "cannot read fault plan: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A schedule of fault events, kept sorted by timestamp.
///
/// JSON format (all times in fractional seconds of simulated time):
///
/// ```json
/// {"events": [
///   {"at_s": 30.0, "node": 3, "kind": "crash"},
///   {"at_s": 55.0, "node": 3, "kind": "restart"},
///   {"at_s": 10.0, "node": 1, "kind": "cpu_slow", "factor": 2.5},
///   {"at_s": 40.0, "kind": "noise", "factor": 4.0}
/// ]}
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// The schedule, sorted by timestamp (stable for equal timestamps).
    pub(crate) fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Add one event, keeping the schedule sorted.
    pub(crate) fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by_key(|e| e.at);
    }

    fn with(mut self, at_s: f64, node: Option<usize>, kind: FaultKind) -> Self {
        self.push(FaultEvent {
            at: SimTime::from_micros(simkit::time::SimDuration::from_secs_f64(at_s).as_micros()),
            node,
            kind,
            id: None,
        });
        self
    }

    /// Schedule a crash of `node` at `at_s` simulated seconds.
    pub fn crash(self, at_s: f64, node: usize) -> Self {
        self.with(at_s, Some(node), FaultKind::Crash)
    }

    /// Schedule a restart of `node` at `at_s` simulated seconds.
    pub fn restart(self, at_s: f64, node: usize) -> Self {
        self.with(at_s, Some(node), FaultKind::Restart)
    }

    /// Scale `node`'s CPU service times by `factor` from `at_s` on.
    pub(crate) fn cpu_slow(self, at_s: f64, node: usize, factor: f64) -> Self {
        self.with(at_s, Some(node), FaultKind::CpuSlow(factor))
    }

    /// Scale `node`'s disk service times by `factor` from `at_s` on.
    pub(crate) fn disk_slow(self, at_s: f64, node: usize, factor: f64) -> Self {
        self.with(at_s, Some(node), FaultKind::DiskSlow(factor))
    }

    /// Spike measurement noise by `factor` for the window containing `at_s`.
    pub fn noise_spike(self, at_s: f64, factor: f64) -> Self {
        self.with(at_s, None, FaultKind::NoiseSpike(factor))
    }

    /// Stall `node` (unresponsive, no restart needed) for `duration_s`
    /// simulated seconds starting at `at_s`.
    pub fn stall(self, at_s: f64, node: usize, duration_s: f64) -> Self {
        self.with(at_s, Some(node), FaultKind::Stall(duration_s))
    }

    /// Check factors, node indices, id uniqueness, and crash/restart
    /// ordering against a cluster of `nodes` nodes.
    pub fn validate(&self, nodes: usize) -> Result<(), PlanError> {
        let mut seen_ids = Vec::new();
        for e in &self.events {
            let factor = e.kind.factor();
            if factor < 1.0 || !factor.is_finite() {
                return Err(PlanError::BadFactor {
                    kind: e.kind.name().to_string(),
                    factor,
                });
            }
            if let Some(duration_s) = e.kind.stall_duration_s() {
                if duration_s <= 0.0 || !duration_s.is_finite() {
                    return Err(PlanError::BadDuration { duration_s });
                }
            }
            match e.node {
                Some(n) if n >= nodes => return Err(PlanError::NodeOutOfRange { node: n, nodes }),
                None if e.kind.needs_node() => {
                    return Err(PlanError::MissingNode {
                        kind: e.kind.name().to_string(),
                    })
                }
                _ => {}
            }
            if let Some(id) = e.id {
                if seen_ids.contains(&id) {
                    return Err(PlanError::DuplicateId(id));
                }
                seen_ids.push(id);
            }
        }
        // Events are sorted by time: a second crash on a node that has
        // not restarted means the two outage windows overlap.
        let mut down = vec![false; nodes];
        for e in &self.events {
            let Some(n) = e.node else { continue };
            match e.kind {
                FaultKind::Crash => {
                    if down[n] {
                        return Err(PlanError::OverlappingCrash {
                            node: n,
                            at_s: e.at.as_secs_f64(),
                        });
                    }
                    down[n] = true;
                }
                FaultKind::Restart => down[n] = false,
                _ => {}
            }
        }
        Ok(())
    }

    /// Parse a plan from its JSON text.
    pub(crate) fn parse_json(text: &str) -> Result<Self, PlanError> {
        let doc = json::parse(text).map_err(PlanError::Json)?;
        let events = doc
            .get("events")
            .ok_or(PlanError::MissingField("events"))?
            .as_arr()
            .ok_or(PlanError::MissingField("events"))?;
        let mut plan = FaultPlan::new();
        let mut seen_ids = Vec::new();
        for item in events {
            let at_s = item
                .get("at_s")
                .and_then(Json::as_f64)
                .ok_or(PlanError::MissingField("at_s"))?;
            if at_s < 0.0 || !at_s.is_finite() {
                return Err(PlanError::NegativeTime(at_s));
            }
            let kind_name = item
                .get("kind")
                .and_then(Json::as_str)
                .ok_or(PlanError::MissingField("kind"))?;
            let node = item.get("node").and_then(Json::as_f64).map(|n| n as usize);
            let factor = item.get("factor").and_then(Json::as_f64);
            let duration_s = item.get("duration_s").and_then(Json::as_f64);
            let id = item.get("id").and_then(Json::as_f64).map(|v| v as u64);
            if let Some(id) = id {
                if seen_ids.contains(&id) {
                    return Err(PlanError::DuplicateId(id));
                }
                seen_ids.push(id);
            }
            let need_factor = || factor.ok_or(PlanError::MissingField("factor"));
            let kind = match kind_name {
                "crash" => FaultKind::Crash,
                "restart" => FaultKind::Restart,
                "cpu_slow" => FaultKind::CpuSlow(need_factor()?),
                "disk_slow" => FaultKind::DiskSlow(need_factor()?),
                "nic_degrade" => FaultKind::NicDegrade(need_factor()?),
                "noise" => FaultKind::NoiseSpike(need_factor()?),
                "stall" => {
                    let d = duration_s.ok_or(PlanError::MissingField("duration_s"))?;
                    if d <= 0.0 || !d.is_finite() {
                        return Err(PlanError::BadDuration { duration_s: d });
                    }
                    FaultKind::Stall(d)
                }
                other => return Err(PlanError::UnknownKind(other.to_string())),
            };
            if kind.needs_node() && node.is_none() {
                return Err(PlanError::MissingNode {
                    kind: kind.name().to_string(),
                });
            }
            plan.push(FaultEvent {
                at: SimTime::from_micros(
                    simkit::time::SimDuration::from_secs_f64(at_s).as_micros(),
                ),
                node,
                kind,
                id,
            });
        }
        Ok(plan)
    }

    /// Load and parse a plan file.
    pub fn load(path: &std::path::Path) -> Result<Self, PlanError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| PlanError::Io(format!("{}: {e}", path.display())))?;
        Self::parse_json(&text)
    }

    /// Serialize back to the JSON plan format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{{\"at_s\": {}", e.at.as_secs_f64()));
            if let Some(n) = e.node {
                out.push_str(&format!(", \"node\": {n}"));
            }
            out.push_str(&format!(", \"kind\": \"{}\"", e.kind.name()));
            if let Some(d) = e.kind.stall_duration_s() {
                out.push_str(&format!(", \"duration_s\": {d}"));
            } else if !e.kind.needs_node() || e.kind.factor() != 1.0 {
                out.push_str(&format!(", \"factor\": {}", e.kind.factor()));
            }
            if let Some(id) = e.id {
                out.push_str(&format!(", \"id\": {id}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_keeps_events_sorted() {
        let plan = FaultPlan::new()
            .crash(30.0, 3)
            .cpu_slow(10.0, 1, 2.5)
            .restart(55.0, 3);
        let at: Vec<f64> = plan.events().iter().map(|e| e.at.as_secs_f64()).collect();
        assert_eq!(at, vec![10.0, 30.0, 55.0]);
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan::new().crash(30.0, 3).noise_spike(40.0, 4.0).with(
            12.5,
            Some(0),
            FaultKind::NicDegrade(1.75),
        );
        let parsed = FaultPlan::parse_json(&plan.to_json()).unwrap();
        assert_eq!(parsed, plan);
    }

    #[test]
    fn parse_rejects_unknown_kind() {
        let err =
            FaultPlan::parse_json(r#"{"events": [{"at_s": 1.0, "node": 0, "kind": "meltdown"}]}"#)
                .unwrap_err();
        assert_eq!(err, PlanError::UnknownKind("meltdown".into()));
    }

    #[test]
    fn parse_rejects_missing_fields() {
        assert_eq!(
            FaultPlan::parse_json(r#"{"plan": []}"#).unwrap_err(),
            PlanError::MissingField("events")
        );
        assert_eq!(
            FaultPlan::parse_json(r#"{"events": [{"kind": "crash", "node": 0}]}"#).unwrap_err(),
            PlanError::MissingField("at_s")
        );
        assert_eq!(
            FaultPlan::parse_json(r#"{"events": [{"at_s": 1.0, "node": 2, "kind": "cpu_slow"}]}"#)
                .unwrap_err(),
            PlanError::MissingField("factor")
        );
        assert_eq!(
            FaultPlan::parse_json(r#"{"events": [{"at_s": 1.0, "kind": "crash"}]}"#).unwrap_err(),
            PlanError::MissingNode {
                kind: "crash".into()
            }
        );
    }

    #[test]
    fn parse_rejects_bad_json() {
        assert!(matches!(
            FaultPlan::parse_json("{events: oops").unwrap_err(),
            PlanError::Json(_)
        ));
    }

    #[test]
    fn validate_checks_nodes_and_factors() {
        let plan = FaultPlan::new().crash(1.0, 7);
        assert_eq!(
            plan.validate(3).unwrap_err(),
            PlanError::NodeOutOfRange { node: 7, nodes: 3 }
        );
        let plan = FaultPlan::new().cpu_slow(1.0, 0, 0.5);
        assert!(matches!(
            plan.validate(3).unwrap_err(),
            PlanError::BadFactor { .. }
        ));
        assert!(FaultPlan::new().crash(1.0, 2).validate(3).is_ok());
    }

    #[test]
    fn json_roundtrip_preserves_event_ids() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            at: SimTime::from_secs(30),
            node: Some(3),
            kind: FaultKind::Crash,
            id: Some(7),
        });
        plan.push(FaultEvent {
            at: SimTime::from_secs(40),
            node: None,
            kind: FaultKind::NoiseSpike(4.0),
            id: Some(8),
        });
        let json = plan.to_json();
        assert!(json.contains("\"id\": 7"), "ids serialized: {json}");
        let parsed = FaultPlan::parse_json(&json).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.events()[0].id, Some(7));
    }

    #[test]
    fn parse_rejects_duplicate_ids() {
        let err = FaultPlan::parse_json(
            r#"{"events": [
                {"at_s": 1.0, "node": 0, "kind": "crash", "id": 5},
                {"at_s": 2.0, "node": 0, "kind": "restart", "id": 5}
            ]}"#,
        )
        .unwrap_err();
        assert_eq!(err, PlanError::DuplicateId(5));
        // validate() catches programmatically built duplicates too.
        let mut plan = FaultPlan::new();
        for at in [1, 2] {
            plan.push(FaultEvent {
                at: SimTime::from_secs(at),
                node: Some(0),
                kind: if at == 1 {
                    FaultKind::Crash
                } else {
                    FaultKind::Restart
                },
                id: Some(9),
            });
        }
        assert_eq!(plan.validate(2).unwrap_err(), PlanError::DuplicateId(9));
    }

    #[test]
    fn parse_rejects_negative_times() {
        let err =
            FaultPlan::parse_json(r#"{"events": [{"at_s": -3.5, "node": 0, "kind": "crash"}]}"#)
                .unwrap_err();
        assert_eq!(err, PlanError::NegativeTime(-3.5));
    }

    #[test]
    fn validate_rejects_overlapping_crash_windows() {
        // Node 1 crashes twice with no restart in between: the outage
        // windows overlap and the plan is ambiguous.
        let plan = FaultPlan::new().crash(10.0, 1).crash(20.0, 1);
        assert_eq!(
            plan.validate(3).unwrap_err(),
            PlanError::OverlappingCrash {
                node: 1,
                at_s: 20.0
            }
        );
        // An intervening restart makes it legal again.
        let plan = FaultPlan::new()
            .crash(10.0, 1)
            .restart(15.0, 1)
            .crash(20.0, 1);
        assert!(plan.validate(3).is_ok());
        // Crashes on different nodes never conflict.
        let plan = FaultPlan::new().crash(10.0, 0).crash(11.0, 1);
        assert!(plan.validate(3).is_ok());
    }

    #[test]
    fn stall_roundtrips_through_json() {
        let plan = FaultPlan::new().stall(12.5, 2, 8.0).crash(30.0, 1);
        let json = plan.to_json();
        assert!(json.contains("\"duration_s\": 8"), "duration kept: {json}");
        let parsed = FaultPlan::parse_json(&json).unwrap();
        assert_eq!(parsed, plan);
        assert_eq!(parsed.events()[0].kind, FaultKind::Stall(8.0));
        assert!(plan.validate(3).is_ok());
    }

    #[test]
    fn stall_requires_a_positive_finite_duration() {
        assert_eq!(
            FaultPlan::parse_json(r#"{"events": [{"at_s": 1.0, "node": 0, "kind": "stall"}]}"#)
                .unwrap_err(),
            PlanError::MissingField("duration_s")
        );
        for bad in ["0", "-2.5", "1e999"] {
            let text = format!(
                r#"{{"events": [{{"at_s": 1.0, "node": 0, "kind": "stall", "duration_s": {bad}}}]}}"#
            );
            assert!(
                matches!(
                    FaultPlan::parse_json(&text).unwrap_err(),
                    PlanError::BadDuration { .. }
                ),
                "accepted duration {bad}"
            );
        }
        // validate() catches programmatically built bad durations too.
        let plan = FaultPlan::new().stall(1.0, 0, 0.0);
        assert_eq!(
            plan.validate(2).unwrap_err(),
            PlanError::BadDuration { duration_s: 0.0 }
        );
    }

    #[test]
    fn malformed_inputs_never_panic() {
        for text in [
            "",
            "null",
            "[]",
            "{\"events\": 3}",
            "{\"events\": [{}]}",
            "{\"events\": [{\"at_s\": \"soon\", \"kind\": \"crash\", \"node\": 0}]}",
            "{\"events\": [{\"at_s\": 1e999, \"kind\": \"crash\", \"node\": 0}]}",
            "{\"events\": [{\"at_s\": 1.0, \"kind\": [], \"node\": 0}]}",
            "\u{0000}\u{0001}garbage",
        ] {
            assert!(FaultPlan::parse_json(text).is_err(), "accepted: {text:?}");
        }
    }

    #[test]
    fn load_reports_io_errors() {
        let err = FaultPlan::load(std::path::Path::new("/nonexistent/plan.json")).unwrap_err();
        assert!(matches!(err, PlanError::Io(_)));
    }
}
