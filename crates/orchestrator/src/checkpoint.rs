//! Crash-safe session persistence: checkpoint policy, session
//! fingerprints, and the domain ↔ [`persist::State`] conversions.
//!
//! A checkpointed session writes one journal record per tuning iteration
//! (the measured WIPS and everything else the tuner's deterministic
//! replay cannot re-derive) plus a periodic atomic snapshot of the full
//! tuner state. Recovery loads the newest intact snapshot and *replays*
//! the journal records after it — proposals are re-derived by running the
//! tuner forward and feeding it the journaled measurements, so nothing is
//! re-simulated and the resumed session continues bit-for-bit where the
//! interrupted one stopped.
//!
//! Every snapshot and journal carries a *fingerprint* of the session
//! environment (topology, workload, seeds, fault plan, method, iteration
//! budget). Resuming with a different environment is a typed
//! [`SessionError::Checkpoint`] error, never a silently diverging run.

use crate::reconfigure::ReconfigEvent;
use crate::resilient::{DetectionEvent, RecoveryAction};
use crate::session::{ckerr, node_values, IterationRecord, SessionConfig, SessionError};
use cluster::config::{ClusterConfig, NodeParams, Role, Topology};
use cluster::params::{DbParams, ProxyParams, WebParams};
use persist::snapshot::{Fields, Value};
use persist::{CheckpointStore, PersistError, State};
use std::path::PathBuf;
use std::sync::Arc;
use tpcw::mix::Workload;

/// Where and how often a session checkpoints itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory holding the journal and snapshots (created if missing).
    pub dir: PathBuf,
    /// Snapshot cadence in iterations. The journal gets one record per
    /// iteration regardless; this only controls how much journal a
    /// resume has to replay.
    pub(crate) every: u32,
    /// Resume from whatever the directory holds instead of wiping it.
    pub(crate) resume: bool,
}

impl CheckpointPolicy {
    /// Checkpoint into `dir`, snapshotting every 10 iterations.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            dir: dir.into(),
            every: 10,
            resume: false,
        }
    }

    /// Builder: snapshot every `n` iterations (`n` is clamped to ≥ 1).
    pub fn every(mut self, n: u32) -> Self {
        self.every = n.max(1);
        self
    }

    /// Builder: resume a previous session from the directory.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }
}

/// FNV-1a over the canonical description of a session. Not
/// cryptographic — it only has to catch honest mistakes (resuming with a
/// different seed, plan, topology, or method).
pub fn session_fingerprint(
    cfg: &SessionConfig,
    kind: &str,
    iterations: u32,
    switch_at: u32,
) -> u64 {
    use std::fmt::Write as _;
    let mut canon = String::with_capacity(256);
    for role in cfg.topology.roles() {
        canon.push_str(role.name());
        canon.push(',');
    }
    let _ = write!(
        canon,
        "|{}|{}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{}|",
        cfg.workload.name(),
        cfg.population,
        cfg.plan,
        cfg.scale,
        cfg.spec,
        cfg.base_seed,
        cfg.pin_seed,
        cfg.markov_sessions,
        cfg.node_specs,
        cfg.fault_seed,
    );
    match cfg.fault_plan.as_ref() {
        Some(plan) => canon.push_str(&plan.to_json()),
        None => canon.push('-'),
    }
    // The load model is part of the environment: a cohort session's
    // measurements are not interchangeable with a per-browser session's,
    // so resuming across models (or across bin counts) must be refused.
    // Appended only in cohort mode so every pre-existing per-browser
    // fingerprint — including the golden ones in BENCH files — is
    // unchanged.
    if let cluster::model::LoadModel::Cohort { bins } = cfg.load_model {
        let _ = write!(canon, "|cohort:{bins}");
    }
    // The tuning algorithm is part of the environment: resuming a
    // simplex checkpoint under `--tuner tuna` must be refused.
    let _ = write!(canon, "|{}|{kind}|{iterations}|{switch_at}", cfg.tuner);
    fnv1a(canon.as_bytes())
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// What resuming found in the checkpoint directory.
#[derive(Debug)]
pub struct Resumed {
    /// Newest intact snapshot, as `(iteration, state)`.
    pub(crate) snapshot: Option<(u64, State)>,
    /// Journal records to replay (iterations ≥ the snapshot's).
    pub(crate) deltas: Vec<State>,
}

/// A session's live handle on its checkpoint directory.
#[derive(Debug)]
pub struct Checkpointer {
    store: CheckpointStore,
    every: u32,
    fingerprint: u64,
}

fn header(fingerprint: u64) -> State {
    State::map()
        .with("header", State::Bool(true))
        .with("fingerprint", State::U64(fingerprint))
}

fn is_header(record: &State) -> bool {
    record.get("header").and_then(State::as_bool) == Some(true)
}

impl Checkpointer {
    /// Open the checkpoint directory. Without `resume` the directory is
    /// wiped and a fresh journal started; with it, the previous session's
    /// snapshot and journal are recovered (fingerprint-checked) and
    /// returned for replay.
    pub fn open(
        policy: &CheckpointPolicy,
        fingerprint: u64,
    ) -> Result<(Checkpointer, Option<Resumed>), SessionError> {
        let mut store = CheckpointStore::open(&policy.dir).map_err(ckerr)?;
        let every = policy.every.max(1);
        if !policy.resume {
            store.start_fresh().map_err(ckerr)?;
            let mut me = Checkpointer {
                store,
                every,
                fingerprint,
            };
            me.store.append(&header(fingerprint)).map_err(ckerr)?;
            return Ok((me, None));
        }

        let rec = store.recover().map_err(ckerr)?;
        let check = |what: &str, state: &State| {
            let found = state.field_u64("fingerprint").map_err(ckerr)?;
            if found != fingerprint {
                return Err(SessionError::Checkpoint(format!(
                    "{what} fingerprint {found:#018x} does not match this \
                     session ({fingerprint:#018x}) — same seeds, plan, \
                     topology, and method are required to resume"
                )));
            }
            Ok(())
        };
        let mut from_iteration = 0u64;
        if let Some((iteration, state)) = &rec.snapshot {
            check("snapshot", state)?;
            from_iteration = *iteration;
        }
        let mut deltas = Vec::new();
        for record in &rec.journal {
            if is_header(record) {
                check("journal", record)?;
                continue;
            }
            if record.field_u64("iteration").map_err(ckerr)? >= from_iteration {
                deltas.push(record.clone());
            }
        }
        let mut me = Checkpointer {
            store,
            every,
            fingerprint,
        };
        if rec.journal.is_empty() {
            // Nothing to resume (or the journal was lost): start the new
            // stream with a header so later resumes can still validate.
            me.store.append(&header(fingerprint)).map_err(ckerr)?;
        }
        Ok((
            me,
            Some(Resumed {
                snapshot: rec.snapshot,
                deltas,
            }),
        ))
    }

    /// Append one per-iteration delta to the journal.
    pub fn append(&mut self, delta: State) -> Result<(), SessionError> {
        self.store.append(&delta).map_err(ckerr)
    }

    /// Whether `next_iteration` hits the snapshot cadence. A completed
    /// session deliberately never snapshots its final state: the
    /// directory of a finished k-iteration run is byte-identical to that
    /// of a process killed at the same boundary, which is what makes
    /// kill-and-resume testable without subprocess machinery.
    fn due(&self, next_iteration: u32, total_iterations: u32) -> bool {
        next_iteration != 0
            && next_iteration < total_iterations
            && next_iteration.is_multiple_of(self.every)
    }

    /// Snapshot `state`, plus `fingerprint` and `iteration`, if
    /// `next_iteration` hits the cadence. The snapshot is durable on
    /// return.
    pub fn maybe_snapshot(
        &mut self,
        next_iteration: u32,
        total_iterations: u32,
        state: impl FnOnce() -> State,
    ) -> Result<(), SessionError> {
        if !self.due(next_iteration, total_iterations) {
            return Ok(());
        }
        let snapshot = state()
            .with("fingerprint", State::U64(self.fingerprint))
            .with("iteration", State::U64(next_iteration as u64));
        self.store
            .write_snapshot(next_iteration as u64, &snapshot)
            .map_err(ckerr)
    }

    /// [`Checkpointer::maybe_snapshot`] for a snapshot assembled field
    /// by field: `fields` adds the session's fields, so bytes encoded
    /// earlier are shared instead of rebuilt, and `fingerprint` and
    /// `iteration` follow them. The file is the one `maybe_snapshot`
    /// writes for the equivalent map, but it is written on the store's
    /// writer thread: this returns once the image is handed off. The
    /// previous write is joined before the image is assembled, so one
    /// image is alive at a time, and its failure is returned here;
    /// [`Checkpointer::finish`] joins the last one.
    pub(crate) fn maybe_snapshot_fields(
        &mut self,
        next_iteration: u32,
        total_iterations: u32,
        fields: impl FnOnce(&mut Fields),
    ) -> Result<(), SessionError> {
        if !self.due(next_iteration, total_iterations) {
            return Ok(());
        }
        self.store.wait().map_err(ckerr)?;
        let mut image = Fields::new();
        fields(&mut image);
        image.state("fingerprint", &State::U64(self.fingerprint));
        image.state("iteration", &State::U64(next_iteration as u64));
        self.store
            .write_snapshot_fields(next_iteration as u64, image)
            .map_err(ckerr)
    }

    /// Wait for the snapshot write in flight, if any: once this returns
    /// `Ok`, every snapshot the session took is durable.
    pub(crate) fn finish(&mut self) -> Result<(), SessionError> {
        self.store.wait().map_err(ckerr)
    }
}

// ---------------------------------------------------------------------
// Domain ↔ State conversions
// ---------------------------------------------------------------------

fn schema(msg: impl Into<String>) -> PersistError {
    PersistError::Schema(msg.into())
}

pub(crate) fn role_from_name(name: &str) -> Result<Role, PersistError> {
    Role::ALL
        .into_iter()
        .find(|r| r.name() == name)
        .ok_or_else(|| schema(format!("unknown role '{name}'")))
}

pub(crate) fn workload_from_name(name: &str) -> Result<Workload, PersistError> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| schema(format!("unknown workload '{name}'")))
}

pub(crate) fn topology_state(topology: &Topology) -> State {
    State::List(
        topology
            .roles()
            .iter()
            .map(|r| State::Str(r.name().to_string()))
            .collect(),
    )
}

pub(crate) fn topology_from_state(state: &State) -> Result<Topology, PersistError> {
    let roles = state
        .as_list()
        .ok_or_else(|| schema("topology is not a list"))?
        .iter()
        .map(|s| {
            s.as_str()
                .ok_or_else(|| schema("topology role is not a string"))
                .and_then(role_from_name)
        })
        .collect::<Result<Vec<Role>, _>>()?;
    Topology::new(roles).map_err(|e| schema(format!("invalid topology: {e}")))
}

fn node_params_from_values(role: Role, values: &[i64]) -> Result<NodeParams, PersistError> {
    let out_of_range = |e| schema(format!("{} node values out of range: {e}", role.name()));
    Ok(match role {
        Role::Proxy => NodeParams::Proxy(ProxyParams::from_values(values).map_err(out_of_range)?),
        Role::App => NodeParams::App(WebParams::from_values(values).map_err(out_of_range)?),
        Role::Db => NodeParams::Db(DbParams::from_values(values).map_err(out_of_range)?),
    })
}

/// A full cluster configuration as a list of `{role, values}` maps — the
/// same per-node value vectors [`crate::session::config_summary`] prints.
pub(crate) fn config_state(config: &ClusterConfig) -> State {
    State::List(
        config
            .nodes()
            .iter()
            .map(|n| {
                State::map()
                    .with("role", State::Str(n.role().name().to_string()))
                    .with("values", State::i64_list(&node_values(n)))
            })
            .collect(),
    )
}

pub(crate) fn config_from_state(state: &State) -> Result<ClusterConfig, PersistError> {
    let nodes = state
        .as_list()
        .ok_or_else(|| schema("cluster config is not a list"))?;
    let mut roles = Vec::with_capacity(nodes.len());
    let mut params = Vec::with_capacity(nodes.len());
    for node in nodes {
        let role = role_from_name(node.field_str("role")?)?;
        let values = node.require("values")?.to_i64_vec()?;
        roles.push(role);
        params.push(node_params_from_values(role, &values)?);
    }
    let topology = Topology::new(roles).map_err(|e| schema(format!("invalid topology: {e}")))?;
    ClusterConfig::new(&topology, params).map_err(|e| schema(format!("invalid config: {e}")))
}

/// One iteration record as a snapshot's `records` list holds it: the
/// record format's one definition.
fn record_state(r: &IterationRecord) -> State {
    State::map()
        .with("iteration", State::U64(r.iteration as u64))
        .with("wips", State::F64(r.wips))
        .with("line_wips", State::f64_list(&r.line_wips))
        .with("workload", State::Str(r.workload.name().to_string()))
        .with("failed", State::U64(r.failed))
}

/// The `records` field as a tree: the test oracle for [`RecordLog`].
#[cfg(test)]
pub(crate) fn records_state(records: &[IterationRecord]) -> State {
    State::List(records.iter().map(record_state).collect())
}

/// A session's iteration records, each encoded once, by the first
/// snapshot that holds it: a snapshot's `records` field is a list header
/// followed by those bytes, shared rather than copied, so its cost does
/// not grow with re-encoding the whole history, and a session that
/// never snapshots never encodes.
pub(crate) struct RecordLog {
    records: Vec<IterationRecord>,
    /// The encodings of `records[..encoded_count]`, in order, one chunk
    /// per snapshot that found records not encoded yet.
    encoded: Vec<Arc<[u8]>>,
    encoded_count: usize,
}

impl RecordLog {
    pub(crate) fn with_capacity(iterations: usize) -> RecordLog {
        RecordLog {
            records: Vec::with_capacity(iterations),
            encoded: Vec::new(),
            encoded_count: 0,
        }
    }

    pub(crate) fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// Append the `records` field's encoding, first encoding the records
    /// pushed since the last call.
    pub(crate) fn encode_into(&mut self, out: &mut Value<'_>) {
        if self.encoded_count < self.records.len() {
            let mut chunk = Vec::new();
            for record in &self.records[self.encoded_count..] {
                record_state(record).encode_into(&mut chunk);
            }
            self.encoded.push(chunk.into());
            self.encoded_count = self.records.len();
        }
        State::encode_list_header(self.records.len(), out.bytes());
        for chunk in &self.encoded {
            out.shared(chunk);
        }
    }

    pub(crate) fn into_records(self) -> Vec<IterationRecord> {
        self.records
    }
}

pub(crate) fn records_from_state(state: &State) -> Result<Vec<IterationRecord>, PersistError> {
    state
        .as_list()
        .ok_or_else(|| schema("records is not a list"))?
        .iter()
        .map(|r| {
            Ok(IterationRecord {
                iteration: r.field_u64("iteration")? as u32,
                wips: r.field_f64("wips")?,
                line_wips: r.require("line_wips")?.to_f64_vec()?,
                workload: workload_from_name(r.field_str("workload")?)?,
                failed: r.field_u64("failed")?,
            })
        })
        .collect()
}

fn recovery_action_name(name: &str) -> Result<&'static str, PersistError> {
    Ok(match name {
        "retry" => "retry",
        "remeasure" => "remeasure",
        "breaker_open" => "breaker_open",
        "breaker_skip" => "breaker_skip",
        "breaker_probe" => "breaker_probe",
        "timeout" => "timeout",
        "degraded" => "degraded",
        "reconfig" => "reconfig",
        other => return Err(schema(format!("unknown recovery action '{other}'"))),
    })
}

pub(crate) fn recoveries_state(recoveries: &[RecoveryAction]) -> State {
    State::List(
        recoveries
            .iter()
            .map(|r| {
                State::map()
                    .with("iteration", State::U64(r.iteration as u64))
                    .with("action", State::Str(r.action.to_string()))
                    .with("attempt", State::U64(r.attempt as u64))
                    .with("delay_s", State::F64(r.delay_s))
                    .with("wips", State::F64(r.wips))
            })
            .collect(),
    )
}

pub(crate) fn recoveries_from_state(state: &State) -> Result<Vec<RecoveryAction>, PersistError> {
    state
        .as_list()
        .ok_or_else(|| schema("recoveries is not a list"))?
        .iter()
        .map(|r| {
            Ok(RecoveryAction {
                iteration: r.field_u64("iteration")? as u32,
                action: recovery_action_name(r.field_str("action")?)?,
                attempt: r.field_u64("attempt")? as u32,
                delay_s: r.field_f64("delay_s")?,
                wips: r.field_f64("wips")?,
            })
        })
        .collect()
}

pub(crate) fn reconfig_state(event: &ReconfigEvent) -> State {
    State::map()
        .with("iteration", State::U64(event.iteration as u64))
        .with("node", State::U64(event.node as u64))
        .with("from_tier", State::Str(event.from_tier.name().to_string()))
        .with("to_tier", State::Str(event.to_tier.name().to_string()))
        .with("immediate", State::Bool(event.immediate))
        .with("cost_value", State::F64(event.cost_value))
}

pub(crate) fn reconfig_from_state(state: &State) -> Result<ReconfigEvent, PersistError> {
    Ok(ReconfigEvent {
        iteration: state.field_u64("iteration")? as u32,
        node: state.field_u64("node")? as usize,
        from_tier: role_from_name(state.field_str("from_tier")?)?,
        to_tier: role_from_name(state.field_str("to_tier")?)?,
        immediate: state.field_bool("immediate")?,
        cost_value: state.field_f64("cost_value")?,
    })
}

fn membership_state_name(name: &str) -> Result<&'static str, PersistError> {
    Ok(detect::NodeState::from_name(name)?.name())
}

pub(crate) fn detections_state(events: &[DetectionEvent]) -> State {
    State::List(
        events
            .iter()
            .map(|d| {
                State::map()
                    .with("iteration", State::U64(d.iteration as u64))
                    .with("node", State::U64(d.node as u64))
                    .with("at_s", State::F64(d.at_s))
                    .with("from", State::Str(d.from.to_string()))
                    .with("to", State::Str(d.to.to_string()))
                    .with("phi", State::F64(d.phi))
                    .with("truth_crashed", State::Bool(d.truth_crashed))
                    .with("latency_s", State::F64(d.latency_s))
            })
            .collect(),
    )
}

pub(crate) fn detections_from_state(state: &State) -> Result<Vec<DetectionEvent>, PersistError> {
    state
        .as_list()
        .ok_or_else(|| schema("detections is not a list"))?
        .iter()
        .map(|d| {
            Ok(DetectionEvent {
                iteration: d.field_u64("iteration")? as u32,
                node: d.field_u64("node")? as usize,
                at_s: d.field_f64("at_s")?,
                from: membership_state_name(d.field_str("from")?)?,
                to: membership_state_name(d.field_str("to")?)?,
                phi: d.field_f64("phi")?,
                truth_crashed: d.field_bool("truth_crashed")?,
                latency_s: d.field_f64("latency_s")?,
            })
        })
        .collect()
}

pub(crate) fn reconfigs_state(events: &[ReconfigEvent]) -> State {
    State::List(events.iter().map(reconfig_state).collect())
}

pub(crate) fn reconfigs_from_state(state: &State) -> Result<Vec<ReconfigEvent>, PersistError> {
    state
        .as_list()
        .ok_or_else(|| schema("reconfigs is not a list"))?
        .iter()
        .map(reconfig_from_state)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcw::metrics::IntervalPlan;

    fn cfg() -> SessionConfig {
        SessionConfig::new(
            Topology::tiers(1, 2, 1).expect("topology"),
            Workload::Shopping,
            300,
        )
        .plan(IntervalPlan::tiny())
    }

    #[test]
    fn fingerprint_is_sensitive_to_the_environment() {
        let base = session_fingerprint(&cfg(), "tune", 10, 10);
        assert_eq!(base, session_fingerprint(&cfg(), "tune", 10, 10));
        assert_ne!(
            base,
            session_fingerprint(&cfg().base_seed(7), "tune", 10, 10)
        );
        assert_ne!(base, session_fingerprint(&cfg(), "resilient", 10, 10));
        assert_ne!(base, session_fingerprint(&cfg(), "tune", 11, 11));
        assert_ne!(
            base,
            session_fingerprint(&cfg().workload(Workload::Ordering), "tune", 10, 10)
        );
        assert_ne!(
            base,
            session_fingerprint(
                &cfg().fault_plan(faults::FaultPlan::new().crash(1.0, 0)),
                "tune",
                10,
                10
            )
        );
    }

    #[test]
    fn fingerprint_separates_load_models() {
        use cluster::model::LoadModel;
        let base = session_fingerprint(&cfg(), "tune", 10, 10);
        // Per-browser is the default; spelling it out changes nothing, so
        // every fingerprint minted before the cohort model exists is
        // still valid.
        assert_eq!(
            base,
            session_fingerprint(&cfg().load_model(LoadModel::PerBrowser), "tune", 10, 10)
        );
        let cohort = session_fingerprint(
            &cfg().load_model(LoadModel::Cohort { bins: 64 }),
            "tune",
            10,
            10,
        );
        assert_ne!(
            base, cohort,
            "cohort sessions must not resume per-browser state"
        );
        // The bin count shapes the think-time quantisation, so it is
        // part of the environment too.
        assert_ne!(
            cohort,
            session_fingerprint(
                &cfg().load_model(LoadModel::Cohort { bins: 32 }),
                "tune",
                10,
                10,
            )
        );
    }

    #[test]
    fn resume_across_load_models_is_refused() {
        use cluster::model::LoadModel;
        let dir = std::env::temp_dir().join(format!(
            "ckpt-loadmodel-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::new(&dir).every(2);
        // A per-browser session checkpoints...
        let pb = session_fingerprint(&cfg(), "tune", 10, 10);
        let (mut ckpt, _) = Checkpointer::open(&policy, pb).expect("fresh");
        ckpt.append(State::map().with("iteration", State::U64(0)))
            .expect("append");
        drop(ckpt);
        // ...and a cohort invocation pointed at the same directory is a
        // typed refusal, not a silently diverging run.
        let cohort = session_fingerprint(
            &cfg().load_model(LoadModel::Cohort { bins: 64 }),
            "tune",
            10,
            10,
        );
        let resume_policy = policy.clone().resume(true);
        let err = Checkpointer::open(&resume_policy, cohort).unwrap_err();
        assert!(matches!(err, SessionError::Checkpoint(_)), "{err:?}");
        // The matching model still resumes.
        assert!(Checkpointer::open(&resume_policy, pb).is_ok());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn config_roundtrips_through_state() {
        let topology = Topology::tiers(2, 1, 1).expect("topology");
        let mut config = ClusterConfig::defaults(&topology);
        if let NodeParams::Proxy(p) = config.node_mut(0) {
            p.cache_mem = 33;
        }
        let back = config_from_state(&config_state(&config)).expect("roundtrip");
        assert_eq!(back, config);
    }

    #[test]
    fn config_from_state_rejects_out_of_range_values() {
        let bad = State::List(vec![State::map()
            .with("role", State::Str("proxy".into()))
            .with("values", State::i64_list(&[-1, -1, -1, -1, -1, -1, -1]))]);
        assert!(matches!(
            config_from_state(&bad),
            Err(PersistError::Schema(_))
        ));
    }

    #[test]
    fn records_and_recoveries_roundtrip() {
        let records = vec![
            IterationRecord {
                iteration: 3,
                wips: 12.5,
                line_wips: vec![6.25, 6.25],
                workload: Workload::Browsing,
                failed: 2,
            },
            IterationRecord {
                iteration: 4,
                wips: 0.0,
                line_wips: Vec::new(),
                workload: Workload::Ordering,
                failed: 0,
            },
        ];
        assert_eq!(
            records_from_state(&records_state(&records)).expect("records"),
            records
        );
        // Records encoded a few at a time, as snapshots come, make the
        // same `records` field as the tree.
        let mut log = RecordLog::with_capacity(records.len());
        for (k, r) in records.iter().enumerate() {
            log.push(r.clone());
            let mut fields = Fields::new();
            fields.encoded("records", |out| log.encode_into(out));
            let tree = State::map().with("records", records_state(&records[..=k]));
            assert_eq!(fields.finish(), persist::snapshot::Image::of(&tree));
        }
        let recoveries = vec![RecoveryAction {
            iteration: 3,
            action: "retry",
            attempt: 2,
            delay_s: 1.5,
            wips: 0.0,
        }];
        let back = recoveries_from_state(&recoveries_state(&recoveries)).expect("recoveries");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].action, "retry");
        assert_eq!(back[0].delay_s, 1.5);
        assert!(recoveries_from_state(&State::List(vec![State::map()
            .with("iteration", State::U64(0))
            .with("action", State::Str("explode".into()))
            .with("attempt", State::U64(0))
            .with("delay_s", State::F64(0.0))
            .with("wips", State::F64(0.0))]))
        .is_err());
    }

    #[test]
    fn reconfig_roundtrips() {
        let event = ReconfigEvent {
            iteration: 9,
            node: 2,
            from_tier: Role::Db,
            to_tier: Role::App,
            immediate: true,
            cost_value: 0.25,
        };
        let back = reconfig_from_state(&reconfig_state(&event)).expect("reconfig");
        assert_eq!(back.node, 2);
        assert_eq!(back.from_tier, Role::Db);
        assert_eq!(back.to_tier, Role::App);
        assert!(back.immediate);
    }

    #[test]
    fn open_fresh_resume_and_fingerprint_mismatch() {
        let dir = std::env::temp_dir().join(format!(
            "ckpt-open-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::new(&dir).every(2);
        let (mut ckpt, resumed) = Checkpointer::open(&policy, 0xABCD).expect("fresh");
        assert!(resumed.is_none());
        ckpt.append(State::map().with("iteration", State::U64(0)))
            .expect("append");
        ckpt.maybe_snapshot(1, 10, || State::map().with("kind", State::Str("t".into())))
            .expect("iteration 1 is off-cadence, no snapshot");
        drop(ckpt);

        let resume_policy = policy.clone().resume(true);
        let (_, resumed) = Checkpointer::open(&resume_policy, 0xABCD).expect("resume");
        let resumed = resumed.expect("resumed");
        assert_eq!(resumed.deltas.len(), 1);
        assert!(resumed.snapshot.is_none());

        let err = Checkpointer::open(&resume_policy, 0xBEEF).unwrap_err();
        assert!(matches!(err, SessionError::Checkpoint(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn final_snapshot_is_never_written() {
        let dir = std::env::temp_dir().join(format!(
            "ckpt-final-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::new(&dir).every(1);
        let (mut ckpt, _) = Checkpointer::open(&policy, 1).expect("fresh");
        for i in 0..4u32 {
            ckpt.append(State::map().with("iteration", State::U64(i as u64)))
                .expect("append");
            ckpt.maybe_snapshot(i + 1, 4, State::map).expect("snapshot");
        }
        drop(ckpt);
        let snaps: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".ckpt"))
            .collect();
        assert!(
            !snaps.iter().any(|n| n.contains("00000004")),
            "completion must not snapshot: {snaps:?}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
