//! The Harmony tuning server: a tuner plus the protocol state around it.
//!
//! One server owns one parameter subset. The "default method" of the
//! paper uses a single server for every parameter of every node; the
//! scalability methods (§III.B) run several servers side by side, each
//! tuning its own subset against its own performance signal.

use std::collections::VecDeque;

use crate::space::{Configuration, ParamSpace};
use crate::tuner::{Measurement, Trial, Tuner};
use persist::{Checkpointable, PersistError, State};

/// A named tuning server.
pub struct HarmonyServer {
    name: String,
    tuner: Box<dyn Tuner + Send>,
    pending: Option<Configuration>,
    /// Drive the tuner through the ask/tell v2 batch protocol
    /// ([`Tuner::propose_batch`] / [`Tuner::observe_trial`]) instead of
    /// the strictly-alternating propose/observe pair. Batch-native
    /// algorithms hand out their whole planning round at once; the
    /// server queues it and serves one trial per `next_config` call, so
    /// the queued remainder is *certain* future work — exactly what
    /// speculative evaluation wants to see.
    batch_mode: bool,
    /// Trials handed out by `propose_batch` but not yet proposed.
    queued: VecDeque<Trial>,
    /// The trial whose measurement is outstanding (batch mode only).
    pending_trial: Option<Trial>,
}

impl HarmonyServer {
    pub fn new(name: impl Into<String>, tuner: Box<dyn Tuner + Send>) -> Self {
        HarmonyServer {
            name: name.into(),
            tuner,
            pending: None,
            batch_mode: false,
            queued: VecDeque::new(),
            pending_trial: None,
        }
    }

    /// Builder: drive the tuner through the v2 batch protocol. The
    /// proposal sequence is identical to the alternating protocol (a
    /// round's trials pop in the same order its `propose` calls would),
    /// so traces and results do not change — but the queued remainder
    /// of the round becomes visible to [`HarmonyServer::speculate`].
    pub fn batch_protocol(mut self, on: bool) -> Self {
        self.batch_mode = on;
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn space(&self) -> &ParamSpace {
        self.tuner.space()
    }

    pub fn algorithm(&self) -> &'static str {
        self.tuner.name()
    }

    /// Propose the configuration for the next tuning iteration. In
    /// batch mode the server refills its queue from
    /// [`Tuner::propose_batch`] when it runs dry and serves the next
    /// queued trial; otherwise it asks [`Tuner::propose`] directly.
    pub fn next_config(&mut self) -> Configuration {
        if self.batch_mode {
            if self.queued.is_empty() && self.pending_trial.is_none() {
                self.queued.extend(self.tuner.propose_batch());
            }
            let Some(trial) = self.queued.pop_front() else {
                panic!("next_config() while a batch trial awaits its report");
            };
            let c = trial.config.clone();
            self.pending_trial = Some(trial);
            return c;
        }
        let c = self.tuner.propose();
        self.pending = Some(c.clone());
        c
    }

    /// Report the measured performance of the last proposed configuration
    /// as a bare point value (no CI, one replication).
    pub fn report(&mut self, performance: f64) {
        self.report_measurement(Measurement::point(performance));
    }

    /// Report a typed measurement: noise-aware tuners (TUNA) weight the
    /// observation by its confidence interval and replication count. In
    /// batch mode the result is routed back by trial id
    /// ([`Tuner::observe_trial`]).
    pub fn report_measurement(&mut self, m: Measurement) {
        if let Some(trial) = self.pending_trial.take() {
            self.tuner.observe_trial(trial.id, m);
            return;
        }
        if self.pending.take().is_none() {
            panic!("report() without next_config()");
        }
        self.tuner.observe_measurement(m);
    }

    /// The underlying tuner's natural batch width (see
    /// [`Tuner::batch_size`]). In batch mode a partially-served round
    /// reports its queued remainder, mirroring what the tuner itself
    /// would report mid-round under the alternating protocol.
    pub fn batch_size(&self) -> usize {
        if !self.queued.is_empty() {
            return self.queued.len();
        }
        self.tuner.batch_size()
    }

    /// Best configuration observed so far.
    pub fn best(&self) -> Option<(&Configuration, f64)> {
        self.tuner.best()
    }

    /// Reset the underlying tuner's search state (see [`Tuner::reset`]).
    /// The best-seen record is kept; any pending proposal is dropped so
    /// the next `next_config` starts the fresh search.
    pub fn reset(&mut self) {
        self.pending = None;
        self.pending_trial = None;
        self.queued.clear();
        self.tuner.reset();
    }

    /// The tuner's internal diagnostics for the current iteration.
    pub fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        self.tuner.diagnostics()
    }

    /// Configurations this server may propose over its next few
    /// [`HarmonyServer::next_config`] calls (see [`Tuner::speculate`]).
    /// Empty while a proposal awaits its report. In batch mode the
    /// queued remainder of the current round is promised verbatim —
    /// *certain* future proposals, one per offset — before falling back
    /// to the tuner's own (advisory) speculation between rounds. This
    /// is how batch-native zoo tuners (BestConfig, ClassyTune) feed the
    /// shared worker pool, not just the simplex.
    pub fn speculate(&self) -> Vec<Vec<Configuration>> {
        if self.pending.is_some() || self.pending_trial.is_some() {
            return Vec::new();
        }
        if !self.queued.is_empty() {
            return self.queued.iter().map(|t| vec![t.config.clone()]).collect();
        }
        self.tuner.speculate()
    }
}

fn trial_state(t: &Trial) -> State {
    State::map()
        .with("id", State::U64(t.id))
        .with("values", State::i64_list(t.config.values()))
}

fn trial_from_state(state: &State) -> Result<Trial, PersistError> {
    Ok(Trial::new(
        state.field_u64("id")?,
        Configuration::from_values(state.require("values")?.to_i64_vec()?),
    ))
}

impl Checkpointable for HarmonyServer {
    /// Server identity plus the tuner's search state, the pending
    /// proposal (or batch trial) and the queued batch remainder. Nothing
    /// here grows with the number of iterations: the per-iteration trace
    /// belongs to the caller.
    fn save_state(&self) -> State {
        State::map()
            .with("name", State::Str(self.name.clone()))
            .with("tuner", self.tuner.save_state())
            .with(
                "pending",
                match &self.pending {
                    Some(c) => State::i64_list(c.values()),
                    None => State::Null,
                },
            )
            .with(
                "pending_trial",
                match &self.pending_trial {
                    Some(t) => trial_state(t),
                    None => State::Null,
                },
            )
            .with(
                "queued",
                State::List(self.queued.iter().map(trial_state).collect()),
            )
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let name = state.field_str("name")?;
        if name != self.name {
            return Err(PersistError::Schema(format!(
                "checkpoint is for server '{name}', this server is '{}'",
                self.name
            )));
        }
        self.tuner.restore_state(state.require("tuner")?)?;
        // Snapshots written while the server still logged every report
        // carry a `history` list; nothing reads it any more, so it is
        // skipped and those snapshots keep resuming.
        self.pending = match state.require("pending")? {
            State::Null => None,
            values => Some(Configuration::from_values(values.to_i64_vec()?)),
        };
        // Batch fields are absent from pre-batch-protocol snapshots:
        // treat missing as empty so old checkpoints keep resuming.
        self.pending_trial = match state.get("pending_trial") {
            None | Some(State::Null) => None,
            Some(t) => Some(trial_from_state(t)?),
        };
        self.queued.clear();
        if let Some(queued) = state.get("queued") {
            let State::List(items) = queued else {
                return Err(PersistError::Schema("queued must be a list".into()));
            };
            for item in items {
                self.queued.push_back(trial_from_state(item)?);
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for HarmonyServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarmonyServer")
            .field("name", &self.name)
            .field("algorithm", &self.tuner.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamDef;
    use crate::simplex::SimplexTuner;

    fn server() -> HarmonyServer {
        let space = ParamSpace::new(vec![
            ParamDef::new("x", 0, 100, 50),
            ParamDef::new("y", 0, 100, 50),
        ]);
        HarmonyServer::new("test", Box::new(SimplexTuner::new(space)))
    }

    #[test]
    fn drives_tuner_and_keeps_the_best_report() {
        let mut s = server();
        let mut reported = Vec::new();
        for _ in 0..20 {
            let c = s.next_config();
            let perf = -(c.get(0) as f64 - 80.0).abs();
            s.report(perf);
            reported.push((c, perf));
        }
        let (best, best_perf) = s.best().expect("a best after 20 reports");
        assert!(reported.iter().all(|(_, p)| *p <= best_perf));
        assert!(reported.contains(&(best.clone(), best_perf)));
        assert_eq!(s.name(), "test");
        assert_eq!(s.algorithm(), "simplex");
    }

    #[test]
    #[should_panic(expected = "report() without next_config()")]
    fn report_without_propose_panics() {
        let mut s = server();
        s.report(1.0);
    }

    fn batch_server(tuner: Box<dyn Tuner + Send>) -> HarmonyServer {
        HarmonyServer::new("test", tuner).batch_protocol(true)
    }

    #[test]
    fn batch_protocol_matches_alternating_protocol_exactly() {
        // The v2 batch path must reproduce the alternating path's
        // proposal sequence bit-for-bit — for a point tuner (simplex,
        // one-element default batches) and a batch-native one
        // (BestConfig rounds).
        let space = ParamSpace::new(vec![
            ParamDef::new("x", 0, 100, 50),
            ParamDef::new("y", 0, 100, 50),
        ]);
        let builds: Vec<fn(ParamSpace) -> Box<dyn Tuner + Send>> =
            vec![|s| Box::new(SimplexTuner::new(s)), |s| {
                Box::new(crate::bestconfig::BestConfigTuner::new(s, 7))
            }];
        let perf = |c: &Configuration| -(c.get(0) as f64 - 80.0).abs();
        for build in builds {
            let mut alternating = HarmonyServer::new("test", build(space.clone()));
            let mut batched = batch_server(build(space.clone()));
            let (mut alternating_perfs, mut batched_perfs) = (Vec::new(), Vec::new());
            for _ in 0..25 {
                let a = alternating.next_config();
                let b = batched.next_config();
                assert_eq!(a, b, "protocols diverged");
                alternating_perfs.push(perf(&a));
                batched_perfs.push(perf(&b));
                alternating.report(perf(&a));
                batched.report(perf(&b));
            }
            assert_eq!(alternating_perfs, batched_perfs);
        }
    }

    #[test]
    fn batch_protocol_exposes_queued_round_to_speculation() {
        let space = ParamSpace::new(vec![ParamDef::new("x", 0, 100, 50)]);
        let mut s = batch_server(Box::new(crate::bestconfig::BestConfigTuner::new(space, 7)));
        // Prime one round so the queue is refilled mid-round.
        let c = s.next_config();
        s.report(c.get(0) as f64);
        let c = s.next_config();
        s.report(c.get(0) as f64);
        // Between reports the queued remainder is certain: speculation
        // must promise it verbatim, one configuration per offset.
        let ahead = s.speculate();
        assert!(
            !ahead.is_empty(),
            "a queued batch must be visible to speculation"
        );
        for next in &ahead {
            assert_eq!(next.len(), 1, "queued trials are certain");
        }
        let promised: Vec<Configuration> = ahead.iter().map(|v| v[0].clone()).collect();
        for expected in promised {
            assert_eq!(s.next_config(), expected);
            assert!(
                s.speculate().is_empty(),
                "speculation must stay silent while a report is due"
            );
            s.report(1.0);
        }
    }

    #[test]
    fn batch_state_roundtrips_mid_round() {
        let space = ParamSpace::new(vec![ParamDef::new("x", 0, 100, 50)]);
        let mut s = batch_server(Box::new(crate::bestconfig::BestConfigTuner::new(
            space.clone(),
            7,
        )));
        for _ in 0..3 {
            let c = s.next_config();
            s.report(c.get(0) as f64);
        }
        let saved = Checkpointable::save_state(&s);
        let mut restored =
            batch_server(Box::new(crate::bestconfig::BestConfigTuner::new(space, 7)));
        Checkpointable::restore_state(&mut restored, &saved).expect("restore");
        for _ in 0..10 {
            let a = s.next_config();
            let b = restored.next_config();
            assert_eq!(a, b, "restored server diverged");
            s.report(a.get(0) as f64);
            restored.report(a.get(0) as f64);
        }
    }

    #[test]
    fn restore_accepts_pre_batch_snapshots() {
        // Old snapshots carry no pending_trial/queued fields; restoring
        // one into a batch-protocol server must succeed with an empty
        // queue rather than fail the schema check.
        let mut old = server();
        let c = old.next_config();
        old.report(c.get(0) as f64);
        let saved = Checkpointable::save_state(&old);
        let legacy = match saved {
            State::Map(fields) => State::Map(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "pending_trial" && k != "queued")
                    .collect(),
            ),
            other => other,
        };
        let space = ParamSpace::new(vec![
            ParamDef::new("x", 0, 100, 50),
            ParamDef::new("y", 0, 100, 50),
        ]);
        let mut restored = batch_server(Box::new(SimplexTuner::new(space)));
        Checkpointable::restore_state(&mut restored, &legacy).expect("legacy restore");
        assert_eq!(restored.best(), old.best());
        assert_eq!(restored.next_config(), old.next_config());
    }

    #[test]
    fn restore_ignores_a_legacy_history_list() {
        // Snapshots written while the server still logged every report
        // carry a `history` list of {values, performance} maps. It must
        // not stop them from resuming, and must not change what the
        // restored server proposes.
        let perf = |c: &Configuration| -(c.get(1) as f64 - 30.0).abs();
        let mut live = server();
        for _ in 0..7 {
            let c = live.next_config();
            live.report(perf(&c));
        }
        let saved = Checkpointable::save_state(&live);
        assert!(saved.get("history").is_none(), "no history is written");
        let entry = State::map()
            .with("values", State::i64_list(&[50, 50]))
            .with("performance", State::F64(-20.0));
        let legacy = saved.with("history", State::List(vec![entry; 7]));
        let mut restored = server();
        Checkpointable::restore_state(&mut restored, &legacy).expect("legacy restore");
        for _ in 0..15 {
            let c = live.next_config();
            assert_eq!(restored.next_config(), c, "restored server diverged");
            live.report(perf(&c));
            restored.report(perf(&c));
        }
    }

    #[test]
    fn speculate_predicts_next_config_and_respects_pending() {
        let mut s = server();
        for _ in 0..10 {
            let ahead = s.speculate();
            let c = s.next_config();
            if let Some(next) = ahead.first() {
                assert!(next.contains(&c), "speculated {next:?}, proposed {c}");
            }
            assert!(
                s.speculate().is_empty(),
                "speculation must stay silent while a report is due"
            );
            s.report(c.get(0) as f64);
        }
    }
}
