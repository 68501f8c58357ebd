//! Facade crate: re-exports the whole HPDC'04 reproduction and hosts the
//! command-line interface.
//!
//! * [`simkit`] — the discrete-event simulation engine;
//! * [`tpcw`] — the TPC-W workload model;
//! * [`cluster`] — the simulated three-tier testbed;
//! * [`harmony`] — the Active Harmony tuning system;
//! * [`faults`] — deterministic fault plans and injection;
//! * [`detect`] — heartbeat failure detection (φ-accrual, membership);
//! * [`obs`] — metrics registry and structured trace sinks;
//! * [`persist`] — crash-safe state: write-ahead journal + snapshots;
//! * [`orchestrator`] — sessions (resilient ones included: breaker,
//!   retry, timeout, degradation), experiments, reports.

pub mod cli;

pub use cluster;
pub use detect;
pub use faults;
pub use harmony;
pub use obs;
pub use orchestrator;
pub use persist;
pub use simkit;
pub use tpcw;

/// The tuning-facing API in one import: everything needed to configure a
/// session, drive a tuner ask/tell loop, and observe the result.
///
/// ```
/// use ah_webtune::prelude::*;
///
/// let cfg = SessionConfig::new(Topology::single(), Workload::Shopping, 200)
///     .plan(IntervalPlan::tiny())
///     .pin_seed(true);
/// let run = tune_observed(&cfg, TuningMethod::Default, 3, &mut SessionObserver::none())
///     .expect("session");
/// assert_eq!(run.records.len(), 3);
/// ```
pub mod prelude {
    pub use cluster::config::{ClusterConfig, Role, Topology};
    pub use cluster::spec::NodeSpec;
    pub use detect::{Detector, DetectorConfig, MembershipView, NodeState, PhiAccrual};
    pub use faults::{ChaosPlan, FaultPlan, Health};
    pub use harmony::annealing::SimulatedAnnealing;
    pub use harmony::bestconfig::BestConfigTuner;
    pub use harmony::classytune::ClassyTuneTuner;
    pub use harmony::registry::{make_tuner, make_tuner_seeded, tuner_names, UnknownTuner};
    pub use harmony::server::HarmonyServer;
    pub use harmony::simplex::SimplexTuner;
    pub use harmony::space::{Configuration, ParamSpace};
    pub use harmony::strategy::TuningMethod;
    pub use harmony::tuna::TunaTuner;
    pub use harmony::tuner::{Measurement, Trial, Tuner};
    pub use obs::{CsvWriter, JsonlWriter, MemorySink, NullSink, Registry, TraceRecord, TraceSink};
    pub use orchestrator::checkpoint::CheckpointPolicy;
    pub use orchestrator::eval::{EvalEngine, EvalSettings};
    pub use orchestrator::resilient::{
        run_resilient_session_observed, DetectionEvent, OutlierGate, ResilienceSettings,
        ResilientRun, RetryPolicy,
    };
    pub use orchestrator::session::{
        tune_observed, IterationRecord, SessionConfig, SessionError, SessionObserver, TuningRun,
    };
    pub use tpcw::metrics::IntervalPlan;
    pub use tpcw::mix::Workload;
}
