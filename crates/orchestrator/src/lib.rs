//! # orchestrator — coupling Active Harmony to the simulated cluster
//!
//! The glue layer of the reproduction:
//!
//! * [`binding`] — maps cluster tunables ↔ Harmony search spaces for the
//!   three §III tuning layouts (full per-node, per-tier duplication,
//!   per-work-line partitioning);
//! * [`session`] — the one tuning loop: propose → simulate one
//!   warm-up/measure/cool-down cycle → report WIPS → journal, for every
//!   method and mode;
//! * `schedule` — changing-workload sessions (Figure 5);
//! * [`reconfigure`] — tuning plus the §IV automatic reconfiguration
//!   controller (Figure 7);
//! * [`resilient`] — fault-tolerant sessions: retry/backoff,
//!   re-measurement, circuit breaking, failure detection and
//!   failure-driven reconfiguration;
//! * [`checkpoint`] — crash-safe session persistence: write-ahead
//!   journal, periodic snapshots, and deterministic resume;
//! * [`eval`] — the evaluation engine: parallel prefetch of a tuner's
//!   queued trials and the cache that hands their outcomes to the loop;
//! * [`export`] — CSV export; [`report`] — text tables and sparklines
//!   for the regenerators;
//! * [`experiments`] — one typed runner per paper table/figure;
//! * [`par`] — the shared worker pool, the one batch primitive for
//!   independent runs (index-keyed merge, bit-identical at any width).
//!
//! Each mode has one entry point, and each takes a
//! [`SessionObserver`](session::SessionObserver)
//! ([`SessionObserver::none`](session::SessionObserver::none) observes
//! nothing): [`tune_observed`](session::tune_observed),
//! `schedule::tune_with_schedule_observed`,
//! [`reconfigure::run_reconfig_session_observed`] and
//! [`run_resilient_session_observed`](resilient::run_resilient_session_observed).
//!
//! ## A complete tuning session
//!
//! ```
//! use orchestrator::session::{tune_observed, SessionConfig, SessionObserver};
//! use harmony::strategy::TuningMethod;
//! use cluster::config::Topology;
//! use tpcw::metrics::IntervalPlan;
//! use tpcw::mix::Workload;
//!
//! let cfg = SessionConfig::new(Topology::single(), Workload::Shopping, 200)
//!     .plan(IntervalPlan::tiny());
//! let run = tune_observed(&cfg, TuningMethod::Default, 5, &mut SessionObserver::none())
//!     .expect("session");
//! assert_eq!(run.records.len(), 5);
//! assert!(run.best_wips > 0.0);
//! ```

// Session code must surface failures as `SessionError`, never panic;
// test modules (cfg(test)) are exempt. CI enforces this with a clippy
// step dedicated to this crate.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod binding;
pub mod checkpoint;
pub mod eval;
pub mod experiments;
pub mod export;
pub mod par;
pub mod reconfigure;
pub mod report;
pub mod resilient;
pub(crate) mod schedule;
pub mod session;

pub use checkpoint::CheckpointPolicy;
pub use eval::EvalSettings;
