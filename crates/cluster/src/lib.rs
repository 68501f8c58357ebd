//! # cluster — the simulated three-tier web cluster
//!
//! The testbed substrate of the HPDC'04 reproduction: a discrete-event
//! model of the paper's Squid → Tomcat → MySQL pipeline with every Table 3
//! tunable wired to a performance mechanism:
//!
//! * `proxy` — LRU memory + disk stores, admission by object size,
//!   bucket-chain lookup cost;
//! * `appserver` — HTTP/AJP thread pools with accept backlogs, buffer
//!   chunking, thread-spawn and scheduling overheads;
//! * `database` — connection and run-slot semaphores, table cache, join
//!   and network buffers, binlog spill;
//! * [`memory`] — per-node memory accounting with a swap-pressure
//!   slowdown (why extreme configurations hurt);
//! * [`model`]/[`runner`] — the request pipeline as a [`simkit`] model and
//!   the per-iteration evaluator the tuner calls.
//!
//! Hardware is Table 2's (dual-CPU, 1 GB, 100 Mbps) via [`spec::NodeSpec`].
//!
//! ## One measurement iteration
//!
//! ```
//! use cluster::{ClusterScenario, run_iteration};
//! use tpcw::metrics::IntervalPlan;
//! use tpcw::mix::Workload;
//!
//! let scenario = ClusterScenario::single(
//!     Workload::Shopping, // TPC-W mix
//!     300,                // emulated browsers
//!     IntervalPlan::tiny(),
//!     42,                 // seed
//! );
//! let outcome = run_iteration(&scenario);
//! assert!(outcome.metrics.wips > 0.0);
//! assert_eq!(outcome.node_utilization.len(), 3); // proxy, app, db
//! ```

// Library code must surface failures as typed errors, never panic;
// test modules (cfg(test)) are exempt. CI enforces this with a clippy
// step dedicated to these crates.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod appserver;
pub mod cache;
pub mod config;
pub(crate) mod database;
pub mod memory;
pub mod model;
pub mod node;
pub mod object;
pub mod params;
pub mod pricing;
pub(crate) mod proxy;
pub(crate) mod request;
pub mod runner;
pub mod spec;

pub use config::{ClusterConfig, Topology};
pub use faults::{Health, HealthChange, HealthTimeline};
pub use model::ClusterScenario;
pub use runner::run_iteration;
