//! # faults — deterministic fault injection
//!
//! A seedable, simulated-time fault model for the cluster testbed. The
//! paper's reconfiguration algorithm (Fig. 7) exists because real tiers
//! degrade and crash; this crate supplies the degradation:
//!
//! * [`plan::FaultPlan`] — a declarative schedule of [`plan::FaultEvent`]s
//!   (crash, restart, CPU/disk slowdown, NIC degradation, measurement-noise
//!   spike) at absolute simulated timestamps, loadable from a small JSON
//!   dialect with no external dependencies;
//! * [`health::Health`] — the per-node state machine (`Up` / `Degraded` /
//!   `Down`) the cluster consults when routing and when computing service
//!   times;
//! * [`clock::FaultClock`] — maps tuning iterations onto the session-wide
//!   fault timeline;
//! * [`inject::FaultInjector`] — a stateless, replayable projection of a
//!   plan onto any `[start, end)` measurement window, yielding the initial
//!   node healths, in-window transitions, the noise factor, and the
//!   stalled seconds a timeout budget must absorb;
//! * [`library`] — named chaos plans (crash storms, stall bursts, …) for
//!   the resilience conformance suite.
//!
//! Everything is a pure function of `(plan, seed, time)`: the same plan and
//! seed replay the same faults, byte for byte, which the determinism tests
//! rely on.

// Fault plans are user input: parsing and validation must return typed
// `PlanError`s, never panic. Test modules are exempt; CI enforces this
// with a dedicated clippy step.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod clock;
pub(crate) mod health;
pub(crate) mod inject;
mod json;
pub mod library;
pub(crate) mod plan;

pub use clock::FaultClock;
pub use health::{Health, Slowdown};
pub use inject::{FaultInjector, HealthChange, HealthTimeline, WindowFaults};
pub use library::ChaosPlan;
pub use plan::{FaultEvent, FaultKind, FaultPlan};
