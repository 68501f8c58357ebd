//! # detect — deterministic failure detection for the simulated cluster
//!
//! The sensing layer the reconfiguration loop was missing: until now the
//! resilient session asked the fault injector *directly* which nodes were
//! down — an oracle no real middleware has. This crate replaces that with
//! an observation-driven pipeline, entirely on the simulated clock:
//!
//! ```text
//!   FaultInjector ──▶ heartbeat arrivals ──▶ φ-accrual ──▶ membership ──▶ decide()
//!   (ground truth)    (monitor: crashes     (suspicion     (Up/Suspect/    (§IV Fig. 7,
//!                      stop beats, stalls    per node)      Down w/         gated on a
//!                      defer them, load                     hysteresis +    confirmed
//!                      jitters them)                        flap damping)   Down)
//! ```
//!
//! * `monitor` — derives per-node heartbeat arrival times as a pure
//!   function of `(plan, seed, window)`: a crashed node stops beating, a
//!   stalled node's beats are deferred to the stall's end, slowdowns and
//!   noise spikes jitter delivery latency;
//! * [`phi::PhiAccrual`] — the Hayashibara φ-accrual estimator over a
//!   sliding window of inter-arrival intervals: φ grows continuously and
//!   monotonically with silence instead of flipping a binary timeout;
//! * [`membership::MembershipView`] — maps suspicion to `Up` / `Suspect`
//!   / `Down` with a confirmation streak (hysteresis) and bounded flap
//!   damping, so one jittery beat cannot trigger a reconfiguration;
//! * [`detector::Detector`] — ties the three together per measurement
//!   window and reports transitions, peak suspicion, and beat counts.
//!
//! Everything is deterministic (jitter draws are keyed by `(seed, node,
//! beat)`) and checkpointable: every piece of mutable state round-trips
//! through [`persist::State`] bit-exactly, so a killed session resumes
//! mid-suspicion without re-burning a draw or losing a streak.
//!
//! Because the detector sees only arrivals — never [`faults::Health`] —
//! false positives (a long stall confirmed `Down`) and detection latency
//! (windows elapsing before confirmation) are real, measurable behaviors
//! rather than modeling artifacts.

// The detector runs inside long sessions: malformed state must surface as
// typed errors, never panics. Test modules are exempt; CI enforces this
// with a dedicated clippy step.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod detector;
pub(crate) mod membership;
pub(crate) mod monitor;
pub(crate) mod phi;

pub use detector::{Detector, DetectorConfig, WindowReport};
pub use membership::{MembershipView, NodeState};
pub use phi::PhiAccrual;
