//! # resilience — composable, deterministic fault-handling policies
//!
//! The recovery machinery a tuning session wraps around each fallible
//! evaluation, factored into middleware-style layers over a closure:
//!
//! * `policy::Policy` — one layer: it receives the evaluation context
//!   and a `next` continuation, and may short-circuit, retry, or rewrite
//!   the [`policy::Outcome`] flowing back up;
//! * [`policy::Stack`] — an explicit composition of layers (outermost
//!   first) plus the session's `clock::PolicyClock` and the ordered
//!   [`policy::Event`] log of everything the layers did;
//! * [`retry::Retry`] — bounded attempts with [`retry::Backoff`] and
//!   seeded [`retry::Jitter`] (all delays are simulated time);
//! * [`timeout::Timeout`] — a per-attempt budget measured against the
//!   injectable simulated clock — no wall clock anywhere;
//! * [`breaker::CircuitBreaker`] — closed → open → half-open → closed
//!   per configuration key, with an optional probe-after-skips recovery;
//! * [`bulkhead::Bulkhead`] — caps concurrent in-flight evaluations and
//!   clamps the worker-thread count of parallel fan-outs;
//! * [`fallback::Fallback`] — graceful degradation: when every inner
//!   layer gives up, substitute the best sample seen so far instead of
//!   failing the iteration.
//!
//! Everything is deterministic (jitter draws from a caller-seeded
//! [`simkit::rng::SimRng`]) and checkpointable: each layer round-trips
//! its mutable state through [`persist::State`] bit-exactly, so a killed
//! session resumes mid-policy without re-burning RNG draws.
//!
//! This crate is the *acting* half of the robustness story: its layers
//! decide what to do about failures. The *sensing* half — deciding a
//! node has failed at all, from heartbeat observations rather than the
//! fault injector's oracle — lives in the `detect` crate (φ-accrual
//! suspicion + hysteretic membership; DESIGN.md §5i), whose confirmed
//! `Down` transitions gate the session's reconfiguration path.

// Policies run inside long sessions: failures must surface as typed
// errors or degraded outcomes, never panics. Test modules are exempt;
// CI enforces this with a dedicated clippy step.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub(crate) mod breaker;
pub(crate) mod bulkhead;
pub(crate) mod clock;
pub(crate) mod fallback;
pub(crate) mod outlier;
pub(crate) mod policy;
pub(crate) mod retry;
pub(crate) mod timeout;

pub use breaker::{Breaker, CircuitBreaker};
pub use bulkhead::Bulkhead;
pub use fallback::{Fallback, StateCodec};
pub use outlier::OutlierGate;
pub use policy::{Ctx, Event, Outcome, Sample, Stack};
pub use retry::{Backoff, Jitter, Retry, RetryPolicy};
pub use timeout::Timeout;
