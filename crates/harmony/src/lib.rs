//! # harmony — the Active Harmony automated tuning system
//!
//! The paper's primary contribution, reimplemented: a tuning
//! infrastructure that iteratively changes an application's tunable
//! parameters based on observed performance.
//!
//! * [`param`]/[`space`] — bounded integer parameter spaces;
//! * [`simplex`] — the Nelder–Mead kernel, adapted to discrete bounded
//!   spaces (nearest-integer projection, restarts, optional conservative
//!   stepping);
//! * [`baseline`] — random-search and coordinate-descent comparators;
//! * [`bestconfig`]/[`classytune`]/[`tuna`] — the tuner zoo: BestConfig's
//!   divide-and-diverge sampling, ClassyTune's comparison-based
//!   classification, and TUNA's noise-robust replicated confirmation;
//! * [`registry`] — constructor-by-name lookup backing the `--tuner` flag;
//! * [`tuner`]/[`server`] — the ask–tell protocol and the tuning server
//!   (the per-iteration trace is the caller's: the orchestrator's
//!   iteration records);
//! * [`strategy`]/[`workline`] — the §III.B cluster-scaling methods
//!   (parameter duplication and work-line partitioning);
//! * [`monitor`]/[`reconfig`] — the §IV automatic cluster reconfiguration
//!   algorithm (thresholds, urgency, cost model).
//!
//! Tuning state is crash-safe: [`SimplexTuner`] and
//! [`HarmonyServer`](server::HarmonyServer) implement the `persist`
//! crate's `Checkpointable` trait, exporting their full search state
//! (simplex geometry, phase, pending proposals, best-seen records) so an
//! interrupted session resumes byte-identically.
//! The server keeps no per-iteration log of its own, so its part of a
//! snapshot does not grow with the session.
//!
//! This crate is application-agnostic: nothing here knows about web
//! clusters. The orchestrator crate wires it to the simulated testbed.
//!
//! ## Tuning in five lines
//!
//! ```
//! use harmony::{ParamDef, ParamSpace, SimplexTuner, Tuner};
//!
//! let space = ParamSpace::new(vec![
//!     ParamDef::new("threads", 1, 256, 20),
//!     ParamDef::new("cache_mb", 1, 64, 8),
//! ]);
//! let mut tuner = SimplexTuner::new(space);
//! for _ in 0..40 {
//!     let config = tuner.propose();
//!     // Apply `config` to the system, measure performance...
//!     let perf = -((config.get(0) - 96).abs() + (config.get(1) - 24).abs()) as f64;
//!     tuner.observe(perf);
//! }
//! let (best, _) = tuner.best().unwrap();
//! assert!((best.get(0) - 96).abs() < 60);
//! ```

// Tuning code must surface failures through return values, never
// unwrap/expect in library paths; protocol-misuse asserts (e.g. a
// propose() without its observe()) remain as explicit panics. Test
// modules are exempt. CI enforces this with a dedicated clippy step.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod annealing;
pub mod baseline;
pub mod bestconfig;
pub mod classytune;
pub mod monitor;
pub mod param;
pub mod reconfig;
pub mod registry;
pub mod revalidate;
pub mod server;
pub mod simplex;
pub mod space;
pub mod strategy;
pub mod tuna;
pub mod tuner;
pub mod workline;

pub use param::ParamDef;
pub use simplex::SimplexTuner;
pub use space::ParamSpace;
pub use tuner::Tuner;
