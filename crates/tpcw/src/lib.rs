//! # tpcw — the TPC-W transactional web benchmark model
//!
//! Everything the HPDC'04 paper takes from TPC-W: the fourteen
//! [`interaction::Interaction`]s, the three Table 1 workload
//! [`mix::Mix`]es, closed-loop [`browser`] emulation with exponential
//! think times, per-interaction resource [`demand`] profiles (our
//! calibration of what each page costs each tier), the catalogue
//! [`scale`], and WIPS [`metrics`] with warm-up/measure/cool-down
//! intervals.
//!
//! This crate knows nothing about the cluster or the tuner; it is the
//! workload side of the experiment only.
//!
//! ```
//! use tpcw::mix::Workload;
//! use tpcw::interaction::InteractionClass;
//! use simkit::rng::SimRng;
//!
//! // Table 1: the ordering mix is half Browse, half Order.
//! let mix = Workload::Ordering.mix();
//! assert_eq!(mix.class_percent(InteractionClass::Order), 50.0);
//!
//! // Sample interactions the way an emulated browser does.
//! let mut rng = SimRng::new(7);
//! let ix = mix.sample(&mut rng);
//! assert!(mix.percent(ix) > 0.0);
//! ```

// Library code must surface failures as typed errors, never panic;
// test modules (cfg(test)) are exempt. CI enforces this with a clippy
// step dedicated to these crates.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod browser;
pub mod cohort;
pub mod demand;
pub mod interaction;
pub mod metrics;
pub mod mix;
pub mod navigation;
pub mod scale;
