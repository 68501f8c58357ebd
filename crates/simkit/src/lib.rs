//! # simkit — deterministic discrete-event simulation engine
//!
//! The substrate underneath the HPDC'04 reproduction: a compact,
//! allocation-conscious discrete-event kernel with
//!
//! * integer-microsecond [`time::SimTime`] (bit-exact reproducibility),
//! * a FIFO-tie-breaking [`calendar::EventCalendar`],
//! * an event-scheduling [`engine::Simulation`] driver generic over a
//!   user-defined [`engine::Model`],
//! * from-scratch seeded PRNG streams ([`rng::SimRng`], xoshiro256** +
//!   SplitMix64) with the distributions the workload models need,
//! * passive queueing building blocks ([`queue::BoundedQueue`],
//!   [`resource::MultiServer`]), and
//! * single-pass statistics ([`stats`]).
//!
//! Nothing here knows about web clusters or tuning; it is a general DES
//! toolkit, tested independently.
//!
//! ## Quick example
//!
//! ```
//! use simkit::prelude::*;
//!
//! /// An M/M/1 queue driven to a horizon.
//! struct Mm1 {
//!     rng: SimRng,
//!     station: MultiServer<u64>,
//!     served: u64,
//! }
//!
//! enum Ev { Arrival, Departure }
//!
//! impl Model for Mm1 {
//!     type Event = Ev;
//!     fn handle(&mut self, sched: &mut Scheduler<Ev>, ev: Ev) {
//!         match ev {
//!             Ev::Arrival => {
//!                 let service = self.rng.exp_duration(SimDuration::from_millis(80));
//!                 if let Admission::Started = self.station.offer(sched.now(), 0, service) {
//!                     sched.after(service, Ev::Departure);
//!                 }
//!                 let next = self.rng.exp_duration(SimDuration::from_millis(100));
//!                 sched.after(next, Ev::Arrival);
//!             }
//!             Ev::Departure => {
//!                 self.served += 1;
//!                 if let Some(d) = self.station.complete(sched.now()) {
//!                     sched.after(d.demand, Ev::Departure);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let model = Mm1 {
//!     rng: SimRng::new(1),
//!     station: MultiServer::new(SimTime::ZERO, 1, None),
//!     served: 0,
//! };
//! let mut sim = Simulation::new(model);
//! sim.schedule_at(SimTime::ZERO, Ev::Arrival);
//! sim.run_until(SimTime::from_secs(60));
//! assert!(sim.model().served > 300);
//! ```

// Library code must surface failures as typed errors, never panic;
// test modules (cfg(test)) are exempt. CI enforces this with a clippy
// step dedicated to these crates.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod calendar;
pub mod calqueue;
pub mod ci;
pub mod engine;
pub mod hash;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

/// One-stop imports for model authors.
pub mod prelude {
    pub use crate::engine::{Model, Scheduler, Simulation};
    pub use crate::resource::{Admission, MultiServer};
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
}
