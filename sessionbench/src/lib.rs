//! End-to-end tuning-session benchmark with an outside-in per-layer
//! ledger. See [`profile`] for the workloads, metrics and checks, and
//! `README.md` for how to run it.

pub mod compare;
pub mod json;
pub mod profile;
mod replica;
pub mod stats;
