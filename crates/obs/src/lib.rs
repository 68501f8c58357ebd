//! Zero-dependency observability layer.
//!
//! Two halves, deliberately decoupled:
//!
//! * **Metrics** — a [`Registry`] of named `Counter`s, `Gauge`s and
//!   log-bucketed `Histogram`s. Handles are `Arc`-backed and lock-free
//!   on the hot path (one atomic op per update); the registry mutex is
//!   touched only at registration and snapshot time. Snapshots are plain
//!   data and mergeable, so per-thread or per-replication registries can
//!   be combined after a parallel run.
//!
//! * **Traces** — append-only streams of [`TraceRecord`]s (a record kind
//!   plus ordered key/value fields) written through the [`TraceSink`]
//!   trait. [`JsonlWriter`] emits one JSON object per line, [`CsvWriter`]
//!   a header + rows, [`MemorySink`] collects records for tests, and
//!   [`NullSink`] discards everything at zero cost. [`Span`] wraps a
//!   record with a wall-clock duration.
//!
//! Everything here is `std`-only: no serde, no external crates.

// Library code must surface failures as typed errors, never panic;
// test modules (cfg(test)) are exempt. CI enforces this with a clippy
// step dedicated to these crates.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod hist;
mod metrics;
mod span;
mod trace;
mod value;

pub use metrics::Registry;
pub use span::Span;
pub use trace::{CsvWriter, JsonlWriter, MemorySink, NullSink, TraceRecord, TraceSink};
pub use value::Value;
