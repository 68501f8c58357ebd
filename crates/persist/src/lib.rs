//! # persist — crash-safe session persistence
//!
//! Long tuning sessions must survive the tuner process dying mid-run:
//! the paper's Fig. 4/5 curves take hundreds of measured iterations, and
//! losing the simplex state to a crash means rerunning the whole
//! workload. This crate provides the durability layer:
//!
//! * [`state::State`] — a small self-describing value tree (null, bool,
//!   integers, exact-bit floats, strings, lists, maps) with a compact
//!   binary codec. Everything that is checkpointed round-trips through
//!   `State`, so snapshot and journal payloads share one format.
//! * [`Checkpointable`] — the trait session components implement to
//!   export and restore their state as a `State` value.
//! * [`journal::Journal`] — an append-only write-ahead log of
//!   length-prefixed, CRC-32-checksummed frames. Reading tolerates a
//!   torn or truncated tail (the crash case) by stopping at the first
//!   bad frame.
//! * [`snapshot`] — whole-state snapshot files written atomically
//!   (temp file + fsync + rename) and verified by checksum on load. A
//!   snapshot is encoded from a `State` tree or assembled field by field
//!   from bytes encoded earlier, which it shares rather than copies; the
//!   file is the same either way.
//! * [`store::CheckpointStore`] — the on-disk layout tying both
//!   together: periodic snapshots plus a journal of per-iteration
//!   deltas. Snapshots are sealed and written on a writer thread, one
//!   at a time. Recovery loads the newest intact snapshot (quarantining
//!   corrupt ones rather than panicking) and replays the journal tail.
//!
//! The crate is deliberately dependency-free and knows nothing about
//! tuning: callers define what their `State` trees mean.

// Persistence code must surface failures as `PersistError`, never
// panic; test modules are exempt. CI enforces this with a clippy step.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod crc;
pub mod frame;
pub mod journal;
pub mod snapshot;
pub mod state;
pub mod store;

pub use journal::{Journal, JournalScan};
pub use state::State;
pub use store::{CheckpointStore, Recovery};

use std::fmt;

/// Why a persistence operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// Stored bytes fail checksum or structural validation.
    Corrupt(String),
    /// The bytes decode but do not match the expected state shape.
    Schema(String),
    /// The component does not support checkpointing.
    Unsupported(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt checkpoint data: {msg}"),
            PersistError::Schema(msg) => write!(f, "checkpoint schema mismatch: {msg}"),
            PersistError::Unsupported(what) => {
                write!(f, "component does not support checkpointing: {what}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A component whose live state can be exported to a [`State`] value and
/// later restored from one, reproducing the original behaviour exactly
/// (same proposals, same RNG draws, same decisions).
pub trait Checkpointable {
    /// Export the current state.
    fn save_state(&self) -> State;

    /// Restore from a previously saved state. Implementations must
    /// validate the shape and return [`PersistError::Schema`] on
    /// mismatch rather than panicking.
    fn restore_state(&mut self, state: &State) -> Result<(), PersistError>;
}
