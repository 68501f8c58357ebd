//! Shared helpers for the table/figure regeneration binaries and the
//! benchmark targets. Each binary in `src/bin/` regenerates one paper
//! artifact; see EXPERIMENTS.md for the index.
//!
//! Library code must not panic: `unwrap`/`expect` are denied outside
//! tests (the binaries report errors and exit instead).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod args;
pub mod harness;
pub mod scale;
pub mod smoke;
pub mod tuned;
pub mod util;
