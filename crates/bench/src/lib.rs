//! Shared code of the `exp` binary and the benchmark targets.
//!
//! `exp <name>` (`src/bin/exp/`) runs one experiment: a table or figure
//! of the paper, an ablation, a study beyond the paper, or a tool that
//! writes `BENCH_*.json`. [`args`] is its one flag parser; `exp help`
//! lists the experiments and EXPERIMENTS.md indexes them.
//!
//! Library code must not panic: `unwrap`/`expect` are denied outside
//! tests (`exp` reports errors and exits instead).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod args;
pub mod harness;
pub mod scale;
pub mod smoke;
pub mod tuned;
