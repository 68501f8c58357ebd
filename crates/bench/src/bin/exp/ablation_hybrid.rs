//! Ablation: the paper's future-work hybrid tuning method.
//!
//! §III.B closes with "we plan to investigate the possibility to have the
//! hybrid tuning — using the parameter duplication method first, and then
//! using separate tuning server for each group for fine-granularity
//! tuning." This ablation runs it next to its two ingredients on the
//! Table 4 cluster.

use bench::args::Options;
use harmony::strategy::TuningMethod;
use orchestrator::experiments::table4;

pub fn run(opts: &Options) {
    let methods = vec![
        TuningMethod::Duplication,
        TuningMethod::Partitioning,
        TuningMethod::Hybrid,
    ];
    let r = table4::run(&methods, &opts.effort, opts.seed);

    super::table4::print(
        &r,
        [
            "Method",
            "WIPS",
            "Std dev (2nd half)",
            "Improvement",
            "Iterations to 99%",
        ],
    );
    println!("Expectation: hybrid inherits duplication's fast start and ends at or");
    println!("above the pure methods once the per-line servers fine-tune.");
}
