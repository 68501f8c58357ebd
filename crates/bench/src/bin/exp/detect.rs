//! EXP-DETECT: the φ-accrual failure detector scored against injector
//! ground truth, plus an oracle-vs-detector recovery comparison.
//!
//! Sweeps the φ threshold over every chaos-library plan (and a clean
//! control) in detector-gated resilient sessions. Per cell: true/false
//! `Down` confirmations, mean crash→confirmation latency, and hard
//! crashes missed inside the detection horizon. Then the crash-storm
//! plan runs once oracle-gated and once detector-gated on the same
//! seeds to price detection in recovery iterations.
//!
//! Exits non-zero if, at the default threshold, any hard crash goes
//! undetected, the clean plan false-positives, or detector-gated
//! recovery costs more than one extra iteration over the oracle.

use bench::args::Options;
use orchestrator::experiments::detect;
use orchestrator::report::{fmt_f, TextTable};

pub fn run(opts: &Options) {
    let result = crate::or_exit(detect::run(&opts.effort, opts.seed));
    println!(
        "Swept {} phi thresholds x {} plans ({} iterations each; detection horizon {}s).\n",
        result.thresholds.len(),
        result.plans.len(),
        opts.effort.iterations,
        detect::DETECTION_HORIZON_S
    );

    let mut table = TextTable::new([
        "Phi",
        "Plan",
        "TruePos",
        "FalsePos",
        "Missed",
        "Latency (s)",
        "Reconfigs",
        "Best WIPS",
    ]);
    for c in &result.cells {
        table.row([
            fmt_f(c.phi_threshold, 1),
            c.plan.to_string(),
            c.true_positives.to_string(),
            c.false_positives.to_string(),
            c.missed_crashes.to_string(),
            if c.mean_latency_s >= 0.0 {
                fmt_f(c.mean_latency_s, 2)
            } else {
                "-".to_string()
            },
            c.reconfigs.to_string(),
            fmt_f(c.best_wips, 1),
        ]);
    }
    println!("{}", table.render());

    let cmp = &result.comparison;
    let show = |r: Option<u32>| match r {
        Some(i) => format!("{i} iter"),
        None => "never".to_string(),
    };
    println!("Crash-storm recovery (50% of pre-crash best, same seeds):");
    println!(
        "  oracle-gated:   recovered in {:>8}, best WIPS {}, {} reconfig(s)",
        show(cmp.oracle_recovery),
        fmt_f(cmp.oracle_best_wips, 1),
        cmp.oracle_reconfigs
    );
    println!(
        "  detector-gated: recovered in {:>8}, best WIPS {}, {} reconfig(s)\n",
        show(cmp.detector_recovery),
        fmt_f(cmp.detector_best_wips, 1),
        cmp.detector_reconfigs
    );

    opts.maybe_write_csv("exp_detect.csv", &result.to_csv());

    let mut failures = 0;
    for c in result.default_cells() {
        if c.missed_crashes > 0 {
            failures += 1;
            eprintln!(
                "MISSED CRASH at default threshold: plan {} left {} hard crash(es) undetected",
                c.plan, c.missed_crashes
            );
        }
        if c.plan == "clean" && c.false_positives > 0 {
            failures += 1;
            eprintln!(
                "FALSE POSITIVE at default threshold: clean plan confirmed {} node(s) Down",
                c.false_positives
            );
        }
    }
    let extra = cmp.detector_extra_iterations();
    if extra > 1 {
        failures += 1;
        eprintln!("RECOVERY GAP: detector-gated recovery cost {extra} extra iteration(s) (> 1)");
    }
    if failures > 0 {
        eprintln!("{failures} detector gate(s) failed");
        std::process::exit(1);
    }
    println!(
        "Detector conformant at the default threshold: no missed hard crashes, \
         clean plan quiet, recovery within {extra} extra iteration(s) of the oracle."
    );
}
