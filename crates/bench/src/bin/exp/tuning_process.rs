//! §III.A tuning-process experiment (EXP-TP-B / EXP-TP-O).
//!
//! Regenerates the browsing and ordering tuning curves and the paper's
//! summary claims: browsing — default config poor, ~78% of the second
//! 100 iterations beat it; ordering — default already good, ~85% beat it,
//! improvement limited.

use bench::args::Options;
use orchestrator::experiments::tuning_process;
use orchestrator::par::shared_pool;
use orchestrator::report::{fmt_f, fmt_pct, sparkline, TextTable};
use tpcw::mix::Workload;

pub fn run(opts: &Options) {
    let workloads = vec![Workload::Browsing, Workload::Ordering];
    let (effort, seed) = (opts.effort, opts.seed);
    let results = shared_pool().run_batch(workloads, 0, move |&w| {
        tuning_process::run(w, &effort, seed).0
    });

    let mut table = TextTable::new([
        "Workload",
        "Default WIPS",
        "Best WIPS",
        "Best impr.",
        "2nd-half mean",
        "2nd-half std",
        "% iters > default",
        "Converged @",
    ]);
    for r in &results {
        table.row([
            r.workload.name().to_string(),
            fmt_f(r.default_wips, 1),
            fmt_f(r.best_wips, 1),
            fmt_pct(r.best_improvement),
            fmt_f(r.second_half_mean, 1),
            fmt_f(r.second_half_std, 1),
            format!("{:.0}%", r.fraction_better_than_default * 100.0),
            r.convergence_iteration.to_string(),
        ]);
    }
    println!("{}", table.render());

    for r in &results {
        println!(
            "{:9} WIPS/iteration: {}",
            r.workload.name(),
            sparkline(&r.wips_series)
        );
        opts.maybe_write_csv(
            &format!("tuning_process_{}.csv", r.workload.name().to_lowercase()),
            &orchestrator::export::series_csv(&["wips"], std::slice::from_ref(&r.wips_series)),
        );
    }
    println!();
    println!("Paper shape: browsing default is poor (≈78% of 2nd-half iterations beat it,");
    println!("≈3% average gain); ordering default is good (≈85% beat it, ≤5% gain).");
}
