//! EXP-TUNERS: the tuner zoo — simplex vs BestConfig vs ClassyTune vs
//! TUNA across workloads, plus the noise duel.
//!
//! Prints the cross-tuner comparison (best WIPS, improvement over the
//! default configuration, iterations-to-best, clean and faulted
//! stability) and the noise duel: what each tuner *claims* its best
//! configuration achieves after tuning against 4× measurement-noise
//! spikes, vs a fault-free re-measurement of that configuration.

use bench::args::Options;
use orchestrator::experiments::tuners;
use orchestrator::report::{fmt_f, fmt_pct, TextTable};

pub fn run(opts: &Options) {
    println!(
        "Running {} tuners x {} workloads, clean + noise-faulted ({} iterations each)...\n",
        tuners::ZOO.len(),
        tuners::WORKLOADS.len(),
        opts.effort.iterations
    );
    let result = crate::or_exit(tuners::run(&opts.effort, opts.seed));

    let mut table = TextTable::new([
        "Tuner",
        "Workload",
        "Default",
        "Best WIPS",
        "Improvement",
        "Best @ iter",
        "2nd-half sd",
        "Faulted CV",
    ]);
    for c in &result.cells {
        table.row([
            c.tuner.to_string(),
            c.workload.to_string(),
            fmt_f(c.default_wips, 1),
            fmt_f(c.best_wips, 1),
            fmt_pct(c.improvement),
            c.iterations_to_best.to_string(),
            fmt_f(c.second_half_sd, 2),
            fmt_f(c.faulted_cv, 3),
        ]);
    }
    println!("{}", table.render());

    let mut csv = String::from(
        "tuner,workload,default_wips,best_wips,improvement,iterations_to_best,second_half_sd,faulted_cv\n",
    );
    for c in &result.cells {
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            c.tuner,
            c.workload,
            c.default_wips,
            c.best_wips,
            c.improvement,
            c.iterations_to_best,
            c.second_half_sd,
            c.faulted_cv
        ));
    }
    opts.maybe_write_csv("exp_tuners.csv", &csv);

    println!("Noise duel (Shopping, 4x spikes every 3rd window):");
    let mut duel = TextTable::new(["Tuner", "Claimed best", "Clean re-measure", "Overstatement"]);
    for n in &result.noise {
        duel.row([
            n.tuner.to_string(),
            fmt_f(n.reported_best, 1),
            fmt_f(n.clean_wips, 1),
            fmt_pct(n.regression),
        ]);
    }
    println!("{}", duel.render());

    let fooled = result.noise_for("simplex").map(|n| n.regression);
    let robust = result.noise_for("tuna").map(|n| n.regression);
    if let (Some(s), Some(t)) = (fooled, robust) {
        println!(
            "Expectation: the simplex keeps the spiked maximum it observed \
             ({} overstated), while TUNA's CI-weighted confirmation median \
             discards it ({}).",
            fmt_pct(s),
            fmt_pct(t)
        );
        if t >= s {
            eprintln!("UNEXPECTED: TUNA regressed at least as much as the simplex");
            std::process::exit(1);
        }
    }
}
