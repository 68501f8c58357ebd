//! Ablation: the winner's curse in noisy tuning, and revalidation.
//!
//! The tuner's raw "best observed WIPS" is an optimistic statistic: over
//! hundreds of noisy iterations, the maximum includes luck. This ablation
//! wraps the simplex in [`harmony::revalidate::Revalidating`] (every 5th
//! iteration re-measures the incumbent) and compares the raw best against
//! the noise-corrected estimate and against a fresh-seed re-measurement.

use bench::args::Options;
use harmony::revalidate::Revalidating;
use harmony::simplex::SimplexTuner;
use harmony::tuner::Tuner;
use orchestrator::binding;
use orchestrator::report::{fmt_f, TextTable};

pub fn run(opts: &Options) {
    let base = super::ablation_tuners::browsing_session(opts);

    let space = binding::full_space(&base.topology);
    let mut tuner = Revalidating::new(SimplexTuner::new(space), 5);
    for i in 0..opts.effort.iterations {
        let proposal = tuner.propose();
        let config = binding::config_from_full(&base.topology, &proposal);
        let wips = base.evaluate(config, i).metrics.wips;
        tuner.observe(wips);
    }

    let (raw_config, raw_best) = {
        let (c, p) = tuner.best().expect("observed");
        (c.clone(), p)
    };
    let (val_config, val_mean, val_n) = tuner.validated_best().expect("validated");

    // Honest re-measurement of both configurations on fresh seeds
    // (disjoint from every seed the tuning run used).
    let check = base
        .clone()
        .base_seed(opts.seed.wrapping_add(0x00F5_E5ED_0000));
    let fresh = |cfg: &harmony::space::Configuration| -> f64 {
        let config = binding::config_from_full(&check.topology, cfg);
        let ci = check.measure_until_precise(&config, 0.02, opts.effort.reps.max(3));
        ci.mean
    };
    let raw_fresh = fresh(&raw_config);
    let val_fresh = fresh(&val_config);

    let mut table = TextTable::new(["Estimate", "WIPS", "Fresh-seed re-measurement"]);
    table.row([
        "raw best observation".to_string(),
        fmt_f(raw_best, 1),
        fmt_f(raw_fresh, 1),
    ]);
    table.row([
        format!("revalidated mean (n={val_n})"),
        fmt_f(val_mean, 1),
        fmt_f(val_fresh, 1),
    ]);
    println!("{}", table.render());
    println!(
        "Winner's-curse bias of the raw estimate: {:+.1} WIPS ({:+.1}%)",
        raw_best - raw_fresh,
        (raw_best / raw_fresh - 1.0) * 100.0
    );
    println!("The revalidated estimate should sit much closer to its re-measurement.");
}
