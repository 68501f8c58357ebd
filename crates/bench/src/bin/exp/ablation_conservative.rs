//! Ablation: conservative stepping (the paper's planned fix for extreme
//! parameter values).
//!
//! §III.A: "we plan to modify the kernel of the Active Harmony tuning
//! algorithm so it will avoid jumping to extreme values, but instead
//! slowly approach them only when performance gains warrant it." Our
//! simplex implements this as an option; this ablation measures its effect
//! on the browsing workload, where the paper observed the extreme-value
//! variance.

use bench::args::Options;
use harmony::server::HarmonyServer;
use harmony::simplex::SimplexTuner;
use orchestrator::binding;
use orchestrator::par::shared_pool;
use orchestrator::report::{fmt_f, fmt_pct, TextTable};

pub fn run(opts: &Options) {
    let base = super::ablation_tuners::browsing_session(opts);
    let (default_wips, _) = base.measure_default(opts.effort.reps);

    let iterations = opts.effort.iterations;
    let runs = shared_pool().run_batch(vec![false, true], 0, move |&conservative| {
        let space = binding::full_space(&base.topology);
        let tuner = SimplexTuner::new(space.clone()).conservative(conservative);
        let mut server = HarmonyServer::new(
            if conservative {
                "conservative"
            } else {
                "plain"
            },
            Box::new(tuner),
        );
        let mut series = Vec::new();
        let mut extremeness_sum = 0.0;
        for i in 0..iterations {
            let proposal = server.next_config();
            extremeness_sum += space.extremeness(&proposal);
            let config = binding::config_from_full(&base.topology, &proposal);
            let wips = base.evaluate(config, i).metrics.wips;
            server.report(wips);
            series.push(wips);
        }
        (conservative, series, extremeness_sum / iterations as f64)
    });

    let mut table = TextTable::new([
        "Kernel",
        "Best WIPS",
        "Improvement",
        "2nd-half std",
        "Worst iteration",
        "Mean extremeness",
    ]);
    for (conservative, series, extremeness) in &runs {
        let half = series.len() / 2;
        let second = &series[half..];
        let mean = second.iter().sum::<f64>() / second.len() as f64;
        let var = second.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / second.len() as f64;
        let best = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let worst = second.iter().cloned().fold(f64::INFINITY, f64::min);
        table.row([
            if *conservative {
                "conservative"
            } else {
                "plain simplex"
            }
            .to_string(),
            fmt_f(best, 1),
            fmt_pct(best / default_wips - 1.0),
            fmt_f(var.sqrt(), 1),
            fmt_f(worst, 1),
            format!("{:.1}%", extremeness * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!("Extremeness = share of proposed parameters sitting on a range boundary.");
    println!("Expectation: conservative stepping proposes fewer boundary values and");
    println!("avoids the deep worst-case iterations the paper attributed to them.");
}
