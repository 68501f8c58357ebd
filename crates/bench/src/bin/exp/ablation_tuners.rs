//! Ablation: the Nelder–Mead simplex kernel vs baseline tuners.
//!
//! The paper uses the simplex without comparison; this ablation shows what
//! it buys over uniform random search and cyclic coordinate descent on the
//! real 23-parameter tuning problem (browsing workload, single work line).

use bench::args::Options;
use cluster::config::Topology;
use harmony::registry::make_tuner;
use harmony::server::HarmonyServer;
use orchestrator::binding;
use orchestrator::experiments::population_for;
use orchestrator::par::shared_pool;
use orchestrator::report::{fmt_f, fmt_pct, TextTable};
use orchestrator::session::SessionConfig;
use tpcw::mix::Workload;

/// The session the simplex ablations tune: the browsing mix on one work
/// line, at `opts`' effort and seed.
pub fn browsing_session(opts: &Options) -> SessionConfig {
    let workload = Workload::Browsing;
    SessionConfig::new(
        Topology::single(),
        workload,
        population_for(workload, &opts.effort),
    )
    .plan(opts.effort.plan)
    .base_seed(opts.seed)
}

pub fn run(opts: &Options) {
    let base = browsing_session(opts);
    let (default_wips, _) = base.measure_default(opts.effort.reps);

    let names = vec![
        "simplex",
        "simplex-conservative",
        "coordinate",
        "annealing",
        "random",
    ];
    let (iterations, seed) = (opts.effort.iterations, opts.seed);
    let runs = shared_pool().run_batch(names, 0, move |&name| {
        let space = binding::full_space(&base.topology);
        let tuner = make_tuner(name, space, seed).expect("every name here is registered");
        let mut server = HarmonyServer::new(name, tuner);
        let mut best = f64::NEG_INFINITY;
        let mut best_iter = 0;
        let mut series = Vec::new();
        for i in 0..iterations {
            let proposal = server.next_config();
            let config = binding::config_from_full(&base.topology, &proposal);
            let wips = base.evaluate(config, i).metrics.wips;
            server.report(wips);
            if wips > best {
                best = wips;
                best_iter = i;
            }
            series.push(wips);
        }
        (name, best, best_iter, series)
    });

    let mut table = TextTable::new([
        "Algorithm",
        "Best WIPS",
        "Improvement",
        "Found @ iter",
        "Mean 2nd half",
    ]);
    table.row([
        "(default config)".to_string(),
        fmt_f(default_wips, 1),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    for (name, best, best_iter, series) in &runs {
        let half = series.len() / 2;
        let mean2: f64 = series[half..].iter().sum::<f64>() / (series.len() - half) as f64;
        table.row([
            name.to_string(),
            fmt_f(*best, 1),
            fmt_pct(best / default_wips - 1.0),
            best_iter.to_string(),
            fmt_f(mean2, 1),
        ]);
    }
    println!("{}", table.render());
    println!("Expectation: the simplex variants dominate random search and converge");
    println!("faster than coordinate descent; conservative stepping trades a little");
    println!("peak for steadier second-half performance.");
}
