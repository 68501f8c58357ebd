//! Ablation: the Nelder–Mead simplex kernel vs baseline tuners.
//!
//! The paper uses the simplex without comparison; this ablation shows what
//! it buys over uniform random search and cyclic coordinate descent on the
//! real 23-parameter tuning problem (browsing workload, single work line).

use bench::args;
use cluster::config::Topology;
use harmony::annealing::SimulatedAnnealing;
use harmony::baseline::{CoordinateDescent, RandomSearch};
use harmony::server::HarmonyServer;
use harmony::simplex::SimplexTuner;
use harmony::tuner::Tuner;
use orchestrator::binding;
use orchestrator::experiments::population_for;
use orchestrator::par::shared_pool;
use orchestrator::report::{fmt_f, fmt_pct, TextTable};
use orchestrator::session::SessionConfig;
use tpcw::mix::Workload;

fn make_tuner(name: &str, seed: u64) -> Box<dyn Tuner + Send> {
    let space = binding::full_space(&Topology::single());
    match name {
        "simplex" => Box::new(SimplexTuner::new(space)),
        "simplex-conservative" => Box::new(SimplexTuner::new(space).conservative(true)),
        "random" => Box::new(RandomSearch::new(space, seed)),
        "coordinate" => Box::new(CoordinateDescent::new(space)),
        "annealing" => Box::new(SimulatedAnnealing::new(space, seed)),
        _ => unreachable!(),
    }
}

fn main() {
    let opts = args::parse();
    println!(
        "== Ablation: tuning algorithms on the 23-parameter browsing problem \
         (effort: {}, seed: {}) ==\n",
        opts.effort_name, opts.seed
    );
    let workload = Workload::Browsing;
    let base = SessionConfig::new(
        Topology::single(),
        workload,
        population_for(workload, &opts.effort),
    )
    .plan(opts.effort.plan)
    .base_seed(opts.seed);
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
        let mut server = HarmonyServer::new(name, make_tuner(name, seed));
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
