//! Parameter sensitivity (the paper's "identify the parameters that
//! actually affect system performance" claim, §III.A).

use bench::args::Options;
use orchestrator::experiments::sensitivity;
use orchestrator::par::shared_pool;
use orchestrator::report::{fmt_f, TextTable};
use tpcw::mix::Workload;

pub fn run(opts: &Options) {
    let workloads = vec![Workload::Browsing, Workload::Ordering];
    let (effort, seed) = (opts.effort, opts.seed);
    let results =
        shared_pool().run_batch(workloads, 0, move |&w| sensitivity::run(w, &effort, seed));

    for r in &results {
        println!(
            "{} (default {:.1} WIPS) — top 8 / bottom 4 parameters by impact:",
            r.workload, r.default_wips
        );
        let mut table = TextTable::new(["Parameter", "WIPS @ min", "WIPS @ max", "Impact"]);
        for e in r.entries.iter().take(8) {
            table.row([
                e.name.clone(),
                fmt_f(e.at_min, 1),
                fmt_f(e.at_max, 1),
                format!("{:.1}%", e.impact * 100.0),
            ]);
        }
        table.row([
            "...".to_string(),
            String::new(),
            String::new(),
            String::new(),
        ]);
        for e in r.entries.iter().rev().take(4).rev() {
            table.row([
                e.name.clone(),
                fmt_f(e.at_min, 1),
                fmt_f(e.at_max, 1),
                format!("{:.1}%", e.impact * 100.0),
            ]);
        }
        println!("{}", table.render());
    }
    println!("Paper's reading: thread counts and buffer sizes matter; the proxy's");
    println!("cache_swap_low/cache_swap_high thresholds do not.");
}
