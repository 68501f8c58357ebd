//! EXP-CHAOS: the chaos conformance matrix — every registered tuner
//! against every plan in the chaos library, under the fully hardened
//! resilience policy stack (retry ∘ timeout ∘ breaker ∘ bulkhead with
//! graceful degradation).
//!
//! Prints one row per tuner × plan cell: throughput reached, how many
//! iterations stayed usable, and which policies fired. Every cell must
//! be conformant (finish or degrade — never panic, hang, or report a
//! non-finite throughput); a non-conformant cell fails the run.

use bench::args::Options;
use orchestrator::experiments::chaos;
use orchestrator::report::{fmt_f, TextTable};

pub fn run(opts: &Options) {
    let result = crate::or_exit(chaos::run(&opts.effort, opts.seed));
    println!(
        "Ran {} tuners x {} chaos plans ({} iterations each).\n",
        result.tuners.len(),
        result.plans.len(),
        opts.effort.iterations
    );

    let mut table = TextTable::new([
        "Tuner",
        "Chaos plan",
        "Best WIPS",
        "Mean WIPS",
        "Usable",
        "Retries",
        "Timeouts",
        "Trips",
        "Degraded",
        "Reconfigs",
    ]);
    let mut nonconformant = 0;
    for c in &result.cells {
        table.row([
            c.tuner.to_string(),
            c.plan.to_string(),
            fmt_f(c.best_wips, 1),
            fmt_f(c.mean_wips, 1),
            format!("{}/{}", c.ok_iterations, c.iterations),
            c.retries.to_string(),
            c.timeouts.to_string(),
            c.breaker_opens.to_string(),
            c.degraded.to_string(),
            c.reconfigs.to_string(),
        ]);
        if !c.conformant() {
            nonconformant += 1;
            eprintln!("NON-CONFORMANT: {c:?}");
        }
    }
    println!("{}", table.render());
    opts.maybe_write_csv("exp_chaos.csv", &result.to_csv());

    if nonconformant > 0 {
        eprintln!("{nonconformant} non-conformant cell(s)");
        std::process::exit(1);
    }
    println!(
        "All {} cells conformant: every tuner finished or degraded gracefully.",
        result.cells.len()
    );
}
