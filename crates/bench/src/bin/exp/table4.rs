//! Table 4 (EXP-T4): performance of the cluster tuning methods.

use bench::args::Options;
use harmony::strategy::TuningMethod;
use orchestrator::experiments::table4::{self, Table4Result};
use orchestrator::report::{fmt_f, fmt_pct, TextTable};

pub fn run(opts: &Options) {
    let methods = table4::paper_methods();
    let r = table4::run(&methods, &opts.effort, opts.seed);

    print(
        &r,
        ["Tuning method", "WIPS", "Std dev", "Improvement", "Iterations"],
    );
    println!("Paper shape: all methods reach similar best WIPS (~18-21% over untuned);");
    println!("duplication converges far fastest (33 vs 159 iterations); partitioning is");
    println!("the most stable (std 9.7 vs 30 for the default method).");
}

/// Print the untuned baseline and each method's row of `r` under
/// `header`; the hybrid ablation prints its runs the same way.
pub fn print(r: &Table4Result, header: [&str; 5]) {
    let mut table = TextTable::new(header);
    table.row([
        TuningMethod::None.label().to_string(),
        fmt_f(r.baseline_wips, 1),
        fmt_f(r.baseline_std, 1),
        "-".to_string(),
        "-".to_string(),
    ]);
    for row in &r.rows {
        table.row([
            row.method.label().to_string(),
            fmt_f(row.best_wips, 1),
            fmt_f(row.stability_std, 1),
            fmt_pct(row.improvement),
            row.iterations_to_converge.to_string(),
        ]);
    }
    println!("{}", table.render());
}
