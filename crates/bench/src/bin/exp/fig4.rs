//! Figure 4 (EXP-F4): applying each workload's best configuration to the
//! other workloads — no universal configuration exists.

use bench::args::Options;
use bench::tuned;
use obs::{TraceRecord, TraceSink};
use orchestrator::experiments::fig4;
use orchestrator::report::{fmt_f, fmt_pct, TextTable};
use tpcw::mix::Workload;

pub fn run(opts: &Options) {
    println!(
        "Tuning all three workloads ({} iterations each)...",
        opts.effort.iterations
    );
    let (summaries, configs) = tuned::tune_all_workloads(&opts.effort, opts.seed);
    for s in &summaries {
        println!(
            "  {:9} tuned: best {:.1} WIPS ({} vs default {:.1})",
            s.workload.name(),
            s.best_wips,
            fmt_pct(s.best_improvement),
            s.default_wips
        );
    }
    println!("\nEvaluating the 3x3 matrix (plus defaults)...\n");
    let r = fig4::run_with_configs(&configs, &opts.effort, opts.seed);

    let mut table = TextTable::new(["Config \\ Workload", "Browsing", "Shopping", "Ordering"]);
    for (c, w) in Workload::ALL.iter().enumerate() {
        table.row([
            format!("best-for-{}", w.name()),
            fmt_f(r.wips[c][0], 1),
            fmt_f(r.wips[c][1], 1),
            fmt_f(r.wips[c][2], 1),
        ]);
    }
    table.row([
        "default".to_string(),
        fmt_f(r.default_wips[0], 1),
        fmt_f(r.default_wips[1], 1),
        fmt_f(r.default_wips[2], 1),
    ]);
    println!("{}", table.render());

    if let Some(mut sink) = opts.maybe_trace_sink() {
        for (c, cw) in Workload::ALL.iter().enumerate() {
            for (w, ww) in Workload::ALL.iter().enumerate() {
                let rec = TraceRecord::new("fig4_cell")
                    .field("config", format!("best-for-{}", cw.name()))
                    .field("workload", ww.name())
                    .field("wips", r.wips[c][w])
                    .field("default_wips", r.default_wips[w]);
                sink.emit(&rec);
            }
        }
        sink.flush();
    }

    let mut imp = TextTable::new(["", "Browsing", "Shopping", "Ordering"]);
    imp.row([
        "Improvement vs default".to_string(),
        fmt_pct(r.improvement[0]),
        fmt_pct(r.improvement[1]),
        fmt_pct(r.improvement[2]),
    ]);
    println!("{}", imp.render());

    println!(
        "Diagonal dominates its column (paper's claim): {}",
        if r.diagonal_dominates() {
            "YES"
        } else {
            "no — see EXPERIMENTS.md for noise discussion"
        }
    );
    println!("Paper improvements: Browsing 15%, Shopping 16%, Ordering 5%.");

    // Table 3 falls out of the same tuning runs — print it too.
    println!("\n== Table 3: tuned parameters (same runs) ==\n");
    super::table3::print(&configs, "Directional claims:");
}
