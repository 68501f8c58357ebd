//! Figure 7 (EXP-F7A / EXP-F7B): automatic cluster reconfiguration.

use bench::args::Options;
use obs::{TraceRecord, TraceSink};
use orchestrator::experiments::fig7::{self, Fig7Variant};
use orchestrator::par::shared_pool;
use orchestrator::report::{fmt_f, fmt_pct, sparkline, TextTable};

pub fn run(opts: &Options) {
    let variants = vec![Fig7Variant::ProxyToApp, Fig7Variant::AppToProxy];
    let (effort, seed) = (opts.effort, opts.seed);
    let results = shared_pool().run_batch(variants, 0, move |&v| fig7::run(v, &effort, seed));

    let mut table = TextTable::new([
        "Experiment",
        "Layout before",
        "Layout after",
        "Moved",
        "WIPS before",
        "WIPS after",
        "Improvement",
    ]);
    for r in &results {
        let name = match r.variant {
            Fig7Variant::ProxyToApp => "(a) browsing->ordering",
            Fig7Variant::AppToProxy => "(b) browsing",
        };
        let moved = match (r.from_tier, r.to_tier) {
            (Some(f), Some(t)) => format!("{f} -> {t} @ iter {}", r.reconfig_iteration.unwrap()),
            _ => "(no move)".to_string(),
        };
        table.row([
            name.to_string(),
            layout(r.initial_layout),
            layout(r.final_layout),
            moved,
            fmt_f(r.before_wips, 1),
            fmt_f(r.after_wips, 1),
            fmt_pct(r.improvement),
        ]);
    }
    println!("{}", table.render());

    for r in &results {
        let name = match r.variant {
            Fig7Variant::ProxyToApp => "(a)",
            Fig7Variant::AppToProxy => "(b)",
        };
        println!("{name} WIPS/iteration: {}", sparkline(&r.wips_series));
    }
    if let Some(mut sink) = opts.maybe_trace_sink() {
        for r in &results {
            let variant = match r.variant {
                Fig7Variant::ProxyToApp => "proxy_to_app",
                Fig7Variant::AppToProxy => "app_to_proxy",
            };
            let rec = TraceRecord::new("fig7_variant")
                .field("variant", variant)
                .field("layout_before", layout(r.initial_layout))
                .field("layout_after", layout(r.final_layout))
                .field(
                    "reconfig_iteration",
                    r.reconfig_iteration.map(f64::from).unwrap_or(-1.0),
                )
                .field("before_wips", r.before_wips)
                .field("after_wips", r.after_wips)
                .field("improvement", r.improvement)
                .field("wips_series", r.wips_series.clone());
            sink.emit(&rec);
        }
        sink.flush();
    }
    println!();
    println!("Paper shape: (a) one node moves proxy->app after the workload turns to");
    println!("ordering, throughput +62%; (b) one node moves app->proxy under browsing,");
    println!("throughput +70%. Gains combine the extra tier capacity with re-tuning.");
}

/// A layout as `(proxy, app, db)` node counts, e.g. `4p/2a/5d`.
fn layout((p, a, d): (usize, usize, usize)) -> String {
    format!("{p}p/{a}a/{d}d")
}
