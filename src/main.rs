//! `ah-webtune` — drive the reproduction from the command line.
//!
//! See `ah-webtune help` (or [`cli::USAGE`]) for the subcommands.

use ah_webtune::cli::{self, Command, SimArgs, SweepArgs, TuneArgs};
use cluster::config::ClusterConfig;
use cluster::pricing::PriceList;
use cluster::runner::run_iteration;
use obs::{JsonlWriter, Registry, TraceRecord, TraceSink};
use orchestrator::eval::run_raw;
use orchestrator::report::{fmt_f, fmt_pct, sparkline, TextTable};
use orchestrator::session::{tune_observed, SessionConfig, SessionObserver};

use std::fs::File;
use std::io::BufWriter;

fn main() {
    let cmd = match cli::parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    match cmd {
        Command::Help => print!("{}", cli::USAGE),
        Command::Simulate(sim) => simulate(&sim),
        Command::Tune(t) => run_tune(&t),
        Command::Reconfig(sim) => reconfig(&sim),
        Command::Sweep(s) => sweep(&s),
    }
}

/// Open the `--trace` sink, if requested. A resumed session appends so
/// the continued records land in the same stream as the interrupted
/// run. Exits on I/O errors: a trace the user asked for must not be
/// silently dropped.
fn open_trace(sim: &SimArgs) -> Option<JsonlWriter<BufWriter<File>>> {
    sim.trace.as_deref().map(|path| {
        let opened = if sim.resume {
            JsonlWriter::append(path)
        } else {
            JsonlWriter::create(path)
        };
        match opened {
            Ok(w) => w,
            Err(e) => {
                eprintln!("error: cannot open trace file '{path}': {e}");
                std::process::exit(2);
            }
        }
    })
}

/// Build the `--metrics` registry, if requested.
fn open_registry(sim: &SimArgs) -> Option<Registry> {
    sim.metrics.then(Registry::new)
}

fn print_metrics(registry: Option<&Registry>) {
    if let Some(r) = registry {
        println!("\nmetrics:\n{}", r.snapshot().render_text());
    }
}

fn session_of(sim: &SimArgs) -> SessionConfig {
    let mut cfg = SessionConfig::new(sim.topology.clone(), sim.workload, sim.population)
        .plan(sim.plan)
        .base_seed(sim.seed)
        .markov(sim.markov)
        .load_model(sim.load_model);
    if let Some(path) = sim.faults.as_deref() {
        match faults::FaultPlan::load(std::path::Path::new(path)) {
            Ok(plan) => cfg = cfg.fault_plan(plan),
            Err(e) => {
                eprintln!("error: cannot load fault plan '{path}': {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(seed) = sim.fault_seed {
        cfg = cfg.fault_seed(seed);
    }
    if let Some(dir) = sim.checkpoint_dir.as_deref() {
        let mut policy = orchestrator::CheckpointPolicy::new(dir).resume(sim.resume);
        if let Some(every) = sim.checkpoint_every {
            policy = policy.every(every);
        }
        cfg = cfg.checkpoint(policy);
    }
    // The CLI turns the eval cache on by default (identical results
    // either way; see the eval module's determinism argument). Its
    // sessions are unpinned, so the cache holds only prefetched trials
    // until they are measured. The library default stays off so
    // programmatic sessions opt in explicitly.
    cfg = cfg.eval_settings(
        orchestrator::EvalSettings::default()
            .cache(!sim.no_eval_cache)
            .threads(sim.eval_threads.unwrap_or(1)),
    );
    // Replication width shares the eval convention: 1 = sequential
    // (default), 0 = one worker per core; bit-identical either way.
    cfg = cfg.replication_threads(sim.replication_threads.unwrap_or(1));
    if let Err(e) = cfg.validate_faults() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    cfg
}

fn simulate(sim: &SimArgs) {
    let cfg = session_of(sim);
    let registry = open_registry(sim);
    let scenario = cfg.scenario(ClusterConfig::defaults(&sim.topology), 0);
    let out = run_raw(&scenario, registry.as_ref());
    if let Some(mut sink) = open_trace(sim) {
        let rec = TraceRecord::new("simulate")
            .field("workload", sim.workload.to_string())
            .field("topology", sim.topology.to_string())
            .field("population", sim.population)
            .field("seed", sim.seed)
            .field("wips", out.metrics.wips)
            .field("mean_response_ms", out.metrics.mean_response_secs * 1_000.0)
            .field("p90_response_ms", out.metrics.p90_response.as_millis_f64())
            .field("failed", out.total_failed)
            .field("events", out.events);
        sink.emit(&rec);
        sink.flush();
    }
    let prices = PriceList::hpdc04();
    println!(
        "{} workload on {} at {} browsers (seed {}):",
        sim.workload, sim.topology, sim.population, sim.seed
    );
    println!(
        "  {:.1} WIPS | mean response {:.0} ms | p90 {:.0} ms | {} refused",
        out.metrics.wips,
        out.metrics.mean_response_secs * 1_000.0,
        out.metrics.p90_response.as_millis_f64(),
        out.total_failed,
    );
    println!(
        "  system cost ${:.0} -> {:.2} $/WIPS",
        prices.system_cost(&sim.topology, 1),
        prices.dollars_per_wips(&sim.topology, 1, out.metrics.wips)
    );
    let mut table = TextTable::new(["Node", "Role", "CPU", "Disk", "Net", "Mem"]);
    for (i, u) in out.node_utilization.iter().enumerate() {
        table.row([
            i.to_string(),
            sim.topology.role(i).to_string(),
            fmt_f(u.cpu, 2),
            fmt_f(u.disk, 2),
            fmt_f(u.net, 2),
            fmt_f(u.mem, 2),
        ]);
    }
    println!("{}", table.render());
    print_metrics(registry.as_ref());
}

fn run_tune(t: &TuneArgs) {
    let mut cfg = session_of(&t.sim);
    if let Some(name) = t.tuner.as_deref() {
        cfg = cfg.tuner(name);
    }
    if t.detector || t.health_oracle {
        return run_tune_resilient(t, cfg);
    }
    let (default_wips, _) = cfg.measure_default(2);
    println!(
        "tuning {} on {} with \"{}\" ({} tuner), {} iterations (default {:.1} WIPS)...",
        t.sim.workload,
        t.sim.topology,
        t.method.label(),
        cfg.tuner,
        t.iterations,
        default_wips
    );
    let mut trace = open_trace(&t.sim);
    let registry = open_registry(&t.sim);
    let mut observer = SessionObserver::new(
        trace.as_mut().map(|s| s as &mut dyn TraceSink),
        registry.as_ref(),
    );
    let run = match tune_observed(&cfg, t.method, t.iterations, &mut observer) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!("WIPS: {}", sparkline(&run.wips_series()));
    println!(
        "best {:.1} WIPS ({}) first reached within 1% at iteration {}",
        run.best_wips,
        fmt_pct(run.best_wips / default_wips - 1.0),
        run.first_within(0.99),
    );
    if let Some(path) = t.sim.trace.as_deref() {
        if t.sim.resume {
            println!("trace: resumed, appending to {path}");
        } else {
            println!("trace: {} iterations -> {path}", run.records.len());
        }
    }
    print_metrics(registry.as_ref());
}

/// `tune --detector` / `tune --health-oracle`: a resilient session whose
/// crash reconfiguration is gated on detected membership (φ-accrual over
/// simulated heartbeats) or, with `--health-oracle`, on the injector's
/// ground-truth health — the historical behavior, kept as an explicit
/// baseline for comparison.
fn run_tune_resilient(t: &TuneArgs, cfg: SessionConfig) {
    use detect::DetectorConfig;
    use orchestrator::resilient::{run_resilient_session_observed, ResilienceSettings};

    let mut settings = ResilienceSettings::default();
    if t.detector {
        let mut dc = DetectorConfig::default();
        if let Some(w) = t.detector_window {
            dc.window = w;
        }
        if let Some(p) = t.phi_threshold {
            dc.phi_threshold = p;
        }
        settings.detector = Some(dc);
    }
    let gate = if t.detector {
        "phi-accrual detector"
    } else {
        "health oracle"
    };
    println!(
        "resilient tuning {} on {} ({} tuner, {} iterations), reconfiguration gated on the {}...",
        t.sim.workload, t.sim.topology, cfg.tuner, t.iterations, gate
    );
    let mut trace = open_trace(&t.sim);
    let registry = open_registry(&t.sim);
    let mut observer = SessionObserver::new(
        trace.as_mut().map(|s| s as &mut dyn TraceSink),
        registry.as_ref(),
    );
    let run = match run_resilient_session_observed(&cfg, &settings, t.iterations, &mut observer) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!("WIPS: {}", sparkline(&run.wips_series()));
    println!(
        "best {:.1} WIPS | {} recovery action(s) | {} reconfiguration(s)",
        run.best_wips,
        run.recoveries.len(),
        run.reconfigs.len()
    );
    if t.detector {
        let down = run.detections.iter().filter(|d| d.is_down()).count();
        match run.mean_detection_latency_s() {
            Some(lat) => println!(
                "detector: {} membership transition(s), {} Down confirmation(s) \
                 ({} false), mean detection latency {:.2}s",
                run.detections.len(),
                down,
                run.detection_false_positives(),
                lat
            ),
            None => println!(
                "detector: {} membership transition(s), {} Down confirmation(s) \
                 ({} false)",
                run.detections.len(),
                down,
                run.detection_false_positives()
            ),
        }
    }
    for r in &run.reconfigs {
        println!(
            "iteration {:3}: node {} pulled into the {} tier after a crash",
            r.iteration, r.node, r.to_tier
        );
    }
    print_metrics(registry.as_ref());
}

fn reconfig(sim: &SimArgs) {
    use orchestrator::reconfigure::{run_reconfig_session_observed, ReconfigSettings};
    let cfg = session_of(sim);
    let settings = ReconfigSettings {
        check_every: Some(10),
        ..Default::default()
    };
    let iterations = 60;
    println!(
        "tuning + reconfiguration on {} ({} iterations, checks every 10)...",
        sim.topology, iterations
    );
    let mut trace = open_trace(sim);
    let registry = open_registry(sim);
    let mut observer = SessionObserver::new(
        trace.as_mut().map(|s| s as &mut dyn TraceSink),
        registry.as_ref(),
    );
    let run = match run_reconfig_session_observed(
        &cfg,
        &settings,
        iterations,
        |_| sim.workload,
        &mut observer,
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!("WIPS: {}", sparkline(&run.wips_series()));
    if run.events.is_empty() {
        println!(
            "no reconfiguration needed; final layout {}",
            run.final_topology
        );
    }
    for e in &run.events {
        println!(
            "iteration {:3}: node {} moved {} -> {} ({})",
            e.iteration,
            e.node,
            e.from_tier,
            e.to_tier,
            if e.immediate { "immediate" } else { "drained" }
        );
    }
    println!("final layout: {}", run.final_topology);
    print_metrics(registry.as_ref());
}

fn sweep(s: &SweepArgs) {
    let prices = PriceList::hpdc04();
    println!(
        "population sweep, {} on {}:",
        s.sim.workload, s.sim.topology
    );
    let mut table = TextTable::new(["Browsers", "WIPS", "Resp (ms)", "Refused", "$/WIPS"]);
    let mut pop = s.from;
    while pop <= s.to {
        let mut sim = s.sim.clone();
        sim.population = pop;
        let cfg = session_of(&sim);
        let scenario = cfg.scenario(ClusterConfig::defaults(&sim.topology), 0);
        let out = run_iteration(&scenario);
        table.row([
            pop.to_string(),
            fmt_f(out.metrics.wips, 1),
            fmt_f(out.metrics.mean_response_secs * 1_000.0, 0),
            out.total_failed.to_string(),
            fmt_f(
                prices.dollars_per_wips(&sim.topology, 1, out.metrics.wips),
                2,
            ),
        ]);
        pop = pop.saturating_add(s.step);
    }
    println!("{}", table.render());
}
