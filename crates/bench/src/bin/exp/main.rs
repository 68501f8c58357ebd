//! `exp <name> [flags]`: one binary for the paper's tables and figures,
//! the ablations, the studies beyond the paper and the tools that write
//! `BENCH_*.json`. EXPERIMENTS.md indexes them.
//!
//! `exp` or `exp help` lists every experiment. Each reads only the flags
//! its entry in [`EXPERIMENTS`] names: any other argument, or an unknown
//! name, prints a message and exits 2 before anything runs.

use bench::args::{self, Flag, Flag::*, Options};

/// One experiment. Those that read [`Flag::Effort`] are the paper
/// experiments and ablations: `main` prints their header, titled
/// with `about`, before running them.
struct Experiment {
    name: &'static str,
    /// One line for the listing.
    about: &'static str,
    /// Every flag `run` reads, and no other.
    flags: &'static [Flag],
    run: fn(&Options),
}

/// Declares each experiment's module and lists it in [`EXPERIMENTS`],
/// one entry per experiment: `module [flags it reads] "description";`.
/// The experiment is named after its module and runs its `run`.
macro_rules! experiments {
    ($($name:ident $flags:tt $about:literal;)*) => {
        $(mod $name;)*
        const EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            about: $about,
            flags: &$flags,
            run: $name::run,
        }),*];
    };
}

experiments! {
    tuning_process [Effort, Seed, Csv] "§III.A tuning process";
    fig4 [Effort, Seed, Trace] "Figure 4: cross-workload configuration matrix";
    table3 [Effort, Seed] "Table 3: tuned parameters per workload";
    fig5 [Effort, Seed, Csv, Trace] "Figure 5: responsiveness to changing workloads";
    table4 [Effort, Seed] "Table 4: cluster tuning methods";
    fig7 [Effort, Seed, Trace] "Figure 7: automatic cluster reconfiguration";
    faults [Effort, Seed, Csv, Trace, Faults, FaultSeed] "Fault injection: dip and recover";
    resume [Effort, Seed, Csv] "Kill-and-resume: crash-safe persistence";
    chaos [Effort, Seed, Csv] "Chaos conformance matrix";
    detect [Effort, Seed, Csv] "Failure-detector sweep";
    tuners [Effort, Seed, Csv] "Tuner zoo: cross-tuner, cross-workload comparison";
    sensitivity [Effort, Seed]
        "Parameter sensitivity: one-at-a-time sweeps to range boundaries";
    price_performance [Effort, Seed] "Price/performance (Dollars/WIPS) across cluster sizes";
    ablation_tuners [Effort, Seed]
        "Ablation: tuning algorithms on the 23-parameter browsing problem";
    ablation_conservative [Effort, Seed] "Ablation: conservative stepping vs plain simplex";
    ablation_hybrid [Effort, Seed] "Ablation: hybrid tuning (duplication then partitioning)";
    ablation_revalidate [Effort, Seed] "Ablation: best-configuration revalidation";
    bench_smoke [Out, Baseline, Tolerance, Rounds, Iters]
        "CI gate: determinism fingerprints and cold-path cost vs BENCH_5.json";
    par [Out, Rounds] "Worker-pool determinism and measured width-2 speedups (BENCH_6.json)";
    scale [SweepEffort, Out, Base, Bins]
        "Population scaling of the cohort load model (BENCH_6.json)";
    calibrate [] "Operating-point probe: default vs hand-tuned WIPS by population";
}

/// The value of `result`, or print its error and exit 1.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_else(|| "help".to_string());
    if name == "help" {
        println!("usage: exp <name> [flags]\n");
        for e in EXPERIMENTS {
            println!("  {:<22} {}", e.name, e.about);
        }
        println!("\nAn argument the experiment does not read prints its flags and exits 2.");
        return;
    }
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        eprintln!("error: unknown experiment '{name}' (`exp help` lists them)");
        std::process::exit(2);
    };
    let opts = match args::parse_from(exp.flags, argv) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n{}", args::usage(exp.name, exp.flags));
            std::process::exit(2);
        }
    };
    if exp.flags.contains(&Effort) {
        println!(
            "== {} (effort: {}, seed: {}) ==\n",
            exp.about, opts.effort_name, opts.seed
        );
    }
    (exp.run)(&opts);
}
