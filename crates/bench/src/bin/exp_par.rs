//! EXP-PAR: the deterministic multi-core evaluation engine, measured.
//!
//! Three checks, one artifact (the par sections of `BENCH_6.json`):
//!
//! 1. **Determinism** — every seeded probe scenario is evaluated
//!    through the shared worker pool at widths 1, 2, and 8; all three
//!    passes must produce bit-identical fingerprints. Exit 1 on drift.
//! 2. **Pool batch** — the 8 seeded scenarios as one batch on the shared
//!    pool, the shape of one prefetch batch (a BestConfig round), timed
//!    at widths 1 and 2. Gate: width 2 is at least
//!    [`POOL_MIN_SPEEDUP`]× faster.
//! 3. **Replication sweep** — eight measurement replications of a
//!    2p2a2d session at replication widths 1 and 2. Gate: at least
//!    [`REPS_MIN_SPEEDUP`]× faster.
//!
//! Every speedup is a wall-time ratio measured on the host that runs
//! the binary, never a projection: with fewer than 2 cores there is
//! nothing to measure, and it exits 2 ("needs ≥ 2 cores").
//!
//! The sections are merged into `--out` (default `BENCH_6.json`) with
//! `bench::scale::merge_top_level`, so every other section of an
//! existing file, such as `population_scaling`, is kept byte for byte.
//!
//! Usage:
//!   exp_par [--out PATH] [--rounds N]

use bench::scale::merge_top_level;
use bench::smoke::{fingerprint_scenarios, pool_fingerprints};
use cluster::runner::run_iteration;
use orchestrator::par::shared_pool;
use orchestrator::session::SessionConfig;
use std::time::Instant;
use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;

const WIDTHS: [usize; 3] = [1, 2, 8];
const REPS: u32 = 8;
/// Least width-2 speedup the 8-scenario pool batch must show.
const POOL_MIN_SPEEDUP: f64 = 1.3;
/// Least width-2 speedup the 8-replication sweep must show.
const REPS_MIN_SPEEDUP: f64 = 1.2;

struct Cli {
    out: std::path::PathBuf,
    rounds: u32,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        out: "BENCH_6.json".into(),
        rounds: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => cli.out = val("--out").into(),
            "--rounds" => {
                cli.rounds = val("--rounds").parse().unwrap_or_else(|_| {
                    eprintln!("bad --rounds");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                eprintln!("usage: exp_par [--out PATH] [--rounds N]");
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    cli
}

/// Minimum wall time of `f(width)` at widths 1 and 2 over `rounds`
/// rounds, in ms. The widths alternate within each round, so host noise
/// hits both.
fn time_widths<F: FnMut(usize)>(rounds: u32, mut f: F) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..rounds.max(1) {
        for (slot, width) in [1, 2].into_iter().enumerate() {
            let t = Instant::now();
            f(width);
            best[slot] = best[slot].min(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

/// One measured section: wall times at widths 1 and 2 and the gate.
fn section(what: &str, label: &str, ms: [f64; 2], min: f64) -> String {
    let speedup = ms[0] / ms[1];
    format!(
        "{{\n    \"{what}\": \"{label}\",\n    \
         \"wall_ms\": {{ \"1\": {:.3}, \"2\": {:.3} }},\n    \
         \"speedup_2\": {speedup:.3},\n    \"min_speedup_2\": {min},\n    \
         \"pass\": {}\n  }}",
        ms[0],
        ms[1],
        speedup >= min,
    )
}

fn main() {
    let cli = parse_cli();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("exp_par needs ≥ 2 cores to measure a width-2 speedup; this host has {cores}");
        std::process::exit(2);
    }
    println!("== Deterministic multi-core evaluation engine (cores on this host: {cores}) ==\n");

    // 1. Fingerprint identity at widths 1 / 2 / 8 through the pool.
    let passes: Vec<Vec<(String, u64)>> = WIDTHS.iter().map(|&w| pool_fingerprints(w)).collect();
    let mut identical = true;
    println!("scenario       width-1          width-2          width-8");
    for (i, (name, fp1)) in passes[0].iter().enumerate() {
        let fp2 = passes[1][i].1;
        let fp8 = passes[2][i].1;
        let ok = *fp1 == fp2 && *fp1 == fp8;
        identical &= ok;
        println!(
            "  {name:<12} {fp1:016x} {fp2:016x} {fp8:016x}{}",
            if ok { "" } else { "  MISMATCH" }
        );
    }
    if !identical {
        eprintln!("\nFAIL: pool width changed a scenario fingerprint");
        std::process::exit(1);
    }
    println!(
        "all {} fingerprints bit-identical at widths 1/2/8\n",
        passes[0].len()
    );

    // 2. The seeded scenarios as one cold pool batch.
    let batch: Vec<_> = fingerprint_scenarios()
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    let pool_ms = time_widths(cli.rounds, |w| {
        std::hint::black_box(
            shared_pool().run_batch(batch.clone(), w, |s| run_iteration(s).events),
        );
    });
    println!("pool batch ({} scenarios, cold):", batch.len());
    println!(
        "  width 1 {:.1} ms, width 2 {:.1} ms: {:.2}x (gate >= {POOL_MIN_SPEEDUP}x)",
        pool_ms[0],
        pool_ms[1],
        pool_ms[0] / pool_ms[1]
    );

    // 3. Replication sweep: REPS independent measurement replications
    //    of the 2p2a2d Shopping session.
    let topology = match cluster::config::Topology::tiers(2, 2, 2) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("topology: {e}");
            std::process::exit(2);
        }
    };
    let cfg = SessionConfig::new(topology, Workload::Shopping, 600)
        .plan(IntervalPlan::tiny())
        .pin_seed(true);
    let reps_ms = time_widths(cli.rounds, |w| {
        std::hint::black_box(cfg.clone().replication_threads(w).measure_default(REPS));
    });
    println!("\nreplication sweep ({REPS} replications, 2p2a2d Shopping):");
    println!(
        "  width 1 {:.1} ms, width 2 {:.1} ms: {:.2}x (gate >= {REPS_MIN_SPEEDUP}x)",
        reps_ms[0],
        reps_ms[1],
        reps_ms[0] / reps_ms[1]
    );

    // 4. Artifact: merge the par sections, keeping every other section.
    let fps = passes[0]
        .iter()
        .map(|(name, fp)| format!("    \"{name}\": \"{fp:016x}\""))
        .collect::<Vec<_>>()
        .join(",\n");
    let rounds = cli.rounds.max(1);
    let sections = [
        ("schema", "\"bench-par-v2\"".to_string()),
        ("cores_on_build_host", cores.to_string()),
        ("widths_checked", "[1, 2, 8]".to_string()),
        ("fingerprints_identical", identical.to_string()),
        ("fingerprints", format!("{{\n{fps}\n  }}")),
        (
            "speculation",
            section(
                "batch",
                &format!(
                    "{} seeded scenarios in one cold shared-pool batch",
                    batch.len()
                ),
                pool_ms,
                POOL_MIN_SPEEDUP,
            ),
        ),
        (
            "replications",
            section(
                "sweep",
                &format!("{REPS} replications, 2p2a2d Shopping, tiny plan"),
                reps_ms,
                REPS_MIN_SPEEDUP,
            ),
        ),
        (
            "method",
            format!(
                "\"wall_ms = minimum over {rounds} rounds, widths 1 and 2 alternating within \
                 each round, on a host with {cores} cores; speedup_2 = wall_ms at width 1 / \
                 wall_ms at width 2, measured on that host, not projected\""
            ),
        ),
    ];
    let mut doc = std::fs::read_to_string(&cli.out).unwrap_or_else(|_| "{\n}\n".to_string());
    for (key, value) in &sections {
        doc = merge_top_level(&doc, key, value).unwrap_or_else(|| {
            eprintln!(
                "could not merge into {}: not a JSON object",
                cli.out.display()
            );
            std::process::exit(2);
        });
    }
    if let Err(e) = std::fs::write(&cli.out, doc) {
        eprintln!("could not write {}: {e}", cli.out.display());
        std::process::exit(2);
    }
    println!("\nwrote par sections -> {}", cli.out.display());

    // 5. Gates, after the artifact is on disk so CI can upload the
    //    evidence of a failure.
    let pool = pool_ms[0] / pool_ms[1];
    let reps = reps_ms[0] / reps_ms[1];
    let mut failed = false;
    if pool < POOL_MIN_SPEEDUP {
        eprintln!("FAIL: pool batch {pool:.2}x at width 2 (need >= {POOL_MIN_SPEEDUP}x)");
        failed = true;
    }
    if reps < REPS_MIN_SPEEDUP {
        eprintln!("FAIL: replication sweep {reps:.2}x at width 2 (need >= {REPS_MIN_SPEEDUP}x)");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "gates: pool batch {pool:.2}x >= {POOL_MIN_SPEEDUP}x and replications {reps:.2}x >= \
         {REPS_MIN_SPEEDUP}x at width 2 — PASS"
    );
}
