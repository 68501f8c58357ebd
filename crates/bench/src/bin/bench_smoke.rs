//! Quick deterministic benchmark for CI ("bench-smoke").
//!
//! Runs the canonical cold-path scenario, writes a fresh `BENCH_5.json`
//! (by default `target/bench-smoke/BENCH_5.json`, so a local run never
//! overwrites the committed baseline), and (when `--baseline` points at
//! the committed copy) fails the process with exit code 1 on a normalized
//! regression beyond the tolerance. Also re-runs every seeded scenario
//! twice and fails on any fingerprint mismatch — a determinism smoke
//! test — then replays the battery through the shared worker pool at
//! width 2 and fails if any pool fingerprint differs from the sequential
//! one (the multi-core engine must be a wall-clock knob, never a results
//! knob).
//!
//! Usage:
//!   bench_smoke [--out PATH] [--baseline PATH] [--tolerance FRAC]
//!               [--rounds N] [--iters M]

use bench::smoke::{
    self, extract_f64, fingerprint, fingerprint_scenarios, gate, SmokeReport, Verdict,
};
use cluster::runner::run_iteration;

struct Cli {
    out: std::path::PathBuf,
    baseline: Option<std::path::PathBuf>,
    tolerance: f64,
    rounds: u32,
    iters: u32,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        out: "target/bench-smoke/BENCH_5.json".into(),
        baseline: None,
        tolerance: smoke::DEFAULT_TOLERANCE,
        rounds: 16,
        iters: 15,
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
            "--baseline" => cli.baseline = Some(val("--baseline").into()),
            "--tolerance" => {
                cli.tolerance = val("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("bad --tolerance");
                    std::process::exit(2);
                })
            }
            "--rounds" => {
                cli.rounds = val("--rounds").parse().unwrap_or_else(|_| {
                    eprintln!("bad --rounds");
                    std::process::exit(2);
                })
            }
            "--iters" => {
                cli.iters = val("--iters").parse().unwrap_or_else(|_| {
                    eprintln!("bad --iters");
                    std::process::exit(2);
                })
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_smoke [--out PATH] [--baseline PATH] \
                     [--tolerance FRAC] [--rounds N] [--iters M]"
                );
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

fn main() {
    let cli = parse_cli();

    // 1. Determinism: every seeded scenario, run twice, must
    //    fingerprint identically.
    let mut fingerprints = Vec::new();
    let mut determinism_ok = true;
    for (name, s) in fingerprint_scenarios() {
        let a = fingerprint(&run_iteration(&s));
        let b = fingerprint(&run_iteration(&s));
        if a != b {
            eprintln!("DETERMINISM FAIL {name}: {a:016x} != {b:016x}");
            determinism_ok = false;
        }
        println!("fingerprint {name:<12} {a:016x}");
        fingerprints.push((name, a));
    }
    if !determinism_ok {
        eprintln!("bench-smoke: determinism check failed");
        std::process::exit(1);
    }

    // 1b. Pool determinism: the same battery through the shared worker
    //     pool at width 2 must fingerprint identically to the
    //     sequential pass above.
    for (name, fp) in smoke::pool_fingerprints(2) {
        match fingerprints.iter().find(|(n, _)| *n == name) {
            Some((_, seq)) if *seq == fp => {}
            Some((_, seq)) => {
                eprintln!("POOL DETERMINISM FAIL {name}: {fp:016x} != sequential {seq:016x}");
                determinism_ok = false;
            }
            None => {
                eprintln!("POOL DETERMINISM FAIL {name}: scenario missing from sequential pass");
                determinism_ok = false;
            }
        }
    }
    if !determinism_ok {
        eprintln!("bench-smoke: 2-thread pool determinism check failed");
        std::process::exit(1);
    }
    println!("pool fingerprints at width 2: identical to sequential");

    // 2. Timing: cold-path scenario + pure-CPU reference spin,
    //    interleaved so both minimums sample the same noise windows.
    let (ms_per_iter, spin_ms) = smoke::measure_interleaved(cli.rounds, cli.iters);
    let report = SmokeReport {
        ms_per_iter,
        spin_ms,
        rounds: cli.rounds,
        iters_per_round: cli.iters,
        fingerprints,
    };
    println!(
        "cold path: {ms_per_iter:.3} ms/iter  spin: {spin_ms:.3} ms  normalized: {:.4}",
        report.normalized()
    );

    // 3. Emit BENCH_5.json (the CI artifact).
    let written = cli
        .out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&cli.out, report.to_json()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", cli.out.display());
        std::process::exit(2);
    }
    println!("wrote {}", cli.out.display());

    // 4. Regression gate against the committed baseline.
    if let Some(path) = &cli.baseline {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("could not read baseline {}: {e}", path.display());
            std::process::exit(2);
        });
        // Baselines are allowed to carry sections this binary does not
        // know about (other bench binaries merge their own sections into
        // the same file), and a baseline from a different schema epoch
        // may not carry ours. Missing key -> warn and skip the gate; a
        // gate that cannot run is not a regression.
        let Some(base) = extract_f64(&json, "normalized") else {
            eprintln!(
                "gate: SKIP — baseline {} has no \"normalized\" field \
                 (unknown or pre-smoke schema); nothing to compare against",
                path.display()
            );
            return;
        };
        match gate(report.normalized(), base, cli.tolerance) {
            Verdict::Pass(change) => println!(
                "gate: PASS ({:+.1}% vs baseline, tolerance {:.0}%)",
                change * 100.0,
                cli.tolerance * 100.0
            ),
            Verdict::Regression(change) => {
                eprintln!(
                    "gate: FAIL — normalized cost {:+.1}% vs baseline (tolerance {:.0}%)",
                    change * 100.0,
                    cli.tolerance * 100.0
                );
                std::process::exit(1);
            }
        }
    }
}
