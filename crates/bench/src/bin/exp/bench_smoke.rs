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
//! Flags: `--out PATH` (default `target/bench-smoke/BENCH_5.json`),
//! `--baseline PATH`, `--tolerance FRAC` (default 10%), `--rounds N`
//! (default 16), `--iters M` (default 15).

use bench::args::Options;
use bench::smoke::{
    self, extract_f64, fingerprint, fingerprint_scenarios, gate, SmokeReport, Verdict,
};
use cluster::runner::run_iteration;

pub fn run(opts: &Options) {
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| "target/bench-smoke/BENCH_5.json".into());
    let tolerance = opts.tolerance.unwrap_or(smoke::DEFAULT_TOLERANCE);
    let (rounds, iters) = (opts.rounds.unwrap_or(16), opts.iters.unwrap_or(15));

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
    let (ms_per_iter, spin_ms) = smoke::measure_interleaved(rounds, iters);
    let report = SmokeReport {
        ms_per_iter,
        spin_ms,
        rounds,
        iters_per_round: iters,
        fingerprints,
    };
    println!(
        "cold path: {ms_per_iter:.3} ms/iter  spin: {spin_ms:.3} ms  normalized: {:.4}",
        report.normalized()
    );

    // 3. Emit BENCH_5.json (the CI artifact).
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&out, report.to_json()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", out.display());
        std::process::exit(2);
    }
    println!("wrote {}", out.display());

    // 4. Regression gate against the committed baseline.
    if let Some(path) = &opts.baseline {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("could not read baseline {}: {e}", path.display());
            std::process::exit(2);
        });
        // Baselines are allowed to carry sections this tool does not
        // know about (other experiments merge their own sections into
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
        match gate(report.normalized(), base, tolerance) {
            Verdict::Pass(change) => println!(
                "gate: PASS ({:+.1}% vs baseline, tolerance {:.0}%)",
                change * 100.0,
                tolerance * 100.0
            ),
            Verdict::Regression(change) => {
                eprintln!(
                    "gate: FAIL — normalized cost {:+.1}% vs baseline (tolerance {:.0}%)",
                    change * 100.0,
                    tolerance * 100.0
                );
                std::process::exit(1);
            }
        }
    }
}
