//! EXP-SCALE: population scaling of the cohort load model.
//!
//! Three checks, one artifact (the `population_scaling` section merged
//! into `BENCH_6.json`, every other section preserved):
//!
//! 1. **Determinism** — the seeded cohort run at N=1000 is executed
//!    twice; the two fingerprints must be bit-identical.
//! 2. **Equivalence** — cohort WIPS must match per-browser WIPS within
//!    the stated bound at N=100 (weight 1: think-quantisation only),
//!    N=1000, and N=10000 (weighted tokens against rescaled pools).
//! 3. **Scaling** — at N=10000 the cohort model must carry at least
//!    10x fewer events per simulated second than the per-browser
//!    model, and (full effort) the 1k -> 1M curve must grow events/sec
//!    sublinearly in population.
//!
//! `--effort smoke` (the CI gate) runs determinism + equivalence +
//! the 10k events win. `--effort full` (the weekly artifact) adds the
//! 1k -> 1M cohort curve with per-browser comparison points up to 100k.
//!
//! Flags: `--effort smoke|full` (default `smoke`), `--out PATH` and
//! `--base PATH` (both default `BENCH_6.json`), `--bins N` (default
//! [`DEFAULT_COHORT_BINS`]).

use bench::args::Options;
use bench::scale::{
    merge_into_file, point_json, run_point, wips_rel_err, ScalePoint, SCALE_SEED,
};
use cluster::model::{LoadModel, DEFAULT_COHORT_BINS};

/// Stated CI bounds on |cohort WIPS - per-browser WIPS| / per-browser
/// WIPS. At N=100 the token weight is 1 and only think-time
/// quantisation separates the models; at N=1000 (weight 2) batched
/// convoys shift the closed-loop cycle slightly; at N=10000 (weight 12)
/// the comparison runs deep in admission-controlled overload, where
/// pool rescaling keeps refusal dynamics only approximately aligned.
const EQUIV_BOUNDS: [(u32, f64); 3] = [(100, 0.05), (1_000, 0.10), (10_000, 0.25)];

/// Minimum per-browser/cohort ratio of events per simulated second at
/// N=10000 — the tentpole's scaling win.
const EVENTS_WIN_10K_MIN: f64 = 10.0;

/// Full-effort sublinearity gate: from 1k to 1M the population grows
/// 1000x; cohort events/sim-sec must grow by less than 100x.
const SUBLINEAR_MAX_RATIO: f64 = 100.0;

fn print_point(p: &ScalePoint) {
    println!(
        "  {:>9} {:<11} wips {:>8.2}  resp {:>7.1} ms  p90 {:>7.1} ms  failed {:>8}  \
         events {:>10}  ev/simsec {:>9.1}  wall {:>9.1} ms",
        p.population,
        p.model,
        p.wips,
        p.mean_response_ms,
        p.p90_response_ms,
        p.failed,
        p.events,
        p.events_per_sim_sec,
        p.wall_ms
    );
}

pub fn run(opts: &Options) {
    let bins = opts.bins.unwrap_or(DEFAULT_COHORT_BINS);
    let out = opts.out.clone().unwrap_or_else(|| "BENCH_6.json".into());
    let base_path = opts.base.clone().unwrap_or_else(|| "BENCH_6.json".into());
    let cohort = LoadModel::Cohort { bins };
    println!(
        "== Population scaling: cohort load model ({} bins, seed {SCALE_SEED}, {} effort) ==\n",
        bins, opts.effort_name
    );

    // 1. Determinism: the same seeded cohort scenario twice.
    let d1 = run_point(1_000, cohort);
    let d2 = run_point(1_000, cohort);
    let deterministic = d1.fingerprint == d2.fingerprint;
    println!(
        "determinism at N=1000: {:016x} / {:016x} — {}",
        d1.fingerprint,
        d2.fingerprint,
        if deterministic {
            "identical"
        } else {
            "MISMATCH"
        }
    );

    // 2. Equivalence at N=100 / 1k / 10k.
    println!("\nequivalence (cohort vs per-browser WIPS):");
    let mut equiv_rows = Vec::new();
    let mut equiv_pass = true;
    let mut pairs: Vec<(u32, ScalePoint, ScalePoint)> = Vec::new();
    for &(population, bound) in &EQUIV_BOUNDS {
        let pb = run_point(population, LoadModel::PerBrowser);
        let co = run_point(population, cohort);
        let rel = wips_rel_err(&pb, &co);
        let pass = rel <= bound;
        equiv_pass &= pass;
        println!(
            "  N={population:<6} per-browser {:>8.2} wips, cohort {:>8.2} wips, \
             rel err {:>6.2}% (bound {:.0}%) — {}",
            pb.wips,
            co.wips,
            rel * 100.0,
            bound * 100.0,
            if pass { "PASS" } else { "FAIL" }
        );
        equiv_rows.push(format!(
            "      {{ \"population\": {population}, \"wips_per_browser\": {:.3}, \
             \"wips_cohort\": {:.3}, \"rel_err\": {:.4}, \"bound\": {bound}, \"pass\": {pass} }}",
            pb.wips, co.wips, rel
        ));
        pairs.push((population, pb, co));
    }

    // 3. The 10k events/sec win (the pair was just measured).
    let (_, pb10k, co10k) = pairs
        .iter()
        .find(|(n, _, _)| *n == 10_000)
        .expect("10k is in EQUIV_BOUNDS");
    let win = if co10k.events_per_sim_sec > 0.0 {
        pb10k.events_per_sim_sec / co10k.events_per_sim_sec
    } else {
        f64::INFINITY
    };
    let win_pass = win >= EVENTS_WIN_10K_MIN;
    println!(
        "\nevents per simulated second at N=10000: per-browser {:.1}, cohort {:.1} \
         — {:.1}x win (need >= {EVENTS_WIN_10K_MIN:.0}x) — {}",
        pb10k.events_per_sim_sec,
        co10k.events_per_sim_sec,
        win,
        if win_pass { "PASS" } else { "FAIL" }
    );

    // 4. The curve. Smoke reuses the equivalence points; full sweeps to
    //    a million browsers (per-browser comparison up to 100k — beyond
    //    that the per-browser run is exactly the cost this model exists
    //    to avoid).
    let mut curve: Vec<ScalePoint> = Vec::new();
    for (_, pb, co) in &pairs {
        curve.push(pb.clone());
        curve.push(co.clone());
    }
    let mut sublinear_json = "null".to_string();
    let mut sublinear_pass = true;
    if opts.effort_name == "full" {
        println!("\npopulation curve (1k -> 1M):");
        for p in &curve {
            print_point(p);
        }
        let pb_extra = [100_000u32];
        let cohort_extra = [100_000u32, 1_000_000];
        for &n in &pb_extra {
            let p = run_point(n, LoadModel::PerBrowser);
            print_point(&p);
            curve.push(p);
        }
        let mut ev_1k = curve
            .iter()
            .find(|p| p.population == 1_000 && p.model == "cohort")
            .map(|p| p.events_per_sim_sec)
            .unwrap_or(0.0);
        if ev_1k <= 0.0 {
            ev_1k = f64::MIN_POSITIVE;
        }
        let mut ev_1m = 0.0;
        for &n in &cohort_extra {
            let p = run_point(n, cohort);
            print_point(&p);
            if n == 1_000_000 {
                ev_1m = p.events_per_sim_sec;
            }
            curve.push(p);
        }
        let ratio = ev_1m / ev_1k;
        sublinear_pass = ratio < SUBLINEAR_MAX_RATIO;
        println!(
            "\nsublinearity: events/sim-sec grew {ratio:.2}x while population grew 1000x \
             (max {SUBLINEAR_MAX_RATIO:.0}x) — {}",
            if sublinear_pass { "PASS" } else { "FAIL" }
        );
        sublinear_json = format!(
            "{{ \"pop_ratio\": 1000, \"events_per_sim_sec_ratio\": {ratio:.3}, \
             \"max\": {SUBLINEAR_MAX_RATIO}, \"pass\": {sublinear_pass} }}"
        );
    }

    // 5. Merge the artifact section into BENCH_6.json.
    let points = curve
        .iter()
        .map(|p| point_json(p, "      "))
        .collect::<Vec<_>>()
        .join(",\n");
    let section = format!
        ("{{\n    \"schema\": \"bench-scale-v1\",\n    \"effort\": \"{}\",\n    \
          \"bins\": {},\n    \"seed\": {SCALE_SEED},\n    \
          \"scenario\": \"single work line, Shopping mix, tiny plan\",\n    \
          \"determinism\": {{ \"population\": 1000, \"fingerprints_identical\": {deterministic} }},\n    \
          \"equivalence\": [\n{}\n    ],\n    \
          \"events_win_10k\": {{ \"ratio\": {win:.3}, \"min\": {EVENTS_WIN_10K_MIN}, \"pass\": {win_pass} }},\n    \
          \"sublinear\": {sublinear_json},\n    \
          \"points\": [\n{}\n    ],\n    \
          \"method\": \"each point is one seeded iteration; events_per_sim_sec = events / plan \
          duration; equivalence compares cohort vs per-browser WIPS at the same seed; the \
          cohort model multiplies service demand by token weight and rescales held pools to \
          token units, so utilisation and saturation throughput match by construction while \
          response times convoy (see DESIGN.md)\"\n  }}",
        opts.effort_name,
        bins,
        equiv_rows.join(",\n"),
        points,
    );
    if let Err(e) = merge_into_file(&base_path, &out, &[("population_scaling", section)]) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    println!("\nwrote population_scaling section -> {}", out.display());

    // 6. Gates (after the artifact is on disk so CI can upload the
    //    evidence of a failure).
    let mut failed = false;
    if !deterministic {
        eprintln!("FAIL: seeded cohort run is not deterministic");
        failed = true;
    }
    if !equiv_pass {
        eprintln!("FAIL: cohort WIPS outside the stated equivalence bound");
        failed = true;
    }
    if !win_pass {
        eprintln!("FAIL: cohort events/sec win at 10k below {EVENTS_WIN_10K_MIN:.0}x");
        failed = true;
    }
    if !sublinear_pass {
        eprintln!("FAIL: events/sec grew superlinearly on the population curve");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "gates: determinism, equivalence, 10k events win{} — PASS",
        if opts.effort_name == "full" {
            ", sublinearity"
        } else {
            ""
        }
    );
}
