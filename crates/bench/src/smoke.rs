//! Deterministic quick-bench ("bench-smoke") support.
//!
//! `exp bench_smoke` runs the canonical cold-path scenario
//! (single node, Shopping mix, population 400, seed 42 — the same
//! scenario as `cluster_iteration/iteration/cold`) a fixed number of
//! times, takes the **minimum** batch time (robust against one-sided
//! scheduler noise on shared CI runners), and writes a machine-readable
//! `BENCH_5.json`.
//!
//! Absolute milliseconds are not comparable across runner generations,
//! so the regression gate compares a **normalized** cost: ms/iteration
//! divided by the time of a fixed pure-CPU reference spin (SplitMix64)
//! measured in the same process. A runner that is 2x slower overall
//! scales both numbers; genuine hot-path regressions scale only the
//! numerator. The gate fails when the normalized cost exceeds the
//! committed baseline by more than the tolerance (default 10%).
//!
//! It also re-runs every seeded probe scenario twice and
//! requires bit-identical fingerprints between the two runs — a cheap
//! in-CI determinism check that catches stray `HashMap` iteration or
//! uninitialised state without golden files.

use cluster::config::{ClusterConfig, Topology};
use cluster::model::{ClusterScenario, LoadBalancing};
use cluster::runner::{run_iteration, IterationOutcome};
use cluster::{Health, HealthChange, HealthTimeline};
use simkit::time::SimDuration;
use std::time::Instant;
use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;

/// Relative regression tolerance for the normalized-cost gate.
pub const DEFAULT_TOLERANCE: f64 = 0.10;

fn scen(topo: Topology, w: Workload, pop: u32, seed: u64) -> ClusterScenario {
    let mut s = ClusterScenario::single(w, pop, IntervalPlan::tiny(), seed);
    s.config = ClusterConfig::defaults(&topo);
    s.topology = topo;
    s
}

/// The canonical cold-path timing scenario (matches the
/// `cluster_iteration` bench's `iteration/cold` case).
pub(crate) fn cold_scenario() -> ClusterScenario {
    scen(Topology::single(), Workload::Shopping, 400, 42)
}

/// The seeded scenario battery used for the determinism fingerprints:
/// every workload mix plus multi-tier, partitioned-lines,
/// least-connections, Markov-session, and fault-timeline variants.
pub fn fingerprint_scenarios() -> Vec<(String, ClusterScenario)> {
    let mut scenarios: Vec<(String, ClusterScenario)> = Vec::new();
    for w in Workload::ALL {
        scenarios.push((
            format!("w/{}", w.name()),
            scen(Topology::single(), w, 400, 42),
        ));
    }
    if let Ok(t) = Topology::tiers(2, 2, 2) {
        scenarios.push(("2p2a2d".into(), scen(t, Workload::Shopping, 800, 7)));
    }
    if let Ok(t) = Topology::tiers(2, 2, 2) {
        let mut lines = scen(t, Workload::Shopping, 800, 9);
        lines.lines = Some(vec![vec![0, 2, 4], vec![1, 3, 5]]);
        scenarios.push(("lines".into(), lines));
    }
    if let Ok(t) = Topology::tiers(2, 2, 1) {
        let mut lc = scen(t, Workload::Ordering, 500, 13);
        lc.load_balancing = LoadBalancing::LeastConnections;
        scenarios.push(("leastconn".into(), lc));
    }
    let mut mk = scen(Topology::single(), Workload::Shopping, 300, 11);
    mk.markov_sessions = true;
    scenarios.push(("markov".into(), mk));
    if let Ok(t) = Topology::tiers(1, 2, 1) {
        let mut ft = scen(t, Workload::Shopping, 600, 23);
        ft.faults = Some(HealthTimeline {
            initial: vec![Health::Up; 4],
            changes: vec![HealthChange {
                after: SimDuration::from_secs(10),
                node: 1,
                health: Health::Down,
            }],
        });
        scenarios.push(("fault".into(), ft));
    }
    scenarios
}

/// Fold one iteration's observable outputs (event count, completion
/// counters, WIPS bits, per-line WIPS, per-resource utilization) into a
/// single 64-bit fingerprint. Any behavioural drift flips it.
pub fn fingerprint(out: &IterationOutcome) -> u64 {
    let mut fp = out.events ^ out.total_done.rotate_left(17) ^ out.total_failed.rotate_left(31);
    fp ^= out.metrics.wips.to_bits();
    for lw in &out.line_wips {
        fp = fp.rotate_left(7) ^ lw.to_bits();
    }
    for u in &out.node_utilization {
        for (_, v) in u.resources() {
            fp = fp.rotate_left(3) ^ v.to_bits();
        }
    }
    fp
}

/// Fingerprint the seeded scenario battery through the shared worker
/// pool at the given batch width (0 = one worker per core). The pool
/// merges results in submission order, so the returned list must be
/// bit-identical to fingerprinting the battery sequentially — the
/// in-CI check for the deterministic multi-core evaluation engine.
pub fn pool_fingerprints(width: usize) -> Vec<(String, u64)> {
    let (names, scenarios): (Vec<String>, Vec<ClusterScenario>) =
        fingerprint_scenarios().into_iter().unzip();
    let fps = orchestrator::par::shared_pool()
        .run_batch(scenarios, width, |s| fingerprint(&run_iteration(s)));
    names.into_iter().zip(fps).collect()
}

/// One reference-spin batch: a fixed SplitMix64 chain, in ms.
fn spin_batch_ms(round: u32) -> f64 {
    const CHAIN: u64 = 4_000_000;
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_add(round as u64);
    for _ in 0..CHAIN {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Time the cold-path scenario against the pure-CPU reference spin,
/// **interleaved**: each round times one spin batch and one scenario
/// batch back to back, and both report their minimum over all rounds.
/// Interleaving matters on shared runners — noise comes in windows, so
/// a round where the machine was quiet gives both measurements their
/// true value, while sequential blocks can land entirely inside a
/// slow window and skew only one side of the ratio.
///
/// Returns `(scenario ms/iter, spin ms)`, each a min over rounds.
pub fn measure_interleaved(rounds: u32, iters: u32) -> (f64, f64) {
    let s = cold_scenario();
    let mut best_scen = f64::INFINITY;
    let mut best_spin = f64::INFINITY;
    let mut acc = 0.0;
    for r in 0..rounds.max(1) {
        best_spin = best_spin.min(spin_batch_ms(r));
        let t = Instant::now();
        for _ in 0..iters.max(1) {
            acc += run_iteration(&s).metrics.wips;
        }
        best_scen = best_scen.min(t.elapsed().as_secs_f64() * 1e3 / iters.max(1) as f64);
    }
    std::hint::black_box(acc);
    (best_scen, best_spin)
}

/// One bench-smoke measurement, serializable to `BENCH_5.json`.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    pub ms_per_iter: f64,
    pub spin_ms: f64,
    pub rounds: u32,
    pub iters_per_round: u32,
    /// `(name, fingerprint)` per seeded scenario.
    pub fingerprints: Vec<(String, u64)>,
}

impl SmokeReport {
    /// Normalized cost: scenario ms/iter per reference-spin ms.
    pub fn normalized(&self) -> f64 {
        if self.spin_ms > 0.0 {
            self.ms_per_iter / self.spin_ms
        } else {
            f64::INFINITY
        }
    }

    /// Render as the `BENCH_5.json` schema (`bench-smoke-v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"bench-smoke-v1\",\n");
        s.push_str("  \"bench\": \"cluster_iteration/iteration/cold\",\n");
        s.push_str(&format!("  \"ms_per_iter\": {:.6},\n", self.ms_per_iter));
        s.push_str(&format!("  \"spin_ms\": {:.6},\n", self.spin_ms));
        s.push_str(&format!("  \"normalized\": {:.6},\n", self.normalized()));
        s.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        s.push_str(&format!(
            "  \"iters_per_round\": {},\n",
            self.iters_per_round
        ));
        s.push_str("  \"fingerprints\": {\n");
        for (i, (name, fp)) in self.fingerprints.iter().enumerate() {
            let comma = if i + 1 == self.fingerprints.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!("    \"{name}\": \"{fp:016x}\"{comma}\n"));
        }
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }
}

/// Extract the numeric value of `"key": <number>` from a JSON document
/// this crate wrote itself. Not a general JSON parser — the baseline
/// file is machine-generated with a flat known schema, and avoiding a
/// parser keeps the bench crate dependency-free.
pub fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json.get(at..)?;
    let colon = rest.find(':')?;
    let val = rest.get(colon + 1..)?.trim_start();
    let end = val
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(val.len());
    val.get(..end)?.trim().parse().ok()
}

/// Gate verdict comparing a fresh measurement against the committed
/// baseline's normalized cost.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance; payload is the relative change (+ = slower).
    Pass(f64),
    /// Regression beyond tolerance; payload is the relative change.
    Regression(f64),
}

/// Compare normalized costs: fail when `current` exceeds `baseline` by
/// more than `tolerance` (relative). Improvements always pass.
pub fn gate(current: f64, baseline: f64, tolerance: f64) -> Verdict {
    let change = current / baseline - 1.0;
    if change > tolerance {
        Verdict::Regression(change)
    } else {
        Verdict::Pass(change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_within_tolerance_and_on_improvement() {
        assert!(matches!(gate(1.05, 1.0, 0.10), Verdict::Pass(_)));
        assert!(matches!(gate(0.7, 1.0, 0.10), Verdict::Pass(_)));
        assert!(matches!(gate(1.099, 1.0, 0.10), Verdict::Pass(_)));
    }

    #[test]
    fn gate_fails_beyond_tolerance() {
        match gate(1.2, 1.0, 0.10) {
            Verdict::Regression(c) => assert!((c - 0.2).abs() < 1e-9),
            v => panic!("expected regression, got {v:?}"),
        }
    }

    #[test]
    fn json_roundtrip_through_extract() {
        let report = SmokeReport {
            ms_per_iter: 2.845,
            spin_ms: 10.5,
            rounds: 8,
            iters_per_round: 25,
            fingerprints: vec![("w/Shopping".into(), 0x058263b0cd5e7afd)],
        };
        let json = report.to_json();
        assert_eq!(extract_f64(&json, "ms_per_iter"), Some(2.845));
        assert_eq!(extract_f64(&json, "spin_ms"), Some(10.5));
        let norm = extract_f64(&json, "normalized").unwrap();
        assert!((norm - 2.845 / 10.5).abs() < 1e-5);
        assert!(json.contains("\"w/Shopping\": \"058263b0cd5e7afd\""));
    }

    #[test]
    fn extract_handles_missing_and_malformed_keys() {
        assert_eq!(extract_f64("{}", "nope"), None);
        assert_eq!(extract_f64("{\"x\": \"str\"}", "x"), None);
        assert_eq!(extract_f64("{\"x\": -1.5e2}", "x"), Some(-150.0));
    }

    #[test]
    fn extract_tolerates_foreign_sections_in_a_baseline() {
        // BENCH files accumulate sections from several tools; a
        // baseline carrying sections this tool does not understand
        // must still yield its own key (and cleanly yield None — the
        // gate-skip path, not a crash — when the key is absent).
        let foreign = "{\n  \"schema\": \"bench-par-v2\",\n  \
                       \"population_scaling\": { \"points\": [ { \"wips\": 1.0 } ] },\n  \
                       \"normalized\": 0.25\n}";
        assert_eq!(extract_f64(foreign, "normalized"), Some(0.25));
        let keyless = "{ \"schema\": \"bench-par-v2\", \"tentpole\": { \"x\": 1 } }";
        assert_eq!(extract_f64(keyless, "normalized"), None);
    }

    #[test]
    fn fingerprints_deterministic_across_runs() {
        // One small scenario run twice must fingerprint identically.
        let s = cold_scenario();
        let a = fingerprint(&run_iteration(&s));
        let b = fingerprint(&run_iteration(&s));
        assert_eq!(a, b);
    }

    #[test]
    fn pool_fingerprints_match_sequential_at_width_two() {
        let seq: Vec<(String, u64)> = fingerprint_scenarios()
            .iter()
            .map(|(n, s)| (n.clone(), fingerprint(&run_iteration(s))))
            .collect();
        assert_eq!(pool_fingerprints(2), seq);
    }

    #[test]
    fn interleaved_measurement_is_positive() {
        let (scen, spin) = measure_interleaved(1, 1);
        assert!(scen > 0.0 && spin > 0.0);
    }
}
