//! EXP-SCALE support: population scaling of the cohort load model.
//!
//! One *scale point* runs a single seeded iteration of the standard
//! probe scenario (single work line, Shopping mix, tiny plan) at a
//! given population under a given [`LoadModel`], and records WIPS,
//! response times, the event count, and the host wall time. The
//! `exp_scale` binary sweeps these points, gates cohort-vs-per-browser
//! equivalence, and merges a `population_scaling` section into
//! BENCH_6.json.

use cluster::model::{ClusterScenario, LoadModel};
use cluster::runner::run_iteration;
use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;

/// The seed every scale point uses (matches the smoke probes).
pub const SCALE_SEED: u64 = 42;

/// One measured (population, load model) cell.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub population: u32,
    /// `per-browser` or `cohort`.
    pub model: String,
    pub wips: f64,
    pub mean_response_ms: f64,
    pub p90_response_ms: f64,
    pub completed: u64,
    pub failed: u64,
    pub events: u64,
    /// Events per *simulated* second — the load the calendar queue
    /// actually carries; this is the axis that must grow sublinearly.
    pub events_per_sim_sec: f64,
    /// Host wall time of the iteration, milliseconds.
    pub wall_ms: f64,
    /// Session fingerprint of the outcome (determinism witness).
    pub fingerprint: u64,
}

/// The probe scenario every scale point runs: single topology,
/// Shopping mix, tiny plan, fixed seed.
pub fn scale_scenario(population: u32, load_model: LoadModel) -> ClusterScenario {
    let mut s = ClusterScenario::single(
        Workload::Shopping,
        population,
        IntervalPlan::tiny(),
        SCALE_SEED,
    );
    s.load_model = load_model;
    s
}

/// Run one scale point, timing the iteration on this host.
pub fn run_point(population: u32, load_model: LoadModel) -> ScalePoint {
    let scenario = scale_scenario(population, load_model);
    let sim_secs = scenario.plan.total().as_secs_f64();
    let t = std::time::Instant::now();
    let out = run_iteration(&scenario);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    ScalePoint {
        population,
        model: load_model.name().to_string(),
        wips: out.metrics.wips,
        mean_response_ms: out.metrics.mean_response_secs * 1e3,
        p90_response_ms: out.metrics.p90_response.as_millis_f64(),
        completed: out.metrics.completed,
        failed: out.total_failed,
        events: out.events,
        events_per_sim_sec: if sim_secs > 0.0 {
            out.events as f64 / sim_secs
        } else {
            0.0
        },
        wall_ms,
        fingerprint: crate::smoke::fingerprint(&out),
    }
}

/// Relative WIPS error of `cohort` against `per_browser`.
pub fn wips_rel_err(per_browser: &ScalePoint, cohort: &ScalePoint) -> f64 {
    if per_browser.wips == 0.0 {
        return f64::INFINITY;
    }
    (cohort.wips - per_browser.wips).abs() / per_browser.wips
}

/// Render one scale point as a JSON object (two-space indent `pad`).
pub fn point_json(p: &ScalePoint, pad: &str) -> String {
    format!(
        "{pad}{{ \"population\": {}, \"model\": \"{}\", \"wips\": {:.3}, \
         \"mean_response_ms\": {:.3}, \"p90_response_ms\": {:.3}, \
         \"completed\": {}, \"failed\": {}, \"events\": {}, \
         \"events_per_sim_sec\": {:.1}, \"wall_ms\": {:.3}, \
         \"fingerprint\": \"{:016x}\" }}",
        p.population,
        p.model,
        p.wips,
        p.mean_response_ms,
        p.p90_response_ms,
        p.completed,
        p.failed,
        p.events,
        p.events_per_sim_sec,
        p.wall_ms,
        p.fingerprint,
    )
}

/// Merge (insert or replace) a top-level `"key": value` entry into a
/// JSON object document, preserving every other section verbatim.
///
/// This is the dependency-free counterpart of the bench crate's
/// `extract_f64`: BENCH_6.json is machine-written by our own binaries,
/// so a brace/string-aware scan is enough — no parser crate. `value`
/// must already be rendered JSON. Returns `None` when `base` is not
/// recognisably a JSON object.
pub fn merge_top_level(base: &str, key: &str, value: &str) -> Option<String> {
    let open = base.find('{')?;
    let close = base.rfind('}')?;
    if open >= close {
        return None;
    }
    let needle = format!("\"{key}\"");
    if let Some(kpos) = find_top_level_key(base, open, close, &needle) {
        // Replace the existing entry: from the key through its value.
        let vend = end_of_value(base, kpos)?;
        let mut out = String::with_capacity(base.len() + value.len());
        out.push_str(&base[..kpos]);
        out.push_str(&format!("\"{key}\": {value}"));
        out.push_str(&base[vend..]);
        Some(out)
    } else {
        // Insert before the final `}`, after the last entry.
        let body = base[..close].trim_end();
        let needs_comma = !body.trim_end().ends_with(['{', ',']);
        let mut out = String::with_capacity(base.len() + value.len());
        out.push_str(body);
        if needs_comma {
            out.push(',');
        }
        out.push_str(&format!("\n  \"{key}\": {value}\n"));
        out.push_str(&base[close..]);
        Some(out)
    }
}

/// Find the byte offset of a top-level (depth-1) object key. String
/// contents are skipped, so a value mentioning `"key"` can't confuse
/// the scan.
fn find_top_level_key(s: &str, open: usize, close: usize, needle: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    let mut i = open;
    while i < close {
        let b = bytes[i];
        if in_str {
            if escape {
                escape = false;
            } else if b == b'\\' {
                escape = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else {
            match b {
                b'"' => {
                    if depth == 1 && s[i..].starts_with(needle) {
                        // A key, not a value: the next non-space char
                        // after the closing quote must be ':'.
                        let after = i + needle.len();
                        if s[after..close].trim_start().starts_with(':') {
                            return Some(i);
                        }
                    }
                    in_str = true;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Byte offset just past the value of the entry whose key starts at
/// `kpos`. A trailing comma stays in place, so a replaced entry keeps
/// its separator from the next one.
fn end_of_value(s: &str, kpos: usize) -> Option<usize> {
    let colon = kpos + s[kpos..].find(':')?;
    let rest = s[colon + 1..].trim_start();
    let vstart = s.len() - rest.len();
    let bytes = s.as_bytes();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    let mut i = vstart;
    while i < s.len() {
        let b = bytes[i];
        if in_str {
            if escape {
                escape = false;
            } else if b == b'\\' {
                escape = true;
            } else if b == b'"' {
                in_str = false;
            }
        } else {
            match b {
                b'"' => in_str = true,
                b'{' | b'[' => depth += 1,
                b'}' | b']' => {
                    if depth == 0 {
                        // Closing brace of the *parent* object: a scalar
                        // value ended right before it.
                        break;
                    }
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                b',' if depth == 0 => break,
                _ => {}
            }
        }
        i += 1;
    }
    // A scalar ends at its last character, not at the whitespace
    // before the separator or the closing brace.
    while i > vstart && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_inserts_new_section() {
        let base = "{\n  \"schema\": \"bench-par-v1\",\n  \"a\": { \"b\": 1 }\n}\n";
        let merged = merge_top_level(base, "population_scaling", "{ \"x\": 2 }").unwrap();
        assert!(merged.contains("\"population_scaling\": { \"x\": 2 }"));
        assert!(merged.contains("\"schema\": \"bench-par-v1\""));
        assert!(merged.contains("\"a\": { \"b\": 1 }"));
        // Still one top-level object.
        assert_eq!(merged.matches("population_scaling").count(), 1);
    }

    #[test]
    fn merge_replaces_existing_section() {
        let base = "{\n  \"population_scaling\": { \"old\": true },\n  \"keep\": 7\n}\n";
        let merged = merge_top_level(base, "population_scaling", "{ \"new\": 1 }").unwrap();
        // Everything outside the replaced value, separators included,
        // is kept byte for byte.
        assert_eq!(
            merged,
            "{\n  \"population_scaling\": { \"new\": 1 },\n  \"keep\": 7\n}\n"
        );
        let merged = merge_top_level(&merged, "keep", "8").unwrap();
        assert_eq!(
            merged,
            "{\n  \"population_scaling\": { \"new\": 1 },\n  \"keep\": 8\n}\n"
        );
    }

    #[test]
    fn merge_is_idempotent() {
        let base = "{ \"k\": 1 }";
        let once = merge_top_level(base, "s", "{ \"v\": 1 }").unwrap();
        let twice = merge_top_level(&once, "s", "{ \"v\": 2 }").unwrap();
        assert!(twice.contains("\"v\": 2"));
        assert!(!twice.contains("\"v\": 1"));
        assert_eq!(twice.matches("\"s\"").count(), 1);
    }

    #[test]
    fn merge_skips_keys_inside_strings_and_nested_objects() {
        let base = "{ \"desc\": \"mentions \\\"target\\\" here\", \"nest\": { \"target\": 1 } }";
        let merged = merge_top_level(base, "target", "2").unwrap();
        // The nested and quoted occurrences survive; a new top-level
        // entry is added.
        assert!(merged.contains("\"nest\": { \"target\": 1 }"));
        assert!(merged.contains("\"target\": 2"));
    }

    #[test]
    fn merge_rejects_non_objects() {
        assert!(merge_top_level("not json", "k", "1").is_none());
    }

    #[test]
    fn scale_point_runs_and_fingerprints() {
        let a = run_point(80, LoadModel::PerBrowser);
        let b = run_point(80, LoadModel::PerBrowser);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.wips > 0.0);
        assert!(a.events > 0);
        let c = run_point(80, LoadModel::Cohort { bins: 64 });
        let d = run_point(80, LoadModel::Cohort { bins: 64 });
        assert_eq!(
            c.fingerprint, d.fingerprint,
            "cohort runs must be seeded-deterministic"
        );
        // At 80 browsers the weight is 1; WIPS should land close.
        assert!(
            wips_rel_err(&a, &c) < 0.15,
            "rel err {}",
            wips_rel_err(&a, &c)
        );
    }
}
