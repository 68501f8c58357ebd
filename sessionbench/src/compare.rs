//! `exp_profile compare A B`: two sets of runs, judged by the bounds in
//! `BENCHMARK.json`.
//!
//! A set is a file of result lines written with `--out` (one JSON object
//! per run). For every (workload, metric) the comparison prints each
//! side's median and quartiles. An end-to-end metric whose quartile
//! spread on either side exceeds its bound is "unresolved"; otherwise
//! it is a violation when B's median is worse than A's by more than the
//! bound. Per-layer metrics have no bound and are printed for reading.

use crate::json::Json;
use crate::stats::Quartiles;

use std::collections::BTreeMap;
use std::path::Path;

/// One metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: Option<f64>,
}

fn declared(bench: &Json) -> Vec<Declared> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in bench.get(section).map(Json::as_array).unwrap_or_default() {
            out.push(Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    out
}

/// `(workload, metric) -> values` over every result line of a set.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn load_set(path: &Path) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = Set::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{}:{}: no result metrics", path.display(), n + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                set.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(set)
}

/// Verdict for one metric: empty without a bound, else `ok`,
/// `unresolved` or `VIOLATION`.
fn verdict(d: &Declared, a: &Quartiles, b: &Quartiles) -> &'static str {
    let Some(bound) = d.bound else {
        return "";
    };
    if a.spread() > bound || b.spread() > bound {
        return "unresolved";
    }
    let worse = if d.higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    };
    if worse > bound * a.median.abs() {
        "VIOLATION"
    } else {
        "ok"
    }
}

/// Print the comparison; returns the number of violations.
pub fn compare(a: &Path, b: &Path, bench: &Path) -> Result<usize, String> {
    let bench_text =
        std::fs::read_to_string(bench).map_err(|e| format!("{}: {e}", bench.display()))?;
    let metrics =
        declared(&Json::parse(&bench_text).map_err(|e| format!("{}: {e}", bench.display()))?);
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let workloads: std::collections::BTreeSet<&String> = set_a.keys().map(|(w, _)| w).collect();
    let fmt = |q: &Quartiles| format!("{:.4} [{:.4}, {:.4}] n={}", q.median, q.q1, q.q3, q.n);
    let (mut violations, mut unresolved) = (0, 0);
    println!(
        "{:<16} {:<30} {:<6} {:<38} {:<38} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for w in workloads {
        for d in &metrics {
            let key = (w.clone(), d.name.clone());
            let (Some(qa), Some(qb)) = (
                set_a.get(&key).and_then(|v| Quartiles::of(v)),
                set_b.get(&key).and_then(|v| Quartiles::of(v)),
            ) else {
                continue;
            };
            let v = verdict(d, &qa, &qb);
            violations += usize::from(v == "VIOLATION");
            unresolved += usize::from(v == "unresolved");
            let change = if qa.median != 0.0 {
                format!("{:+.2}%", 100.0 * (qb.median / qa.median - 1.0))
            } else {
                "-".into()
            };
            println!(
                "{:<16} {:<30} {:<6} {:<38} {:<38} {:>8} {:>6}  {v}",
                w,
                d.name,
                d.unit,
                fmt(&qa),
                fmt(&qb),
                change,
                d.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0))
            );
        }
    }
    println!("{violations} violation(s), {unresolved} unresolved");
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(values: &[f64]) -> Quartiles {
        Quartiles::of(values).unwrap()
    }

    fn metric(higher: bool) -> Declared {
        Declared {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better: higher,
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = q(&[10.0, 10.0, 10.0, 10.0]);
        assert_eq!(verdict(&metric(false), &a, &q(&[10.5; 4])), "ok");
        assert_eq!(verdict(&metric(false), &a, &q(&[11.5; 4])), "VIOLATION");
        assert_eq!(verdict(&metric(false), &a, &q(&[8.0; 4])), "ok");
        assert_eq!(verdict(&metric(true), &a, &q(&[8.0; 4])), "VIOLATION");
        assert_eq!(verdict(&metric(true), &a, &q(&[12.0; 4])), "ok");
        // A quartile spread wider than the bound cannot be judged.
        assert_eq!(
            verdict(&metric(false), &q(&[5.0, 10.0, 15.0, 20.0]), &q(&[30.0; 4])),
            "unresolved"
        );
    }
}
