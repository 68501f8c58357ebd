//! Shared conformance suite for every tuner in the harmony registry.
//!
//! Whatever the algorithm — simplex geometry, divide-and-diverge
//! sampling, comparison classification, noise-robust confirmation, or a
//! baseline — a registered tuner must speak the same ask/tell v2
//! protocol: in-space proposals, typed measurement observation, batch
//! proposals with stable trial ids, `reset()` back to a fresh start,
//! `best()` consistent with what was observed, and bit-exact
//! `save_state`/`restore_state` round-trips through `persist::State`.
//! The four session tuners must additionally survive kill-and-resume
//! through the checkpoint path with byte-identical traces.

use ah_webtune::prelude::*;
use harmony::param::ParamDef;
use obs::Value;
use orchestrator::session::tune_observed;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

/// A small space every algorithm can search quickly.
fn space() -> ParamSpace {
    ParamSpace::new(vec![
        ParamDef::new("alpha", 0, 120, 12),
        ParamDef::new("beta", 1, 64, 48),
        ParamDef::new("gamma", 0, 9, 3),
    ])
}

/// Deterministic objective: peak at (84, 16, 7), no noise.
fn score(c: &Configuration) -> f64 {
    let target = [84i64, 16, 7];
    -target
        .iter()
        .enumerate()
        .map(|(i, t)| (c.get(i) - t).abs() as f64)
        .sum::<f64>()
}

fn fresh(name: &str) -> Box<dyn Tuner + Send> {
    make_tuner(name, space(), 0xC0FFEE).expect(name)
}

#[test]
fn ask_tell_protocol_is_honoured_by_every_tuner() {
    for name in tuner_names() {
        let s = space();
        let mut t = fresh(name);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut last_best = f64::NEG_INFINITY;
        for i in 0..30u64 {
            let c = t.propose();
            assert_eq!(c.values().len(), s.dims(), "{name}: proposal dims");
            for (d, def) in s.defs().iter().enumerate() {
                let v = c.get(d);
                assert!(
                    v >= def.min && v <= def.max,
                    "{name}: proposal {i} out of range on dim {d}: {v}"
                );
            }
            let p = score(&c);
            lo = lo.min(p);
            hi = hi.max(p);
            t.observe(p);
            assert_eq!(t.evaluations(), i + 1, "{name}: evaluations count");

            let (_, best_perf) = t
                .best()
                .unwrap_or_else(|| panic!("{name}: best after observe"));
            assert!(
                best_perf >= lo - 1e-9 && best_perf <= hi + 1e-9,
                "{name}: best {best_perf} outside observed [{lo}, {hi}]"
            );
            // Estimate-based tuners (tuna) may revise their best estimate
            // downward as replicated observations arrive; for everyone
            // else best() is the running maximum and must not regress.
            if *name != "tuna" {
                assert!(
                    best_perf >= last_best,
                    "{name}: best went backwards: {best_perf} < {last_best}"
                );
                last_best = best_perf;
            }
        }
    }
}

#[test]
fn typed_measurements_are_accepted_by_every_tuner() {
    for name in tuner_names() {
        let mut t = fresh(name);
        for i in 0..12u32 {
            let c = t.propose();
            let m = Measurement::point(score(&c))
                .with_ci(0.5 / (i + 1) as f64)
                .with_replications(1 + i % 3);
            t.observe_measurement(m);
        }
        assert_eq!(t.evaluations(), 12);
        assert!(t.best().is_some(), "{name}");
    }
}

#[test]
fn batch_protocol_has_unique_ids_and_out_of_order_observation() {
    for name in tuner_names() {
        let mut t = fresh(name);
        let before = t.evaluations();
        let batch = t.propose_batch();
        assert!(!batch.is_empty(), "{name}: empty batch");
        let mut ids: Vec<u64> = batch.iter().map(|trial| trial.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), batch.len(), "{name}: duplicate trial ids");
        // Observe in reverse order: ids, not arrival order, bind results.
        for trial in batch.iter().rev() {
            t.observe_trial(trial.id, Measurement::point(score(&trial.config)));
        }
        assert_eq!(
            t.evaluations(),
            before + batch.len() as u64,
            "{name}: batch observations must all count"
        );
        // The protocol continues cleanly after a full batch.
        let c = t.propose();
        t.observe(score(&c));
        assert!(t.batch_size() >= 1, "{name}");
    }
}

#[test]
fn reset_restores_a_fresh_start() {
    for name in tuner_names() {
        let mut used = fresh(name);
        for _ in 0..12 {
            let c = used.propose();
            used.observe(score(&c));
        }
        used.reset();
        assert_eq!(used.evaluations(), 0, "{name}: evaluations after reset");
        assert!(used.best().is_none(), "{name}: best after reset");

        // A reset tuner replays exactly like a freshly built one.
        let mut pristine = fresh(name);
        for i in 0..12 {
            let a = used.propose();
            let b = pristine.propose();
            assert_eq!(a, b, "{name}: diverged at post-reset proposal {i}");
            used.observe(score(&a));
            pristine.observe(score(&b));
        }
    }
}

#[test]
fn save_restore_round_trip_is_bit_exact() {
    for name in tuner_names() {
        let mut original = fresh(name);
        for _ in 0..17 {
            let c = original.propose();
            original.observe(score(&c));
        }
        let saved = original.save_state();

        let mut restored = fresh(name);
        restored
            .restore_state(&saved)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        assert_eq!(
            restored.save_state(),
            saved,
            "{name}: save -> restore -> save must be bit-exact"
        );
        assert_eq!(restored.evaluations(), original.evaluations(), "{name}");

        // The restored tuner continues identically to the original.
        for i in 0..25 {
            let a = original.propose();
            let b = restored.propose();
            assert_eq!(a, b, "{name}: diverged at post-restore proposal {i}");
            original.observe(score(&a));
            restored.observe(score(&b));
        }
        assert_eq!(
            restored.save_state(),
            original.save_state(),
            "{name}: states must stay identical after continuing"
        );
    }
}

#[test]
fn restore_rejects_a_foreign_algorithms_state() {
    let saved = {
        let mut t = fresh("bestconfig");
        for _ in 0..5 {
            let c = t.propose();
            t.observe(score(&c));
        }
        t.save_state()
    };
    for name in ["simplex", "classytune", "tuna", "random"] {
        let mut t = fresh(name);
        assert!(
            t.restore_state(&saved).is_err(),
            "{name} must refuse bestconfig state"
        );
    }
}

// -- kill-and-resume through the checkpoint path ---------------------------

const ITERS: u32 = 8;

fn pinned(tuner: &str) -> SessionConfig {
    SessionConfig::new(Topology::single(), Workload::Shopping, 200)
        .plan(IntervalPlan::tiny())
        .pin_seed(true)
        .tuner(tuner)
}

fn strip_wall_ms(line: String) -> String {
    match line.find(",\"wall_ms\":") {
        Some(at) => format!("{}}}", &line[..at]),
        None => line,
    }
}

fn lines_of(sink: &MemorySink) -> Vec<String> {
    sink.records
        .iter()
        .map(|r| strip_wall_ms(r.to_json()))
        .collect()
}

/// Index of the first record of iteration `k` — the resume boundary.
fn boundary(lines: &[String], k: u64) -> usize {
    let tag = format!("\"iteration\":{k},");
    lines
        .iter()
        .position(|l| l.contains(&tag))
        .unwrap_or(lines.len())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tuner-conformance-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct KillSink {
    inner: MemorySink,
    kill_at: u64,
}

impl TraceSink for KillSink {
    fn emit(&mut self, record: &TraceRecord) {
        if let Some(Value::UInt(i)) = record.get("iteration") {
            if *i >= self.kill_at {
                panic!("simulated crash at iteration {i}");
            }
        }
        self.inner.emit(record);
    }
}

fn run_killed<F: FnOnce()>(f: F) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    assert!(outcome.is_err(), "the kill sink should have fired");
}

fn policy(dir: &Path, resume: bool) -> CheckpointPolicy {
    CheckpointPolicy::new(dir).every(2).resume(resume)
}

/// Every session tuner — not just the simplex — survives `kill -9`
/// mid-run and resumes byte-identically through the checkpoint path.
#[test]
fn every_session_tuner_kills_and_resumes_byte_identically() {
    for name in ["simplex", "bestconfig", "classytune", "tuna"] {
        let cfg = pinned(name);
        let mut full_sink = MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut full_sink);
        let full_run = tune_observed(&cfg, TuningMethod::Default, ITERS, &mut observer)
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        let full_lines = lines_of(&full_sink);
        assert!(
            full_lines
                .iter()
                .any(|l| l.contains(&format!("\"name\":\"{name}\""))),
            "{name}: tuner trace records must carry the registry name"
        );

        let k = 5u64;
        let dir = temp_dir(name);
        let ck_cfg = cfg.clone().checkpoint(policy(&dir, false));
        let mut sink = KillSink {
            inner: MemorySink::new(),
            kill_at: k,
        };
        run_killed(|| {
            let mut observer = SessionObserver::with_sink(&mut sink);
            let _ = tune_observed(&ck_cfg, TuningMethod::Default, ITERS, &mut observer);
        });
        let cut = boundary(&full_lines, k);
        assert_eq!(
            lines_of(&sink.inner),
            full_lines[..cut],
            "{name}: pre-kill trace"
        );

        let resume_cfg = cfg.clone().checkpoint(policy(&dir, true));
        let mut resumed_sink = MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut resumed_sink);
        let run = tune_observed(&resume_cfg, TuningMethod::Default, ITERS, &mut observer)
            .unwrap_or_else(|e| panic!("{name}: resume: {e}"));
        let resumed = lines_of(&resumed_sink);
        assert!(
            resumed[0].contains("\"kind\":\"resume\""),
            "{name}: {}",
            resumed[0]
        );
        assert_eq!(
            &resumed[1..],
            &full_lines[cut..],
            "{name}: post-resume trace"
        );
        assert_eq!(
            run.best_wips.to_bits(),
            full_run.best_wips.to_bits(),
            "{name}: best WIPS must be bit-equal after resume"
        );
        assert_eq!(run.best_config, full_run.best_config, "{name}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A checkpoint written under one tuner must refuse to resume under
/// another: the tuner name is folded into the session fingerprint.
#[test]
fn resume_under_a_different_tuner_is_refused() {
    let dir = temp_dir("mismatch");
    let cfg = pinned("bestconfig");
    let ck_cfg = cfg.clone().checkpoint(policy(&dir, false));
    let mut sink = KillSink {
        inner: MemorySink::new(),
        kill_at: 4,
    };
    run_killed(|| {
        let mut observer = SessionObserver::with_sink(&mut sink);
        let _ = tune_observed(&ck_cfg, TuningMethod::Default, ITERS, &mut observer);
    });

    let other = pinned("tuna").checkpoint(policy(&dir, true));
    let err = tune_observed(
        &other,
        TuningMethod::Default,
        ITERS,
        &mut SessionObserver::none(),
    )
    .unwrap_err();
    assert!(matches!(err, SessionError::Checkpoint(_)), "{err:?}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `--tuner`-style selection by name flows through the session layer,
/// and an unknown name is a typed error listing the registry.
#[test]
fn sessions_accept_every_registered_tuner_and_reject_unknown_names() {
    for name in tuner_names() {
        let cfg = pinned(name);
        let run = tune_observed(&cfg, TuningMethod::Default, 2, &mut SessionObserver::none())
            .unwrap_or_else(|e| panic!("{name}: session: {e}"));
        assert_eq!(run.records.len(), 2, "{name}");
    }
    let err = tune_observed(
        &pinned("magic"),
        TuningMethod::Default,
        2,
        &mut SessionObserver::none(),
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown tuner 'magic'"), "{msg}");
    for name in tuner_names() {
        assert!(msg.contains(name), "error must list '{name}': {msg}");
    }
}
