//! Integration tests for the evaluation engine: memoized measurements
//! and parallel prefetch of queued trials must be *transparent*.
//! Whatever the engine configuration — cache on or off, one worker or
//! one per core, warm or cold — a session produces byte-identical trace
//! records and bit-equal WIPS. Only the end-of-session `eval` summary
//! record (and `wall_ms`, as everywhere) reflects the engine, so the
//! comparisons here strip both. Prefetch only has work when a tuner
//! queues trials, so the tests that need it run BestConfig, whose
//! rounds are queued whole; the simplex queues nothing.

use ah_webtune::prelude::*;
use obs::Value;
use orchestrator::resilient::run_resilient_session_observed;
use orchestrator::session::tune_observed;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;

fn pinned(topology: Topology, population: u32) -> SessionConfig {
    SessionConfig::new(topology, Workload::Shopping, population)
        .plan(IntervalPlan::tiny())
        .pin_seed(true)
}

/// Drop the trailing `wall_ms` field (host wall-clock time, supposed to
/// vary) and the `eval` summary record (its hit/miss/prefetch counters
/// describe the engine configuration, not the measurements).
fn comparable_lines(sink: &MemorySink) -> Vec<String> {
    sink.records
        .iter()
        .map(|r| r.to_json())
        .filter(|line| !line.starts_with("{\"kind\":\"eval\""))
        .map(|line| match line.find(",\"wall_ms\":") {
            Some(at) => format!("{}}}", &line[..at]),
            None => line,
        })
        .collect()
}

fn traced(cfg: &SessionConfig, method: TuningMethod, iterations: u32) -> (Vec<String>, TuningRun) {
    let mut sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut sink);
    let run = tune_observed(cfg, method, iterations, &mut observer).expect("tuning session");
    (comparable_lines(&sink), run)
}

/// The fig4 driver shape (Default on a single node) and the table4
/// method column (Duplication / Partitioning / Hybrid on a cluster):
/// every method's trace and best WIPS must be oblivious to the cache.
#[test]
fn cached_engine_is_byte_identical_for_every_method() {
    let sessions = [
        (TuningMethod::Default, Topology::single(), 200),
        (
            TuningMethod::Duplication,
            Topology::tiers(2, 2, 2).expect("topology"),
            300,
        ),
        (
            TuningMethod::Partitioning,
            Topology::tiers(2, 2, 2).expect("topology"),
            300,
        ),
        (
            TuningMethod::Hybrid,
            Topology::tiers(2, 2, 2).expect("topology"),
            300,
        ),
    ];
    for (method, topology, population) in sessions {
        let plain = pinned(topology, population);
        let cached = plain
            .clone()
            .eval_settings(EvalSettings::default().cache(true));
        let (lines_a, run_a) = traced(&plain, method, 6);
        let (lines_b, run_b) = traced(&cached, method, 6);
        assert_eq!(
            lines_a, lines_b,
            "{method:?}: cache changed the trace bytes"
        );
        assert_eq!(
            run_a.best_wips.to_bits(),
            run_b.best_wips.to_bits(),
            "{method:?}: cache changed the best WIPS"
        );
        assert_eq!(run_a.best_config, run_b.best_config);
    }
}

/// Parallel prefetch of queued trials (cache + one worker per core)
/// must consume its pre-computed outcomes in exactly the order and with
/// exactly the values of the sequential engine. One server (Default)
/// and two line servers whose queues are zipped (Partitioning).
#[test]
fn speculative_parallel_engine_is_byte_identical() {
    for (method, topology) in [
        (TuningMethod::Default, Topology::single()),
        (
            TuningMethod::Partitioning,
            Topology::tiers(2, 2, 2).expect("topology"),
        ),
    ] {
        let plain = pinned(topology, 250).tuner("bestconfig");
        let prefetching = plain
            .clone()
            .eval_settings(EvalSettings::default().cache(true).threads(0));
        let (lines_a, run_a) = traced(&plain, method, 6);
        let (lines_b, run_b) = traced(&prefetching, method, 6);
        assert_eq!(
            lines_a, lines_b,
            "{method:?}: prefetch changed the trace bytes"
        );
        assert_eq!(run_a.best_wips.to_bits(), run_b.best_wips.to_bits());
        // The engine really did work ahead; it just must not show.
        assert!(
            prefetching.eval.counters().speculated > 0,
            "{method:?}: nothing was prefetched"
        );
    }
}

/// TUNA's confirmation runs arrive as one batch, so they are prefetched
/// too, without changing a traced byte. The seed is not pinned: with a
/// pinned seed a confirmation run re-measures the same scenario and is
/// a plain cache hit.
#[test]
fn tuna_confirmation_batches_are_prefetched_byte_identically() {
    let plain = SessionConfig::new(Topology::single(), Workload::Shopping, 1700)
        .plan(IntervalPlan::tiny())
        .tuner("tuna");
    let prefetching = plain
        .clone()
        .eval_settings(EvalSettings::default().cache(true).threads(2));
    let (lines_a, run_a) = traced(&plain, TuningMethod::Default, 12);
    let (lines_b, run_b) = traced(&prefetching, TuningMethod::Default, 12);
    assert_eq!(lines_a, lines_b, "prefetch changed the trace bytes");
    assert_eq!(run_a.best_wips.to_bits(), run_b.best_wips.to_bits());
    let c = prefetching.eval.counters();
    assert!(
        c.speculated > 0,
        "no confirmation run was prefetched: {c:?}"
    );
    assert_eq!(c.hits + c.misses, 12, "{c:?}");
}

/// Fault noise is applied by the session *after* the cache lookup, so a
/// faulted session (noise spike + mid-measurement crash, retries and
/// all) is also oblivious to the engine.
#[test]
fn faulted_resilient_session_is_byte_identical_with_engine() {
    let plan = IntervalPlan::tiny();
    let window = plan.total().as_secs_f64();
    let crash_at = window + plan.warmup.as_secs_f64() + plan.measure.as_secs_f64() / 2.0;
    let faults = FaultPlan::new()
        .noise_spike(plan.warmup.as_secs_f64() + 1.0, 3.0)
        .crash(crash_at, 1);
    let plain = pinned(Topology::tiers(1, 2, 1).expect("topology"), 250).fault_plan(faults);
    let engined = plain
        .clone()
        .eval_settings(EvalSettings::default().cache(true).threads(0));

    let run_once = |cfg: &SessionConfig| {
        let mut sink = MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut sink);
        let run =
            run_resilient_session_observed(cfg, &ResilienceSettings::default(), 4, &mut observer)
                .expect("resilient session");
        (comparable_lines(&sink), run)
    };
    let (lines_a, run_a) = run_once(&plain);
    let (lines_b, run_b) = run_once(&engined);
    assert_eq!(lines_a, lines_b, "engine changed a faulted session's trace");
    assert_eq!(run_a.best_wips.to_bits(), run_b.best_wips.to_bits());
    assert_eq!(run_a.recoveries.len(), run_b.recoveries.len());
    assert_eq!(run_a.reconfigs.len(), run_b.reconfigs.len());
}

/// An engine left at the library default (no cache, one thread) must
/// stay invisible: no `eval` record, no extra records of any kind.
#[test]
fn disabled_engine_emits_no_eval_record() {
    let cfg = pinned(Topology::single(), 200);
    let mut sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut sink);
    tune_observed(&cfg, TuningMethod::Default, 3, &mut observer).expect("session");
    let iteration_records = sink
        .records
        .iter()
        .filter(|r| r.to_json().starts_with("{\"kind\":\"iteration\""))
        .count();
    assert_eq!(iteration_records, 3, "one iteration record per iteration");
    assert!(sink
        .records
        .iter()
        .all(|r| !r.to_json().starts_with("{\"kind\":\"eval\"")));
}

// -- kill-and-resume with a warm cache ------------------------------------

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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eval-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Killing a prefetching session and resuming restores the memoization
/// cache from the snapshot: the continued run is byte-identical to the
/// uninterrupted one *and* serves its post-resume iterations as cache
/// hits, because the pre-crash engine had already prefetched them with
/// the first BestConfig round. The resumed session runs at width 1,
/// which never prefetches, so its hits can only come from the restored
/// cache. Crash recovery loses no prefetched work.
#[test]
fn kill_and_resume_restores_the_warm_cache() {
    const ITERS: u32 = 8;
    // `eval_settings` installs a *fresh* engine each time (cloning a
    // SessionConfig shares its engine Arc — and its counters — which is
    // exactly what this test must not do).
    let engine = || EvalSettings::default().cache(true).threads(0);
    let base = pinned(Topology::single(), 200).tuner("bestconfig");
    let full_cfg = base.clone().eval_settings(engine());
    let (full_lines, full_run) = traced(&full_cfg, TuningMethod::Default, ITERS);

    let k = 5u64;
    let dir = temp_dir("warm");
    let policy = CheckpointPolicy::new(&dir).every(2);
    let killed = base
        .clone()
        .eval_settings(engine())
        .checkpoint(policy.clone());
    let mut sink = KillSink {
        inner: MemorySink::new(),
        kill_at: k,
    };
    run_killed(|| {
        let mut observer = SessionObserver::with_sink(&mut sink);
        let _ = tune_observed(&killed, TuningMethod::Default, ITERS, &mut observer);
    });

    let resumed_cfg = base
        .eval_settings(EvalSettings::default().cache(true).threads(1))
        .checkpoint(policy.resume(true));
    let mut resumed_sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut resumed_sink);
    let run = tune_observed(&resumed_cfg, TuningMethod::Default, ITERS, &mut observer)
        .expect("resumed session");
    let resumed = comparable_lines(&resumed_sink);

    assert!(
        resumed[0].starts_with("{\"kind\":\"resume\""),
        "{}",
        resumed[0]
    );
    // An iteration spans several records (iteration + tuner); the kill
    // fired on the first record of iteration `k`, so the resumed trace
    // must pick up exactly there.
    let boundary = full_lines
        .iter()
        .position(|l| l.contains(&format!("\"iteration\":{k},")))
        .expect("iteration k in the reference trace");
    assert_eq!(
        &resumed[1..],
        &full_lines[boundary..],
        "post-resume trace must match the uninterrupted run"
    );
    assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
    assert_eq!(run.best_config, full_run.best_config);

    // The warm-cache proof: the snapshot at iteration 4 already held the
    // prefetched outcomes for the live iterations 5..8, so the resumed
    // session replays them as hits without ever re-running the DES.
    let counters = resumed_cfg.eval.counters();
    assert_eq!(
        counters.hits,
        u64::from(ITERS) - k,
        "every post-resume iteration must be served from the restored cache: {counters:?}"
    );
    assert_eq!(counters.misses, 0, "{counters:?}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

// -- unpinned sessions keep only what a later lookup can use ---------------

fn unpinned(topology: Topology, population: u32) -> SessionConfig {
    SessionConfig::new(topology, Workload::Shopping, population).plan(IntervalPlan::tiny())
}

/// Notes the cache's size at every `iteration` record, which the session
/// emits right after the iteration's lookup.
struct CacheSizes {
    engine: Arc<EvalEngine>,
    sizes: Vec<usize>,
}

impl TraceSink for CacheSizes {
    fn emit(&mut self, record: &TraceRecord) {
        if record.kind() == "iteration" {
            self.sizes.push(self.engine.len());
        }
    }
}

/// The `eval_cache` entry count of every snapshot in `dir`, by file name.
fn snapshot_cache_sizes(dir: &std::path::Path) -> Vec<(String, usize)> {
    let mut sizes: Vec<(String, usize)> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("ckpt"))
        .map(|p| {
            let state = persist::snapshot::load(&p).expect("snapshot");
            let cache = state.require("eval_cache").expect("eval_cache");
            let entries = cache.field_list("entries").expect("entries").len();
            (
                p.file_name()
                    .expect("file name")
                    .to_string_lossy()
                    .into_owned(),
                entries,
            )
        })
        .collect();
    sizes.sort();
    sizes
}

/// Every iteration of an unpinned session has its own seed, so no
/// outcome is asked for twice: at width 1 the cache stays empty through
/// the whole session and every snapshot's `eval_cache` lists no entries,
/// while the lookups are still counted.
#[test]
fn unpinned_checkpointed_session_keeps_no_outcomes() {
    let dir = temp_dir("unpinned");
    let cfg = unpinned(Topology::tiers(2, 2, 2).expect("topology"), 300)
        .eval_settings(EvalSettings::default().cache(true))
        .checkpoint(CheckpointPolicy::new(&dir).every(2));
    let mut sink = CacheSizes {
        engine: cfg.eval.clone(),
        sizes: Vec::new(),
    };
    let mut observer = SessionObserver::with_sink(&mut sink);
    tune_observed(&cfg, TuningMethod::Hybrid, 7, &mut observer).expect("checkpointed session");
    assert_eq!(sink.sizes, [0; 7], "an outcome outlived its lookup");
    assert_eq!(
        snapshot_cache_sizes(&dir),
        [
            ("snap-00000004.ckpt".to_string(), 0),
            ("snap-00000006.ckpt".to_string(), 0)
        ]
    );
    let c = cfg.eval.counters();
    assert_eq!((c.hits, c.misses), (0, 7), "{c:?}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// An unpinned prefetching BestConfig session consumes every prefetched
/// outcome and ends with an empty cache. Killed mid-round, its last
/// snapshot holds the round's outcomes not yet measured; resumed at
/// width 1, which never prefetches, it serves every post-resume
/// iteration from them, and its trace equals the uninterrupted run's.
#[test]
fn unpinned_kill_and_resume_serves_the_restored_prefetch() {
    const ITERS: u32 = 8;
    let base = unpinned(Topology::single(), 200).tuner("bestconfig");
    let full_cfg = base
        .clone()
        .eval_settings(EvalSettings::default().cache(true).threads(2));
    let (full_lines, full_run) = traced(&full_cfg, TuningMethod::Default, ITERS);
    let c = full_cfg.eval.counters();
    assert!(c.speculated > 0, "nothing was prefetched: {c:?}");
    assert!(full_cfg.eval.is_empty(), "a prefetched outcome went unused");

    let k = 5u64;
    let dir = temp_dir("unpinned-warm");
    let policy = CheckpointPolicy::new(&dir).every(2);
    let killed = base
        .clone()
        .eval_settings(EvalSettings::default().cache(true).threads(2))
        .checkpoint(policy.clone());
    let mut sink = KillSink {
        inner: MemorySink::new(),
        kill_at: k,
    };
    run_killed(|| {
        let mut observer = SessionObserver::with_sink(&mut sink);
        let _ = tune_observed(&killed, TuningMethod::Default, ITERS, &mut observer);
    });

    let resumed_cfg = base
        .eval_settings(EvalSettings::default().cache(true).threads(1))
        .checkpoint(policy.resume(true));
    let mut resumed_sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut resumed_sink);
    let run = tune_observed(&resumed_cfg, TuningMethod::Default, ITERS, &mut observer)
        .expect("resumed session");
    let resumed = comparable_lines(&resumed_sink);
    assert!(
        resumed[0].starts_with("{\"kind\":\"resume\""),
        "{}",
        resumed[0]
    );
    let boundary = full_lines
        .iter()
        .position(|l| l.contains(&format!("\"iteration\":{k},")))
        .expect("iteration k in the reference trace");
    assert_eq!(
        &resumed[1..],
        &full_lines[boundary..],
        "post-resume trace must match the uninterrupted run"
    );
    assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
    assert_eq!(run.best_config, full_run.best_config);

    // The snapshot after iteration 3 held the round's outcomes for
    // iterations 4..8. Iteration 4 is replayed from the journal without
    // a lookup, so its outcome is the one left at the end.
    let counters = resumed_cfg.eval.counters();
    assert_eq!(
        (counters.hits, counters.misses),
        (u64::from(ITERS) - k, 0),
        "every post-resume iteration must be served from the restored cache"
    );
    assert_eq!(resumed_cfg.eval.len(), 1);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

// -- thread-width independence (1 / 2 / 8 workers) -------------------------

/// The scheduling guarantee behind the shared worker pool: worker count
/// is a wall-clock knob, never a results knob. The same seeded session
/// run with 1, 2, and 8 evaluation *and* replication threads produces
/// byte-identical traces, bit-equal WIPS, the same best configuration,
/// and the same session fingerprint — for the simplex, which runs
/// sequentially at any width, and for BestConfig, whose queued rounds
/// are prefetched.
#[test]
fn thread_width_1_2_8_is_byte_identical() {
    let cfg_at = |tuner: &str, w: usize| {
        pinned(Topology::tiers(2, 2, 2).expect("topology"), 300)
            .tuner(tuner)
            .eval_settings(EvalSettings::default().cache(true).threads(w))
            .replication_threads(w)
    };
    for tuner in ["simplex", "bestconfig"] {
        let runs: Vec<(Vec<String>, TuningRun)> = [1usize, 2, 8]
            .iter()
            .map(|&w| traced(&cfg_at(tuner, w), TuningMethod::Partitioning, 6))
            .collect();
        let (lines_1, run_1) = &runs[0];
        for (w, (lines, run)) in [2usize, 8].iter().zip(&runs[1..]) {
            assert_eq!(
                lines_1, lines,
                "{tuner}: {w} workers changed the trace bytes"
            );
            assert_eq!(
                run_1.best_wips.to_bits(),
                run.best_wips.to_bits(),
                "{tuner}: {w} workers changed the best WIPS"
            );
            assert_eq!(run_1.best_config, run.best_config);
        }
    }
    // The session fingerprint is a function of the scenario inputs, so
    // the engine width must not leak into it: a checkpoint written at
    // one width resumes at any other.
    let fp_at = |w: usize| {
        orchestrator::checkpoint::session_fingerprint(&cfg_at("simplex", w), "partitioning", 6, 0)
    };
    assert_eq!(fp_at(1), fp_at(2));
    assert_eq!(fp_at(1), fp_at(8));
}

/// Checkpoint artifacts are width-independent too: two prefetching
/// widths write snapshot + journal files that are byte-identical, down
/// to the serialized memoization cache (every width stores the same
/// prefetched outcomes, merged in the same order). A simplex session
/// queues nothing, so at width 2 it prefetches nothing and writes the
/// same files as at width 1.
#[test]
fn checkpoint_files_are_width_independent() {
    let run_at = |tuner: &str, w: usize| {
        let dir = temp_dir(&format!("{tuner}-width-{w}"));
        let cfg = pinned(Topology::single(), 200)
            .tuner(tuner)
            .eval_settings(EvalSettings::default().cache(true).threads(w))
            .checkpoint(CheckpointPolicy::new(&dir).every(2));
        let run = tune_observed(&cfg, TuningMethod::Default, 6, &mut SessionObserver::none())
            .expect("checkpointed session");
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("checkpoint dir")
            .map(|e| {
                let e = e.expect("dir entry");
                let name = e.file_name().to_string_lossy().into_owned();
                let bytes = std::fs::read(e.path()).expect("checkpoint file");
                (name, bytes)
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        std::fs::remove_dir_all(&dir).expect("cleanup");
        (files, run, cfg.eval.counters())
    };
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    for (tuner, [a, b]) in [("bestconfig", [2, 8]), ("simplex", [1, 2])] {
        let (files_a, run_a, counters_a) = run_at(tuner, a);
        let (files_b, run_b, counters_b) = run_at(tuner, b);
        assert!(
            files_a.iter().any(|(n, _)| n.starts_with("snap-")),
            "{tuner}: expected at least one snapshot: {:?}",
            names(&files_a)
        );
        assert_eq!(names(&files_a), names(&files_b), "{tuner}");
        for ((name, bytes_a), (_, bytes_b)) in files_a.iter().zip(&files_b) {
            assert_eq!(
                bytes_a, bytes_b,
                "{tuner}: {name} differs between widths {a} and {b}"
            );
        }
        assert_eq!(run_a.best_wips.to_bits(), run_b.best_wips.to_bits());
        if tuner == "bestconfig" {
            assert!(counters_a.speculated > 0, "{counters_a:?}");
        } else {
            assert_eq!(counters_b.speculated, 0, "the simplex prefetched");
            assert_eq!(counters_a, counters_b, "width changed the simplex's engine");
        }
    }
}

/// Kill a prefetching session mid-run at one width and resume it at a
/// *different* width: the continued trace must still match the
/// uninterrupted sequential run byte for byte. Crash recovery, the
/// restored cache, and the worker pool compose without bleeding state.
#[test]
fn kill_and_resume_mid_speculation_is_width_independent() {
    const ITERS: u32 = 8;
    let base = pinned(Topology::single(), 200).tuner("bestconfig");
    // Sequential reference (no cache, one worker): ground truth bytes.
    let (full_lines, full_run) = traced(&base, TuningMethod::Default, ITERS);

    let k = 5u64;
    let dir = temp_dir("width-switch");
    let policy = CheckpointPolicy::new(&dir).every(2);
    let killed = base
        .clone()
        .eval_settings(EvalSettings::default().cache(true).threads(2))
        .checkpoint(policy.clone());
    let mut sink = KillSink {
        inner: MemorySink::new(),
        kill_at: k,
    };
    run_killed(|| {
        let mut observer = SessionObserver::with_sink(&mut sink);
        let _ = tune_observed(&killed, TuningMethod::Default, ITERS, &mut observer);
    });
    // The pre-crash engine was prefetching when the kill fired.
    assert!(
        killed.eval.counters().speculated > 0,
        "the killed session never prefetched: {:?}",
        killed.eval.counters()
    );

    let resumed_cfg = base
        .eval_settings(EvalSettings::default().cache(true).threads(8))
        .checkpoint(policy.resume(true));
    let mut resumed_sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut resumed_sink);
    let run = tune_observed(&resumed_cfg, TuningMethod::Default, ITERS, &mut observer)
        .expect("resumed session");
    let resumed = comparable_lines(&resumed_sink);

    assert!(
        resumed[0].starts_with("{\"kind\":\"resume\""),
        "{}",
        resumed[0]
    );
    let boundary = full_lines
        .iter()
        .position(|l| l.contains(&format!("\"iteration\":{k},")))
        .expect("iteration k in the reference trace");
    assert_eq!(
        &resumed[1..],
        &full_lines[boundary..],
        "post-resume trace at width 8 must match the sequential run"
    );
    assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
    assert_eq!(run.best_config, full_run.best_config);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
