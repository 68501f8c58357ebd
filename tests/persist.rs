//! Kill-and-resume torture tests for crash-safe session persistence.
//!
//! Each test interrupts a checkpointed session at a seeded point (a
//! panicking trace sink stands in for `kill -9`: journal appends are
//! flushed per frame, so the directory left behind is exactly what an
//! interrupted process leaves), resumes it, and requires the continued
//! run to be **byte-identical** — same trace records, same best
//! configuration, bit-equal WIPS — to an uninterrupted pinned-seed run.
//! A panic unwinds, and unwinding joins the snapshot writer, so one test
//! also kills the CLI for real, with a write cut short wherever it was.

use ah_webtune::prelude::*;
use obs::Value;
use orchestrator::resilient::run_resilient_session_observed;
use orchestrator::session::tune_observed;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

fn pinned(topology: Topology, population: u32) -> SessionConfig {
    SessionConfig::new(topology, Workload::Shopping, population)
        .plan(IntervalPlan::tiny())
        .pin_seed(true)
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

/// Index of the first record belonging to iteration `k` — the resume
/// boundary. An iteration spans several records (iteration + tuner), so
/// slicing the reference trace at `k` records would land mid-iteration.
fn boundary(lines: &[String], k: u64) -> usize {
    let tag = format!("\"iteration\":{k},");
    lines
        .iter()
        .position(|l| l.contains(&tag))
        .unwrap_or(lines.len())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "persist-torture-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A sink that simulates `kill -9` at the start of iteration `kill_at`:
/// it panics on the first record carrying `iteration >= kill_at`, so the
/// trace (and, because the session appends to its journal only *after*
/// tracing an iteration, the journal too) covers exactly the iterations
/// before the kill point.
struct KillSink {
    inner: MemorySink,
    kill_at: u64,
}

impl KillSink {
    fn new(kill_at: u64) -> Self {
        KillSink {
            inner: MemorySink::new(),
            kill_at,
        }
    }
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

/// Run `f` expecting the simulated crash, swallowing the panic output.
fn run_killed<F: FnOnce()>(f: F) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    assert!(outcome.is_err(), "the kill sink should have fired");
}

/// Five interrupt points drawn from a pinned seed, avoiding duplicates
/// and covering at least one snapshot-cadence boundary.
fn interrupt_points(iterations: u64, seed: u64) -> Vec<u64> {
    let mut rng = simkit::rng::SimRng::new(seed);
    let mut points = Vec::new();
    while points.len() < 5 {
        let k = 1 + rng.next_u64() % (iterations - 1);
        if !points.contains(&k) {
            points.push(k);
        }
    }
    points
}

const ITERS: u32 = 10;

fn policy(dir: &Path, resume: bool) -> CheckpointPolicy {
    CheckpointPolicy::new(dir).every(2).resume(resume)
}

fn full_tune_trace(cfg: &SessionConfig) -> (Vec<String>, TuningRun) {
    let mut sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut sink);
    let run = tune_observed(cfg, TuningMethod::Default, ITERS, &mut observer).expect("full run");
    (lines_of(&sink), run)
}

fn kill_tune_at(cfg: &SessionConfig, dir: &Path, k: u64) -> Vec<String> {
    let ck_cfg = cfg.clone().checkpoint(policy(dir, false));
    let mut sink = KillSink::new(k);
    run_killed(|| {
        let mut observer = SessionObserver::with_sink(&mut sink);
        let _ = tune_observed(&ck_cfg, TuningMethod::Default, ITERS, &mut observer);
    });
    lines_of(&sink.inner)
}

fn resume_tune(cfg: &SessionConfig, dir: &Path) -> (Vec<String>, TuningRun) {
    let resume_cfg = cfg.clone().checkpoint(policy(dir, true));
    let mut sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut sink);
    let run =
        tune_observed(&resume_cfg, TuningMethod::Default, ITERS, &mut observer).expect("resume");
    (lines_of(&sink), run)
}

/// Acceptance: killing a plain tuning session at any of five seeded
/// points and resuming reproduces the uninterrupted run exactly — the
/// pre-kill trace plus the post-resume trace is byte-identical to the
/// one-shot trace, and the final result is bit-equal.
#[test]
fn kill_and_resume_matches_uninterrupted_plain() {
    let cfg = pinned(Topology::single(), 200);
    let (full_lines, full_run) = full_tune_trace(&cfg);
    let iteration_records = full_lines
        .iter()
        .filter(|l| l.starts_with("{\"kind\":\"iteration\""))
        .count();
    assert_eq!(iteration_records, ITERS as usize);

    for k in interrupt_points(ITERS as u64, 0xD1E_0FF) {
        let dir = temp_dir(&format!("plain-{k}"));
        let pre = kill_tune_at(&cfg, &dir, k);
        let cut = boundary(&full_lines, k);
        assert_eq!(pre, full_lines[..cut], "pre-kill trace at k={k}");

        let (resumed, run) = resume_tune(&cfg, &dir);
        assert!(resumed[0].contains("\"kind\":\"resume\""), "{}", resumed[0]);
        assert!(
            resumed[0].contains("\"method\":\"Default method\"")
                && resumed[0].contains(&format!("\"iteration\":{k}")),
            "resume record at k={k}: {}",
            resumed[0]
        );
        assert_eq!(
            &resumed[1..],
            &full_lines[cut..],
            "post-resume trace at k={k}"
        );
        assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
        assert_eq!(run.best_config, full_run.best_config);
        assert_eq!(run.convergence_iteration, full_run.convergence_iteration);
        assert_eq!(run.records.len(), full_run.records.len());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A checkpointed run that is never interrupted must behave exactly like
/// an unpersisted one (checkpointing is observation, not perturbation).
#[test]
fn checkpointed_run_is_byte_identical_to_plain() {
    let cfg = pinned(Topology::single(), 200);
    let (full_lines, full_run) = full_tune_trace(&cfg);

    let dir = temp_dir("uninterrupted");
    let ck_cfg = cfg.clone().checkpoint(policy(&dir, false));
    let mut sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut sink);
    let run = tune_observed(&ck_cfg, TuningMethod::Default, ITERS, &mut observer).expect("run");
    assert_eq!(lines_of(&sink), full_lines);
    assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
    assert_eq!(run.best_config, full_run.best_config);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Resilient sessions under a crashing fault plan survive interruption
/// at every point 1..=5 — including mid-fault-window kills — and resume
/// byte-identically: retries, breaker counts, jitter draws, and
/// failure-driven node moves all continue as if never stopped.
#[test]
fn kill_and_resume_matches_under_fault_plan() {
    const FAULT_ITERS: u32 = 6;
    let total = IntervalPlan::tiny().total().as_secs_f64();
    let cfg = pinned(Topology::tiers(1, 2, 1).expect("topology"), 300)
        .fault_plan(FaultPlan::new().crash(total + 7.0, 1));
    let settings = ResilienceSettings::default();

    let mut full_sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut full_sink);
    let full_run = run_resilient_session_observed(&cfg, &settings, FAULT_ITERS, &mut observer)
        .expect("full resilient run");
    let full_lines = lines_of(&full_sink);

    for k in 1..FAULT_ITERS as u64 {
        let dir = temp_dir(&format!("fault-{k}"));
        let ck_cfg = cfg.clone().checkpoint(policy(&dir, false));
        let mut sink = KillSink::new(k);
        run_killed(|| {
            let mut observer = SessionObserver::with_sink(&mut sink);
            let _ = run_resilient_session_observed(&ck_cfg, &settings, FAULT_ITERS, &mut observer);
        });
        // Everything traced before the kill belongs to iterations < k,
        // so the pre-kill trace is a prefix of the uninterrupted one and
        // its length marks the resume boundary.
        let pre = lines_of(&sink.inner);
        assert_eq!(pre, full_lines[..pre.len()], "pre-kill trace at k={k}");

        let resume_cfg = cfg.clone().checkpoint(policy(&dir, true));
        let mut resumed_sink = MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut resumed_sink);
        let run =
            run_resilient_session_observed(&resume_cfg, &settings, FAULT_ITERS, &mut observer)
                .expect("resumed resilient run");
        let resumed = lines_of(&resumed_sink);
        assert!(resumed[0].contains("\"kind\":\"resume\""), "{}", resumed[0]);
        assert!(
            resumed[0].contains("\"method\":\"resilient\""),
            "{}",
            resumed[0]
        );
        assert_eq!(
            &resumed[1..],
            &full_lines[pre.len()..],
            "post-resume trace at k={k}"
        );
        assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
        assert_eq!(run.final_topology, full_run.final_topology);
        assert_eq!(run.records.len(), full_run.records.len());
        assert_eq!(run.recoveries.len(), full_run.recoveries.len());
        assert_eq!(run.reconfigs.len(), full_run.reconfigs.len());
        assert_eq!(run.faults.len(), full_run.faults.len());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Garbage appended to the journal (a torn final frame) is truncated
/// away on recovery; the resumed run is still exact.
#[test]
fn torn_journal_tail_is_tolerated() {
    let cfg = pinned(Topology::single(), 200);
    let (full_lines, full_run) = full_tune_trace(&cfg);

    let dir = temp_dir("torn-tail");
    let k = 5u64;
    kill_tune_at(&cfg, &dir, k);
    let journal = dir.join("journal.wal");
    let mut bytes = std::fs::read(&journal).expect("journal");
    bytes.extend_from_slice(&[0x17, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(&journal, bytes).expect("append garbage");

    let (resumed, run) = resume_tune(&cfg, &dir);
    assert!(resumed[0].contains("\"kind\":\"resume\""));
    assert_eq!(&resumed[1..], &full_lines[boundary(&full_lines, k)..]);
    assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A corrupted newest snapshot is quarantined (renamed `.ckpt.corrupt`)
/// and recovery falls back to the previous good snapshot plus a longer
/// journal replay — still byte-identical.
#[test]
fn corrupted_snapshot_falls_back_to_previous() {
    let cfg = pinned(Topology::single(), 200);
    let (full_lines, full_run) = full_tune_trace(&cfg);

    let dir = temp_dir("bad-snap");
    let k = 7u64; // snapshots exist at iterations 2, 4, and 6
    kill_tune_at(&cfg, &dir, k);
    let newest = dir.join("snap-00000006.ckpt");
    let mut bytes = std::fs::read(&newest).expect("snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, bytes).expect("corrupt snapshot");

    let (resumed, run) = resume_tune(&cfg, &dir);
    assert!(resumed[0].contains("\"kind\":\"resume\""));
    assert!(
        resumed[0].contains("\"snapshot_iteration\":4"),
        "fell back to the iteration-4 snapshot: {}",
        resumed[0]
    );
    assert_eq!(&resumed[1..], &full_lines[boundary(&full_lines, k)..]);
    assert_eq!(run.best_wips.to_bits(), full_run.best_wips.to_bits());
    assert!(
        dir.join("snap-00000006.ckpt.corrupt").exists(),
        "corrupt snapshot is quarantined, not deleted"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Resuming under a *different* session configuration is refused: the
/// journal header carries a fingerprint of the session inputs.
#[test]
fn resume_with_mismatched_session_is_refused() {
    let cfg = pinned(Topology::single(), 200);
    let dir = temp_dir("fingerprint");
    kill_tune_at(&cfg, &dir, 4);

    let other = pinned(Topology::single(), 300).checkpoint(policy(&dir, true));
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

/// The `iteration` field of a trace line, if it has one.
fn iteration_of(line: &str) -> Option<u64> {
    let at = line.find("\"iteration\":")? + "\"iteration\":".len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A cohort `tune` of the CLI, snapshotting every iteration into
/// `dir/ck` and tracing to `dir/trace.jsonl`.
fn cli_tune(dir: &Path, resume: bool) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ah-webtune"));
    cmd.args([
        "tune",
        "--load-model",
        "cohort",
        "--topology",
        "2x2x2",
        "--population",
        "1000000",
        "--plan",
        "tiny",
        "--iterations",
        "120",
        "--checkpoint-every",
        "1",
    ])
    .arg("--checkpoint-dir")
    .arg(dir.join("ck"))
    .arg("--trace")
    .arg(dir.join("trace.jsonl"))
    .stdout(Stdio::null());
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

fn trace_lines(dir: &Path) -> Vec<String> {
    std::fs::read_to_string(dir.join("trace.jsonl"))
        .expect("trace")
        .lines()
        .map(|l| strip_wall_ms(l.to_string()))
        .collect()
}

/// The `eval` record counts the iterations of its own process, so it is
/// the one record that differs between a resumed and a one-shot run.
fn without_eval(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| !l.starts_with("{\"kind\":\"eval\""))
        .cloned()
        .collect()
}

/// Acceptance for the background snapshot writer: SIGKILL the CLI once
/// its trace holds k iteration records — wherever that lands, a snapshot
/// write may be in flight on its writer thread — and resume it. The
/// spliced trace equals the uninterrupted run's apart from `wall_ms`,
/// the `resume` record and the `eval` record, and no `.tmp` survives.
#[test]
fn sigkilled_cli_resumes_to_the_uninterrupted_trace() {
    let reference_dir = temp_dir("sigkill-reference");
    std::fs::create_dir_all(&reference_dir).expect("dir");
    let status = cli_tune(&reference_dir, false).status().expect("run");
    assert!(status.success(), "{status}");
    let reference = trace_lines(&reference_dir);

    for k in [1, 8, 33] {
        let dir = temp_dir(&format!("sigkill-{k}"));
        std::fs::create_dir_all(&dir).expect("dir");
        let mut child = cli_tune(&dir, false).spawn().expect("spawn");
        let trace = dir.join("trace.jsonl");
        loop {
            let traced = std::fs::read_to_string(&trace).unwrap_or_default();
            let complete = &traced[..traced.rfind('\n').map_or(0, |at| at + 1)];
            if complete
                .lines()
                .filter(|l| l.starts_with("{\"kind\":\"iteration\""))
                .count()
                >= k
            {
                break;
            }
            if let Some(status) = child.try_wait().expect("poll") {
                panic!("the run ended before k={k} iteration records: {status}");
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        child.kill().expect("SIGKILL");
        let status = child.wait().expect("reap");
        assert!(!status.success(), "the kill at k={k} landed after the run");

        let status = cli_tune(&dir, true).status().expect("resume");
        assert!(status.success(), "resume at k={k}: {status}");
        let lines = trace_lines(&dir);
        let resumes: Vec<usize> = (0..lines.len())
            .filter(|&at| lines[at].starts_with("{\"kind\":\"resume\""))
            .collect();
        assert_eq!(resumes.len(), 1, "one resume record at k={k}");
        let at = resumes[0];
        let from = iteration_of(&lines[at]).expect("resume iteration");
        assert!(from + 1 >= k as u64, "resumed from {from} at k={k}");
        // Everything traced before the kill is the reference's prefix;
        // the records of iterations the journal had not kept yet are
        // traced again after the resume record.
        assert_eq!(lines[..at], reference[..at], "pre-kill trace at k={k}");
        let mut spliced = lines[..boundary(&lines[..at], from)].to_vec();
        spliced.extend_from_slice(&lines[at + 1..]);
        assert_eq!(
            without_eval(&spliced),
            without_eval(&reference),
            "spliced trace at k={k}"
        );
        let torn: Vec<_> = std::fs::read_dir(dir.join("ck"))
            .expect("checkpoint dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("snap-") && n.ends_with(".tmp"))
            .collect();
        assert!(torn.is_empty(), "left behind at k={k}: {torn:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
    std::fs::remove_dir_all(&reference_dir).expect("cleanup");
}
