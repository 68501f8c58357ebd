//! EXP-RESUME: kill-and-resume torture of crash-safe persistence.
//!
//! Not a paper artifact — the operational counterpart to the paper's
//! hundreds-of-iterations tuning runs (Fig. 4/5): a session that long
//! must survive the tuner process dying mid-run. The experiment runs a
//! reference session to completion, then for each of five seeded
//! interrupt points runs a checkpointed copy killed at that iteration
//! (a panicking trace sink stands in for `kill -9`: journal frames are
//! flushed per append, so the directory left behind is exactly what an
//! interrupted process leaves), resumes it from disk, and verifies the
//! spliced run is **byte-identical** to the uninterrupted one — same
//! trace records, bit-equal best WIPS.

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};

use super::{scale_pop, Effort};
use crate::checkpoint::CheckpointPolicy;
use crate::session::{tune_observed, SessionConfig, SessionError, SessionObserver, TuningRun};
use cluster::config::Topology;
use harmony::strategy::TuningMethod;
use obs::{MemorySink, TraceRecord, TraceSink, Value};
use tpcw::mix::Workload;

/// What happened at one interrupt point.
#[derive(Debug, Clone)]
pub struct InterruptOutcome {
    /// Iteration the kill landed on (the first iteration lost).
    pub kill_at: u64,
    /// Snapshot the resume recovered from (0: journal-only recovery).
    pub snapshot_iteration: u64,
    /// Journal deltas replayed on top of the snapshot.
    pub replayed: u64,
    /// Pre-kill trace was a prefix of the uninterrupted trace.
    pub prefix_identical: bool,
    /// Post-resume trace matched the uninterrupted remainder exactly.
    pub tail_identical: bool,
    /// Final best WIPS was bit-equal and the record count matched.
    pub result_identical: bool,
}

impl InterruptOutcome {
    /// The acceptance bar: every comparison exact.
    pub(crate) fn exact(&self) -> bool {
        self.prefix_identical && self.tail_identical && self.result_identical
    }
}

/// Result of the kill-and-resume experiment.
#[derive(Debug, Clone)]
pub struct ResumeResult {
    pub iterations: u32,
    /// Snapshot cadence used (journal appends happen every iteration).
    pub snapshot_every: u32,
    /// Best WIPS of the uninterrupted reference run.
    pub baseline_best_wips: f64,
    pub outcomes: Vec<InterruptOutcome>,
}

impl ResumeResult {
    /// True when every interrupt point resumed byte-identically.
    pub fn all_exact(&self) -> bool {
        self.outcomes.iter().all(InterruptOutcome::exact)
    }
}

/// A sink that simulates `kill -9` at the start of iteration `kill_at`:
/// it panics on the first record carrying `iteration >= kill_at`, so the
/// journal covers exactly the iterations before the kill point.
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

/// Run `f` expecting the simulated crash, swallowing the panic output.
fn run_killed<F: FnOnce()>(f: F) -> Result<(), SessionError> {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    match outcome {
        Err(_) => Ok(()),
        Ok(()) => Err(SessionError::Checkpoint(
            "the kill sink never fired: session finished before the interrupt point".into(),
        )),
    }
}

/// Seeded distinct interrupt points in `1..iterations`, at most five.
pub(crate) fn interrupt_points(iterations: u32, seed: u64) -> Vec<u64> {
    let mut rng = simkit::rng::SimRng::new(seed);
    let want = 5.min(iterations.saturating_sub(1) as usize);
    let mut points = Vec::new();
    while points.len() < want {
        let k = 1 + rng.next_u64() % (iterations as u64 - 1);
        if !points.contains(&k) {
            points.push(k);
        }
    }
    points
}

/// Trace wall-clock stamps differ between runs by construction; strip
/// them so the remaining bytes must match exactly.
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

fn uint_field(record: &TraceRecord, key: &str) -> u64 {
    match record.get(key) {
        Some(Value::UInt(v)) => *v,
        Some(Value::Int(v)) => u64::try_from(*v).unwrap_or(0),
        _ => 0,
    }
}

fn session(effort: &Effort, seed: u64) -> SessionConfig {
    SessionConfig::new(
        Topology::single(),
        Workload::Shopping,
        scale_pop(1_700, effort),
    )
    .plan(effort.plan)
    .base_seed(seed)
}

/// Run the experiment, checkpointing under a scratch directory in the
/// system temp dir (removed afterwards).
pub fn run(effort: &Effort, seed: u64) -> Result<ResumeResult, SessionError> {
    let scratch = std::env::temp_dir().join(format!(
        "exp-resume-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let result = run_in(effort, seed, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

/// [`run`] with an explicit scratch directory (left in place: the
/// checkpoint directories it holds are the experiment's artifact).
pub(crate) fn run_in(
    effort: &Effort,
    seed: u64,
    scratch: &Path,
) -> Result<ResumeResult, SessionError> {
    let cfg = session(effort, seed);
    let iterations = effort.iterations;
    let snapshot_every = (iterations / 5).max(1);

    let mut full_sink = MemorySink::new();
    let mut observer = SessionObserver::with_sink(&mut full_sink);
    let full_run = tune_observed(&cfg, TuningMethod::Default, iterations, &mut observer)?;
    let full_lines = lines_of(&full_sink);
    // An iteration spans several trace records (iteration + tuner); the
    // kill fires on the first record of iteration `k`, so the expected
    // prefix is every reference record from before that point.
    let boundary = |k: u64| {
        full_sink
            .records
            .iter()
            .position(|r| uint_field(r, "iteration") >= k)
            .unwrap_or(full_sink.records.len())
    };

    let mut outcomes = Vec::new();
    for k in interrupt_points(iterations, seed ^ 0xD1E_0FF) {
        let dir: PathBuf = scratch.join(format!("kill-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy::new(&dir).every(snapshot_every);

        let ck_cfg = cfg.clone().checkpoint(policy.clone());
        let mut sink = KillSink {
            inner: MemorySink::new(),
            kill_at: k,
        };
        run_killed(|| {
            let mut observer = SessionObserver::with_sink(&mut sink);
            let _ = tune_observed(&ck_cfg, TuningMethod::Default, iterations, &mut observer);
        })?;
        let pre = lines_of(&sink.inner);
        let prefix_identical = pre.len() == boundary(k) && full_lines[..pre.len()] == pre[..];

        let resume_cfg = cfg.clone().checkpoint(policy.resume(true));
        let mut resumed_sink = MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut resumed_sink);
        let run: TuningRun = tune_observed(
            &resume_cfg,
            TuningMethod::Default,
            iterations,
            &mut observer,
        )?;
        let resumed = lines_of(&resumed_sink);
        let splice = resumed_sink.records.first().ok_or_else(|| {
            SessionError::Checkpoint("resumed session produced no trace records".into())
        })?;

        outcomes.push(InterruptOutcome {
            kill_at: k,
            snapshot_iteration: uint_field(splice, "snapshot_iteration"),
            replayed: uint_field(splice, "replayed"),
            prefix_identical,
            tail_identical: resumed.len() == 1 + full_lines.len() - pre.len()
                && resumed[1..] == full_lines[pre.len()..],
            result_identical: run.best_wips.to_bits() == full_run.best_wips.to_bits()
                && run.records.len() == full_run.records.len(),
        });
    }

    Ok(ResumeResult {
        iterations,
        snapshot_every,
        baseline_best_wips: full_run.best_wips,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_resumes_exactly_at_every_point() {
        let effort = Effort::smoke();
        let r = run(&effort, 42).expect("experiment");
        assert_eq!(r.outcomes.len(), 5);
        for o in &r.outcomes {
            assert!(o.exact(), "{o:?}");
            assert!(o.kill_at >= 1 && o.kill_at < effort.iterations as u64);
            assert_eq!(
                o.snapshot_iteration + o.replayed,
                o.kill_at,
                "recovery must reconstruct exactly the pre-kill iterations: {o:?}"
            );
        }
        assert!(r.all_exact());
        assert!(r.baseline_best_wips > 0.0);
    }

    #[test]
    fn experiment_is_deterministic() {
        let effort = Effort::smoke();
        let a = run(&effort, 7).expect("run a");
        let b = run(&effort, 7).expect("run b");
        assert_eq!(
            a.baseline_best_wips.to_bits(),
            b.baseline_best_wips.to_bits()
        );
        let kills = |r: &ResumeResult| r.outcomes.iter().map(|o| o.kill_at).collect::<Vec<_>>();
        assert_eq!(kills(&a), kills(&b));
    }
}
