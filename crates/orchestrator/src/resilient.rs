//! Fault-tolerant tuning sessions: a straight-line resilient
//! evaluation (breaker, retry, timeout, degradation) plus
//! failure-driven reconfiguration.
//!
//! A resilient session is the one tuning loop
//! (`session::drive_tuning`) running §III duplication, with the
//! `Resilience` part hardening it against the faults a
//! [`faults::FaultPlan`] injects. Iteration `i` covers simulated
//! time `[i·plan.total(), (i+1)·plan.total())` of the fault schedule
//! ([`faults::FaultClock::window_of`]). Each iteration's evaluation
//! (`Resilience::evaluate`) runs in this order:
//!
//! 1. faults landing in the window are traced (`fault` records) and
//!    applied inside the DES via the scenario's health timeline;
//! 2. the per-configuration circuit breaker is asked first: a
//!    blacklisted configuration is refused without re-measuring (and,
//!    when `breaker_half_open_after` is set, periodically probed);
//! 3. a sample whose measured WIPS deviates wildly from its completion
//!    count (a measurement-noise spike) is re-measured through the
//!    [`OutlierGate`];
//! 4. an attempt whose own simulated cost (the window, plus any stalled
//!    seconds on the first attempt) exceeds the optional timeout budget
//!    is invalidated;
//! 5. a sample invalidated by a crash during the *measurement* phase (or
//!    one that measured zero throughput, or timed out) is retried under
//!    the [`RetryPolicy`] with bounded, jittered backoff — the retry
//!    sees the post-crash steady state, as a real re-measurement would;
//! 6. a configuration that exhausts its retry budget is reported to
//!    Harmony as worthless (0.0 — the proposal is always answered; a
//!    valid sample is reported with its Poisson CI, as in every session)
//!    and counted against the breaker;
//! 7. with `degrade_to_best`, an iteration that would otherwise fail
//!    outright records the session's running best WIPS instead
//!    (`degraded` trace records);
//! 8. a crash triggers the §IV `decide()` path over the *live* nodes; if
//!    the cost model declines, a spare node is pulled directly into the
//!    wounded tier so the cluster heals anyway.
//!
//! Every `recovery` and `degraded` trace record, its counter and its
//! [`RecoveryAction`] are written where the action happens. Retry delays
//! are simulated time (deterministic jitter from the fault seed); they
//! are reported in `recovery` trace records but do not shift the window
//! mapping, which stays iteration-indexed. The breaker table and the
//! jitter stream checkpoint bit-exactly (per-delta `policy` state), so a
//! killed session resumes mid-policy without re-burning RNG draws. Its
//! snapshot is the plain session's plus the resilient subtrees.

use crate::checkpoint;
use crate::policy::{CircuitBreaker, Gate};
pub use crate::policy::{OutlierGate, RetryPolicy};
use crate::reconfigure::{node_report, utilization, ReconfigEvent};
use crate::session::{
    ckerr, config_summary, drive_tuning, scale_wips, IterationRecord, Parts, Sampled,
    SessionConfig, SessionError, SessionObserver,
};
use cluster::config::{ClusterConfig, Role, Topology};
use cluster::model::ClusterScenario;
use cluster::runner::IterationOutcome;
use detect::{Detector, DetectorConfig, NodeState, WindowReport};
use faults::{FaultClock, FaultEvent, FaultInjector, FaultPlan, HealthTimeline, WindowFaults};
use harmony::reconfig::{decide, CostModel, NodeReport, Thresholds};
use harmony::strategy::TuningMethod;
use harmony::tuner::{rng_from_state, rng_state, Measurement};
use persist::snapshot::Fields;
use persist::{Checkpointable, PersistError, State};
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};

/// Policy knobs of a resilient session. The defaults leave the optional
/// policies (timeout, half-open probing, degradation) off, reproducing
/// the original retry+breaker behavior exactly.
#[derive(Debug, Clone)]
pub struct ResilienceSettings {
    /// Bounded retry with backoff for invalid samples.
    pub retry: RetryPolicy,
    /// Re-measurement gate for noise-spiked samples.
    pub gate: OutlierGate,
    /// Failed evaluations of one configuration before it is blacklisted.
    pub breaker_threshold: u32,
    /// Probe a blacklisted configuration after this many refused
    /// evaluations (`None`: blacklists are permanent).
    pub breaker_half_open_after: Option<u32>,
    /// Per-attempt simulated-time budget in seconds (`None`: unlimited).
    /// An attempt is charged the measurement window plus any stalled
    /// seconds the fault plan injects into it.
    pub timeout_s: Option<f64>,
    /// Record the session's running best WIPS when an iteration fails
    /// outright (emits `degraded` trace records; the tuner still sees
    /// 0.0).
    pub degrade_to_best: bool,
    /// Pull a spare node into a tier that lost one to a crash.
    pub reconfigure_on_crash: bool,
    /// Drive reconfiguration from *detected* membership instead of the
    /// injector's health oracle: heartbeats → φ-accrual suspicion →
    /// hysteretic membership ([`detect::Detector`]). `None` keeps the
    /// historical oracle behavior bit-exactly.
    pub detector: Option<DetectorConfig>,
    /// Utilization thresholds for the `decide()` attempt.
    pub thresholds: Thresholds,
    /// Cost model for the `decide()` attempt.
    pub cost_model: CostModel,
}

impl Default for ResilienceSettings {
    fn default() -> Self {
        ResilienceSettings {
            retry: RetryPolicy::default(),
            gate: OutlierGate::default(),
            breaker_threshold: 3,
            breaker_half_open_after: None,
            timeout_s: None,
            degrade_to_best: false,
            reconfigure_on_crash: true,
            detector: None,
            thresholds: Thresholds::default(),
            cost_model: CostModel::default(),
        }
    }
}

/// One resilience action taken during the run (mirrors the `recovery`
/// and `degraded` trace records).
#[derive(Debug, Clone)]
pub struct RecoveryAction {
    pub iteration: u32,
    /// `retry`, `remeasure`, `timeout`, `breaker_open`, `breaker_skip`,
    /// `breaker_probe`, `degraded`, `reconfig`.
    pub action: &'static str,
    pub attempt: u32,
    /// Simulated seconds (the backoff for retries, the attempt's cost
    /// for timeouts, 0 otherwise).
    pub delay_s: f64,
    /// WIPS of the sample that triggered or resolved the action.
    pub wips: f64,
}

/// One detected membership transition, scored against the injector's
/// ground truth. Mirrors the `membership` trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionEvent {
    pub iteration: u32,
    pub node: usize,
    /// Simulated time of the assessment tick that decided the transition.
    pub(crate) at_s: f64,
    /// Membership state names (`up` / `suspect` / `down`).
    pub from: &'static str,
    pub to: &'static str,
    /// The φ that triggered the assessment.
    pub phi: f64,
    /// Whether the injector's ground truth had the node crashed at the
    /// transition instant (a `down` confirmation with `false` here is a
    /// false positive — typically a long stall believed dead).
    pub(crate) truth_crashed: bool,
    /// For a true-positive `down` confirmation: seconds from the crash to
    /// the confirmation. `-1.0` when not applicable.
    pub(crate) latency_s: f64,
}

impl DetectionEvent {
    /// The transition confirmed a node `Down`.
    pub fn is_down(&self) -> bool {
        self.to == "down"
    }

    /// A `Down` confirmation the ground truth contradicts.
    pub(crate) fn is_false_positive(&self) -> bool {
        self.is_down() && !self.truth_crashed
    }
}

/// Result of a resilient tuning session.
#[derive(Debug, Clone)]
pub struct ResilientRun {
    pub records: Vec<IterationRecord>,
    /// Fault events injected, tagged with the iteration they hit.
    pub faults: Vec<(u32, FaultEvent)>,
    /// Resilience actions taken, in order.
    pub recoveries: Vec<RecoveryAction>,
    /// Failure-driven node moves.
    pub reconfigs: Vec<ReconfigEvent>,
    /// Detected membership transitions (empty unless
    /// [`ResilienceSettings::detector`] is set).
    pub detections: Vec<DetectionEvent>,
    pub final_topology: Topology,
    pub best_wips: f64,
}

impl ResilientRun {
    /// Per-iteration WIPS series.
    pub fn wips_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.wips).collect()
    }

    /// Best WIPS seen strictly before `iteration`.
    pub(crate) fn running_best_before(&self, iteration: u32) -> Option<f64> {
        self.records
            .iter()
            .filter(|r| r.iteration < iteration)
            .map(|r| r.wips)
            .reduce(f64::max)
    }

    /// Iteration of the first crash, if the plan had one.
    pub fn first_crash_iteration(&self) -> Option<u32> {
        self.faults
            .iter()
            .find(|(_, e)| matches!(e.kind, faults::FaultKind::Crash))
            .map(|(i, _)| *i)
    }

    /// `Down` confirmations the ground truth contradicts.
    pub fn detection_false_positives(&self) -> usize {
        self.detections
            .iter()
            .filter(|d| d.is_false_positive())
            .count()
    }

    /// Mean seconds from a crash to its `Down` confirmation, over the
    /// true-positive detections (`None`: no true positive was scored).
    pub fn mean_detection_latency_s(&self) -> Option<f64> {
        let lat: Vec<f64> = self
            .detections
            .iter()
            .filter(|d| d.is_down() && d.truth_crashed && d.latency_s >= 0.0)
            .map(|d| d.latency_s)
            .collect();
        (!lat.is_empty()).then(|| lat.iter().sum::<f64>() / lat.len() as f64)
    }

    /// How many iterations after the first crash WIPS first reached
    /// `frac` of the pre-crash running best (`None`: never, no crash, or
    /// no iteration before the crash to measure against).
    pub fn recovery_iterations(&self, frac: f64) -> Option<u32> {
        let crash = self.first_crash_iteration()?;
        let target = self.running_best_before(crash)? * frac;
        self.records
            .iter()
            .filter(|r| r.iteration > crash)
            .find(|r| r.wips >= target)
            .map(|r| r.iteration - crash)
    }
}

/// Run a resilient duplication-tuning session under a fault plan, with
/// trace/metrics observation: `iteration` and `tuner` records as usual,
/// plus `fault`, `recovery`, `degraded`, `reconfig` and (in detector
/// mode) `suspicion` and `membership` records, and the
/// `faults.injected` / `resilience.*` / `detector.*` counters.
pub fn run_resilient_session_observed(
    base: &SessionConfig,
    settings: &ResilienceSettings,
    iterations: u32,
    observer: &mut SessionObserver,
) -> Result<ResilientRun, SessionError> {
    let mut resilience = Resilience::new(base, settings);
    let parts = Parts {
        resilience: Some(&mut resilience),
        ..Parts::default()
    };
    let (run, final_topology) =
        drive_tuning(base, TuningMethod::Duplication, iterations, parts, observer)?;
    Ok(ResilientRun {
        records: run.records,
        faults: resilience.faults,
        recoveries: resilience.recoveries,
        reconfigs: resilience.reconfigs,
        detections: resilience.detections,
        final_topology,
        best_wips: run.best_wips.max(0.0),
    })
}

/// The resilience part of the one tuning loop
/// ([`crate::session::drive_tuning`]): the breaker and the retry jitter
/// stream, the fault injector and the failure detector, with the logs of
/// what they did. The loop calls it before proposing
/// ([`Resilience::before`]), as the evaluation ([`Resilience::evaluate`]),
/// after the iteration ([`Resilience::after`]), and when it journals,
/// snapshots, restores and replays.
pub(crate) struct Resilience {
    settings: ResilienceSettings,
    breaker: CircuitBreaker,
    /// Draws the retry backoff's jitter. Seeded from the fault seed, so
    /// fault-plan sessions keep their historical delay sequences.
    jitter: SimRng,
    /// One injector for the whole session: the fault schedule is a pure
    /// function of (plan, seed). Node count never changes across
    /// reassigns. Without a fault plan it injects the empty plan, so
    /// detector mode still observes heartbeats (all healthy, jitter only).
    injector: FaultInjector,
    detector: Option<Detector>,
    faults: Vec<(u32, FaultEvent)>,
    recoveries: Vec<RecoveryAction>,
    reconfigs: Vec<ReconfigEvent>,
    detections: Vec<DetectionEvent>,
    /// The current iteration's fault window, its end, and the detector's
    /// report on it.
    window: WindowFaults,
    window_end: SimTime,
    report: Option<WindowReport>,
    /// Where the current iteration's entries start in `recoveries`,
    /// `reconfigs` and `detections` (its journal delta carries them).
    marks: [usize; 3],
}

impl Resilience {
    fn new(base: &SessionConfig, settings: &ResilienceSettings) -> Resilience {
        let injector = FaultInjector::new(
            base.fault_plan.as_ref().unwrap_or(&FaultPlan::new()),
            base.fault_seed,
        );
        Resilience {
            settings: settings.clone(),
            breaker: CircuitBreaker::new(
                settings.breaker_threshold,
                settings.breaker_half_open_after,
            ),
            jitter: SimRng::new(base.fault_seed ^ 0xBACC_0FF5),
            window: injector.window(SimTime::ZERO, SimTime::ZERO, base.topology.len()),
            injector,
            detector: settings
                .detector
                .map(|dc| Detector::new(dc, base.topology.len(), base.fault_seed)),
            faults: Vec::new(),
            recoveries: Vec::new(),
            reconfigs: Vec::new(),
            detections: Vec::new(),
            window_end: SimTime::ZERO,
            report: None,
            marks: [0; 3],
        }
    }

    /// Kind string of the session fingerprint. Journal deltas carry
    /// `completed` and snapshots are the plain snapshot plus the
    /// resilient subtrees; the `tune+` prefix refuses checkpoints of the
    /// older loop, and `resilient2` those whose `policy` field holds the
    /// layers of a policy stack instead of the breaker table and the
    /// jitter stream.
    pub(crate) fn fingerprint_kind(&self) -> String {
        format!("tune+resilient2/{:?}", self.settings)
    }

    /// Before proposing: trace every fault landing in iteration `i`'s
    /// window and, in detector mode, observe the window's heartbeats —
    /// so the crash healing after the evaluation acts on detected
    /// membership, never the oracle. Every transition is scored against
    /// the injector's ground truth as it happens.
    pub(crate) fn before(&mut self, cfg: &SessionConfig, i: u32, observer: &mut SessionObserver) {
        let nodes = cfg.topology.len();
        let (win_start, win_end) = FaultClock::window_of(cfg.plan.total(), i);
        self.window_end = win_end;
        self.window = self.injector.window(win_start, win_end, nodes);
        self.marks = [
            self.recoveries.len(),
            self.reconfigs.len(),
            self.detections.len(),
        ];
        for e in &self.window.events {
            self.faults.push((i, *e));
            observer.record_fault(
                i,
                e.at.as_secs_f64(),
                e.node.map(|n| n as i64).unwrap_or(-1),
                e.kind.name(),
                e.kind.factor(),
            );
            if let Some(reg) = observer.registry() {
                reg.counter("faults.injected").inc();
            }
        }
        self.report = None;
        let Some(det) = self.detector.as_mut() else {
            return;
        };
        let report = det.observe_window(&self.injector, win_start, win_end);
        if let Some(reg) = observer.registry() {
            reg.counter("detector.heartbeats").add(report.delivered);
            reg.counter("detector.missed").add(report.missed);
        }
        for (n, (&phi, state)) in report.peak_phi.iter().zip(&report.states).enumerate() {
            observer.record_suspicion(i, n, phi, state.name());
        }
        for t in &report.transitions {
            observer.record_membership(
                i,
                t.at.as_secs_f64(),
                t.node,
                t.from.name(),
                t.to.name(),
                t.phi,
            );
            let truth_crashed = self
                .injector
                .status_at(t.at, nodes)
                .get(t.node)
                .is_some_and(|s| s.crashed);
            let latency_s = if t.to == NodeState::Down && truth_crashed {
                self.faults
                    .iter()
                    .filter(|(_, e)| {
                        matches!(e.kind, faults::FaultKind::Crash)
                            && e.node == Some(t.node)
                            && e.at <= t.at
                    })
                    .map(|(_, e)| t.at.since(e.at).as_secs_f64())
                    .fold(f64::INFINITY, f64::min)
            } else {
                f64::INFINITY
            };
            if let Some(reg) = observer.registry() {
                reg.counter("detector.transitions").inc();
                if t.to == NodeState::Down {
                    reg.counter(if truth_crashed {
                        "detector.true_positives"
                    } else {
                        "detector.false_positives"
                    })
                    .inc();
                }
            }
            self.detections.push(DetectionEvent {
                iteration: i,
                node: t.node,
                at_s: t.at.as_secs_f64(),
                from: t.from.name(),
                to: t.to.name(),
                phi: t.phi,
                truth_crashed,
                latency_s: if latency_s.is_finite() {
                    latency_s
                } else {
                    -1.0
                },
            });
        }
        self.report = Some(report);
    }

    /// The evaluation, in straight-line order: ask the breaker; run
    /// attempts until one is valid or the retry budget is spent; report
    /// the result to the breaker; and, with `degrade_to_best`, fall back
    /// to `best`, the session's running best WIPS (`-inf` before its
    /// first valid sample). A valid sample is reported with its Poisson
    /// CI, as every session does; an invalid, refused or degraded one
    /// tells the tuner the proposal was worthless (0.0 — the proposal is
    /// always answered).
    pub(crate) fn evaluate(
        &mut self,
        cfg: &SessionConfig,
        config: &ClusterConfig,
        scenario: &ClusterScenario,
        i: u32,
        best: f64,
        observer: &mut SessionObserver,
    ) -> Sampled {
        let key = config_summary(config);
        let gate = self.breaker.on_request(&key);
        let measured = if gate == Gate::Skip {
            // Blacklisted: answer the proposal without re-measuring.
            self.recover(observer, i, &key, "breaker_skip", 0, 0.0, 0.0);
            None
        } else {
            if gate == Gate::Probe {
                self.recover(observer, i, &key, "breaker_probe", 0, 0.0, 0.0);
            }
            let mut attempt = 1;
            let (mut out, mut valid) =
                self.attempt(cfg, config, scenario, i, attempt, &key, observer);
            while !valid && attempt < self.settings.retry.max_attempts {
                let delay = self.settings.retry.delay(attempt, &mut self.jitter);
                attempt += 1;
                let (delay_s, wips) = (delay.as_secs_f64(), out.metrics.wips);
                self.recover(observer, i, &key, "retry", attempt, delay_s, wips);
                (out, valid) = self.attempt(cfg, config, scenario, i, attempt, &key, observer);
            }
            if valid {
                self.breaker.record_success(&key);
                let wips = out.metrics.wips;
                return Sampled {
                    measurement: cfg.measurement_from(wips, out.metrics.completed),
                    out: Some(out),
                    wips,
                    valid: true,
                };
            }
            if self.breaker.record_failure(&key) {
                self.recover(observer, i, &key, "breaker_open", attempt, 0.0, 0.0);
            }
            Some(out)
        };
        // Graceful degradation: the tuner still learns the proposal was
        // worthless, but the record holds the running best, which the
        // loop leaves untouched. Nothing degrades before the session has
        // a valid sample to degrade to.
        let mut wips = 0.0;
        if self.settings.degrade_to_best && best > f64::NEG_INFINITY {
            let reason = if measured.is_some() {
                "invalid"
            } else {
                "rejected"
            };
            observer.record_degraded(i, reason, &key, best);
            if let Some(reg) = observer.registry() {
                reg.counter("resilience.degraded").inc();
            }
            self.recoveries.push(RecoveryAction {
                iteration: i,
                action: "degraded",
                attempt: 0,
                delay_s: 0.0,
                wips: best,
            });
            wips = best;
        }
        Sampled {
            out: measured,
            wips,
            measurement: Measurement::point(0.0),
            valid: false,
        }
    }

    /// One attempt. The first is the primary measurement, re-measured
    /// while a noise spike makes its WIPS disagree with its completion
    /// count; a retry sees the post-crash steady state, like a real
    /// re-measurement scheduled after the failure. An attempt whose own
    /// simulated cost is over the timeout budget is invalid, whatever it
    /// measured. Returns the outcome and whether it is valid.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &mut self,
        cfg: &SessionConfig,
        config: &ClusterConfig,
        scenario: &ClusterScenario,
        iteration: u32,
        attempt: u32,
        key: &str,
        observer: &mut SessionObserver,
    ) -> (IterationOutcome, bool) {
        let (out, valid, cost) = if attempt <= 1 {
            let mut out = cfg.measure(scenario, iteration, observer.registry());

            // A crash inside the measurement phase invalidates the sample
            // (the paper's fixed-interval measurement assumes a stable
            // cluster).
            let crashed_mid_measure = self
                .window
                .crash_in(cfg.plan.warmup, cfg.plan.warmup + cfg.plan.measure)
                .is_some();
            let mut valid = !crashed_mid_measure && out.metrics.wips > 0.0;

            // Noise-spike re-measurement: the sample passes only if
            // measured WIPS is consistent with its own completion count.
            let noise = self.window.noise;
            let measure_secs = cfg.plan.measure.as_secs_f64();
            if valid && noise > 1.0 && measure_secs > 0.0 {
                let (start, _) = FaultClock::window_of(cfg.plan.total(), iteration);
                let mut remeasures = 0;
                while remeasures < self.settings.gate.max_remeasures {
                    let predicted = out.metrics.completed as f64 / measure_secs;
                    let deviation = (out.metrics.wips - predicted).abs();
                    if self.settings.gate.accepts(predicted, deviation) {
                        break;
                    }
                    remeasures += 1;
                    let wips = out.metrics.wips;
                    self.recover(observer, iteration, key, "remeasure", remeasures, 0.0, wips);
                    // Re-run the window and draw the next noise value (a
                    // re-measurement happens at a later session time).
                    let retry_cfg = cfg
                        .clone()
                        .base_seed(cfg.base_seed ^ remeasure_salt(remeasures));
                    out = retry_cfg.eval.run(
                        &retry_cfg.scenario(config.clone(), iteration),
                        observer.registry(),
                    );
                    let shifted = start + SimDuration::from_micros(remeasures as u64);
                    scale_wips(&mut out, self.injector.wips_noise(shifted, noise));
                }
                valid = out.metrics.wips > 0.0;
            }

            // The primary attempt holds the cluster for the full window,
            // plus any stalled seconds the fault plan injected into it.
            let stall = SimDuration::from_secs_f64(self.window.stall_s);
            (out, valid, cfg.plan.total().saturating_add(stall))
        } else {
            let retry_cfg = cfg
                .clone()
                .base_seed(cfg.base_seed ^ remeasure_salt(attempt));
            let mut scenario = retry_cfg.scenario(config.clone(), iteration);
            scenario.faults = steady_state_timeline(&self.injector, cfg, iteration);
            let out = cfg.eval.run(&scenario, observer.registry());
            // A retry holds the cluster for one more window but sees no
            // further stalls.
            let valid = out.metrics.wips > 0.0;
            (out, valid, cfg.plan.total())
        };
        match self.settings.timeout_s.map(SimDuration::from_secs_f64) {
            Some(budget) if cost > budget => {
                let wips = out.metrics.wips;
                let cost_s = cost.as_secs_f64();
                self.recover(observer, iteration, key, "timeout", attempt, cost_s, wips);
                (out, false)
            }
            _ => (out, valid),
        }
    }

    /// Write one `recovery` action where it happens: its trace record,
    /// its counter and its [`RecoveryAction`].
    #[allow(clippy::too_many_arguments)]
    fn recover(
        &mut self,
        observer: &mut SessionObserver,
        iteration: u32,
        key: &str,
        action: &'static str,
        attempt: u32,
        delay_s: f64,
        wips: f64,
    ) {
        observer.record_recovery(iteration, action, attempt, delay_s, key, wips);
        if let Some(reg) = observer.registry() {
            let counter = match action {
                "retry" => "retries",
                "remeasure" => "remeasures",
                "timeout" => "timeouts",
                "breaker_skip" => "breaker_skips",
                "breaker_probe" => "breaker_probes",
                other => other,
            };
            reg.counter(&format!("resilience.{counter}")).inc();
        }
        self.recoveries.push(RecoveryAction {
            iteration,
            action,
            attempt,
            delay_s,
            wips,
        });
    }

    /// After a measured iteration: failure-driven reconfiguration. A
    /// crashed node wounds a tier; try to backfill it from the healthiest
    /// other tier.
    ///
    /// In detector mode the trigger is a *freshly confirmed* `Down`
    /// transition and liveness is the detector's membership view — the
    /// oracle is never consulted. Otherwise the trigger is the
    /// injector's crash record for the window.
    pub(crate) fn after(
        &mut self,
        topology: &mut Topology,
        i: u32,
        out: &IterationOutcome,
        wips: f64,
        observer: &mut SessionObserver,
    ) {
        if !self.settings.reconfigure_on_crash {
            return;
        }
        let (crashed, live) = match &self.report {
            Some(report) => (
                report.confirmed_down(),
                report
                    .states
                    .iter()
                    .map(|s| *s != NodeState::Down)
                    .collect::<Vec<bool>>(),
            ),
            None => {
                let crashed = self.window.crashes();
                if crashed.is_empty() {
                    return;
                }
                let live = self
                    .injector
                    .health_at(self.window_end, topology.len())
                    .iter()
                    .map(|h| !h.is_down())
                    .collect();
                (crashed, live)
            }
        };
        if crashed.is_empty() {
            return;
        }
        let Some(event) =
            heal_after_crash(&self.settings, topology, &crashed, i, out, &live, observer)
        else {
            return;
        };
        if let Ok(next) = topology.reassign(event.node, event.to_tier) {
            *topology = next;
            self.recoveries.push(RecoveryAction {
                iteration: i,
                action: "reconfig",
                attempt: 0,
                delay_s: 0.0,
                wips,
            });
            self.reconfigs.push(event);
        }
    }

    /// The `policy` field of journal deltas and snapshots: the breaker
    /// table and the position of the jitter stream. The loop's running
    /// best, which degradation reads, is checkpointed by the loop.
    fn policy_state(&self) -> State {
        State::map()
            .with("breaker", self.breaker.save_state())
            .with("jitter", rng_state(&self.jitter))
    }

    fn restore_policy(&mut self, state: &State) -> Result<(), PersistError> {
        self.breaker.restore_state(state.require("breaker")?)?;
        self.jitter = rng_from_state(state.require("jitter")?)?;
        Ok(())
    }

    /// Add the current iteration's resilient fields to its journal
    /// delta: whether the tuner saw the sample, the policy state, the
    /// iteration's recoveries, node move and detections, and the
    /// detector.
    pub(crate) fn journal_into(&self, delta: &mut State, valid: bool) {
        let [recoveries, reconfigs, detections] = self.marks;
        delta.set("valid", State::Bool(valid));
        delta.set("policy", self.policy_state());
        delta.set(
            "recoveries",
            checkpoint::recoveries_state(&self.recoveries[recoveries..]),
        );
        delta.set(
            "reconfig",
            self.reconfigs
                .get(reconfigs)
                .map(checkpoint::reconfig_state)
                .unwrap_or(State::Null),
        );
        if let Some(det) = &self.detector {
            delta.set("detector", det.save_state());
            delta.set(
                "detections",
                checkpoint::detections_state(&self.detections[detections..]),
            );
        }
    }

    /// Add the resilient fields to a snapshot: the topology, the policy
    /// state, the logs and (in detector mode) the detector.
    pub(crate) fn save_into(&self, snap: &mut Fields, topology: &Topology) {
        snap.state("topology", &checkpoint::topology_state(topology));
        snap.state("policy", &self.policy_state());
        snap.state(
            "recoveries",
            &checkpoint::recoveries_state(&self.recoveries),
        );
        snap.state("reconfigs", &checkpoint::reconfigs_state(&self.reconfigs));
        if let Some(det) = &self.detector {
            snap.state("detector", &det.save_state());
            snap.state(
                "detections",
                &checkpoint::detections_state(&self.detections),
            );
        }
    }

    /// Restore the resilient subtrees of a snapshot; returns the
    /// snapshot's topology.
    pub(crate) fn restore(&mut self, snap: &State) -> Result<Topology, PersistError> {
        self.restore_policy(snap.require("policy")?)?;
        self.recoveries = checkpoint::recoveries_from_state(snap.require("recoveries")?)?;
        self.reconfigs = checkpoint::reconfigs_from_state(snap.require("reconfigs")?)?;
        // Detector mode is part of the fingerprint, so a detector-mode
        // snapshot always carries these fields.
        if let Some(det) = self.detector.as_mut() {
            det.restore_state(snap.require("detector")?)?;
            self.detections = checkpoint::detections_from_state(snap.require("detections")?)?;
        }
        checkpoint::topology_from_state(snap.require("topology")?)
    }

    /// Replay one journal delta's resilient fields: the breaker and the
    /// jitter stream restore bit-exactly from the journaled state, and recoveries,
    /// node moves and detections come from the journal — nothing is
    /// re-simulated, nothing is re-traced, and no RNG draw is ever
    /// re-burned. Returns whether the tuner saw the sample.
    pub(crate) fn replay(
        &mut self,
        delta: &State,
        topology: &mut Topology,
    ) -> Result<bool, SessionError> {
        let valid = delta.field_bool("valid").map_err(ckerr)?;
        self.restore_policy(delta.require("policy").map_err(ckerr)?)
            .map_err(ckerr)?;
        self.recoveries.extend(
            checkpoint::recoveries_from_state(delta.require("recoveries").map_err(ckerr)?)
                .map_err(ckerr)?,
        );
        let event_state = delta.require("reconfig").map_err(ckerr)?;
        if !matches!(event_state, State::Null) {
            let event = checkpoint::reconfig_from_state(event_state).map_err(ckerr)?;
            *topology = topology.reassign(event.node, event.to_tier).map_err(|e| {
                SessionError::Checkpoint(format!("journaled reconfiguration does not apply: {e}"))
            })?;
            self.reconfigs.push(event);
        }
        if let Some(det) = self.detector.as_mut() {
            det.restore_state(delta.require("detector").map_err(ckerr)?)
                .map_err(ckerr)?;
            self.detections.extend(
                checkpoint::detections_from_state(delta.require("detections").map_err(ckerr)?)
                    .map_err(ckerr)?,
            );
        }
        Ok(valid)
    }

    /// Rebuild the fault log of the `iterations` windows a resumed
    /// session already covered. The fault schedule is a pure function of
    /// the plan and seed, so this needs no checkpointed state.
    pub(crate) fn rebuild_fault_log(&mut self, cfg: &SessionConfig, iterations: u32) {
        for i in 0..iterations {
            let (ws, we) = FaultClock::window_of(cfg.plan.total(), i);
            for e in &self.injector.window(ws, we, cfg.topology.len()).events {
                self.faults.push((i, *e));
            }
        }
    }
}

/// Decorrelate retry/re-measurement seeds from the primary sample.
fn remeasure_salt(attempt: u32) -> u64 {
    (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Node healths once every fault up to the end of iteration `i`'s window
/// has applied — what a re-measurement after the crash would see.
fn steady_state_timeline(
    injector: &FaultInjector,
    cfg: &SessionConfig,
    iteration: u32,
) -> Option<HealthTimeline> {
    let (_, end) = FaultClock::window_of(cfg.plan.total(), iteration);
    let timeline = HealthTimeline {
        initial: injector.health_at(end, cfg.topology.len()),
        changes: Vec::new(),
    };
    (!timeline.is_trivial()).then_some(timeline)
}

/// Pick a node move that backfills a tier wounded by a crash. Tries the
/// §IV `decide()` algorithm over the live nodes first; if the cost model
/// declines, pulls a spare from the best-staffed other tier directly.
#[allow(clippy::too_many_arguments)]
fn heal_after_crash(
    settings: &ResilienceSettings,
    topology: &Topology,
    crashed: &[usize],
    iteration: u32,
    out: &IterationOutcome,
    live_nodes: &[bool],
    observer: &mut SessionObserver,
) -> Option<ReconfigEvent> {
    let wounded_tier = topology.role(*crashed.first()?);
    let live = |n: usize| live_nodes.get(n).copied().unwrap_or(false);
    let live_count = |t: Role| {
        (0..topology.len())
            .filter(|&n| topology.role(n) == t && live(n))
            .count()
    };

    // §IV decide() over the live nodes, with tier sizes that reflect the
    // crash (the wounded tier really is smaller now).
    let reports: Vec<NodeReport<Role>> = (0..topology.len())
        .filter(|&n| live(n))
        .map(|n| {
            let u = &out.node_utilization[n];
            node_report(topology, n, utilization(u), u)
        })
        .collect();
    let decision = decide(
        &reports,
        &settings.thresholds,
        &settings.cost_model,
        live_count,
    );
    let (node, to_tier, immediate, cost_value) = match decision {
        Some(d) if d.to_tier == wounded_tier => (d.node, d.to_tier, d.immediate, d.cost_value),
        _ => {
            // Direct spare-pull: the idlest live node outside the wounded
            // tier, from a tier that can spare one.
            let peak = |n: usize| {
                let u = &out.node_utilization[n];
                u.cpu.max(u.disk).max(u.net)
            };
            let donor = (0..topology.len())
                .filter(|&n| {
                    let t = topology.role(n);
                    t != wounded_tier && live(n) && live_count(t) > 1
                })
                .min_by(|&a, &b| peak(a).total_cmp(&peak(b)).then(a.cmp(&b)))?;
            (donor, wounded_tier, true, 0.0)
        }
    };
    let from_tier = topology.role(node);
    observer.record_reconfig(
        iteration,
        node,
        from_tier.name(),
        to_tier.name(),
        immediate,
        cost_value,
    );
    observer.record_recovery(iteration, "reconfig", 0, 0.0, &format!("node {node}"), 0.0);
    if let Some(reg) = observer.registry() {
        reg.counter("resilience.reconfigs").inc();
    }
    Some(ReconfigEvent {
        iteration,
        node,
        from_tier,
        to_tier,
        immediate,
        cost_value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultPlan;
    use tpcw::metrics::IntervalPlan;
    use tpcw::mix::Workload;

    fn base(topology: Topology, pop: u32) -> SessionConfig {
        SessionConfig::new(topology, Workload::Shopping, pop).plan(IntervalPlan::tiny())
    }

    fn run_resilient_session(
        cfg: &SessionConfig,
        settings: &ResilienceSettings,
        iterations: u32,
    ) -> Result<ResilientRun, SessionError> {
        run_resilient_session_observed(cfg, settings, iterations, &mut SessionObserver::none())
    }

    fn bits(series: &[f64]) -> Vec<u64> {
        series.iter().map(|w| w.to_bits()).collect()
    }

    fn window_s() -> f64 {
        IntervalPlan::tiny().total().as_secs_f64()
    }

    /// The only proxy node crashes early in iteration 0's window: every
    /// attempt of every iteration measures zero.
    fn blackout() -> SessionConfig {
        base(Topology::tiers(1, 1, 1).unwrap(), 150)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(0.5, 0))
    }

    /// One evaluation as the loop runs it: iteration `i`'s window first,
    /// then the default configuration, with `best` as the session's
    /// running best. Returns the sample and the actions it logged.
    fn evaluate_once(
        r: &mut Resilience,
        cfg: &SessionConfig,
        i: u32,
        best: f64,
        observer: &mut SessionObserver,
    ) -> (Sampled, Vec<(&'static str, u32)>) {
        let config = ClusterConfig::defaults(&cfg.topology);
        let from = r.recoveries.len();
        r.before(cfg, i, observer);
        let scenario = cfg.scenario(config.clone(), i);
        let sample = r.evaluate(cfg, &config, &scenario, i, best, observer);
        let actions = r.recoveries[from..]
            .iter()
            .map(|a| (a.action, a.attempt))
            .collect();
        (sample, actions)
    }

    #[test]
    fn the_policy_state_roundtrips_without_reburning_jitter_draws() {
        // Burn two draws and trip a breaker, save, draw once more: a
        // session restored from the save (whatever its own seed) draws
        // that same delay next, without replaying the first two.
        let settings = ResilienceSettings::default();
        let retry = settings.retry;
        let mut live = Resilience::new(&blackout(), &settings);
        retry.delay(1, &mut live.jitter);
        retry.delay(2, &mut live.jitter);
        live.breaker.record_failure("k");
        let saved = live.policy_state();
        let next = retry.delay(1, &mut live.jitter);
        let mut restored = Resilience::new(&blackout().fault_seed(99), &settings);
        restored.restore_policy(&saved).unwrap();
        assert_eq!(
            restored.policy_state(),
            saved,
            "save→restore→save bit-exact"
        );
        assert_eq!(retry.delay(1, &mut restored.jitter), next);
        assert!(restored.restore_policy(&State::Null).is_err());
    }

    #[test]
    fn an_evaluation_writes_its_records_in_the_order_it_acts() {
        // Every attempt overruns a budget of half a window. The first
        // call times out on each attempt, retries, trips the breaker and
        // degrades; the next probes the open circuit, and its failed
        // probe re-opens it without a new trip (so a probe and a trip
        // never share a call).
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300).pin_seed(true);
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            breaker_half_open_after: Some(0),
            timeout_s: Some(window_s() * 0.5),
            degrade_to_best: true,
            ..Default::default()
        };
        let mut r = Resilience::new(&cfg, &settings);
        let mut sink = obs::MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut sink);
        let (tripped, _) = evaluate_once(&mut r, &cfg, 0, 42.0, &mut observer);
        let (probed, _) = evaluate_once(&mut r, &cfg, 1, 42.0, &mut observer);
        let written: Vec<String> = sink
            .records()
            .iter()
            .filter_map(|rec| {
                let what = rec.get("action").or(rec.get("reason"))?.to_csv_cell();
                let attempt = rec.get("attempt").map(|a| a.to_csv_cell());
                Some(format!(
                    "{} {what} {}",
                    rec.kind(),
                    attempt.unwrap_or_default()
                ))
            })
            .collect();
        assert_eq!(
            written,
            [
                "recovery timeout 1",
                "recovery retry 2",
                "recovery timeout 2",
                "recovery retry 3",
                "recovery timeout 3",
                "recovery breaker_open 3",
                "degraded invalid ",
                "recovery breaker_probe 0",
                "recovery timeout 1",
                "recovery retry 2",
                "recovery timeout 2",
                "recovery retry 3",
                "recovery timeout 3",
                "degraded invalid ",
            ]
        );
        // The action log mirrors the trace record for record.
        assert_eq!(r.recoveries.len(), written.len());
        for sample in [tripped, probed] {
            assert_eq!(sample.wips, 42.0, "degraded to the running best");
            assert!(!sample.valid && sample.out.is_some());
            assert_eq!(sample.measurement.mean, 0.0, "the tuner sees 0.0");
        }
    }

    #[test]
    fn the_timeout_budget_applies_to_each_attempt_not_to_the_call() {
        // Three attempts of one window each, with backoff between them,
        // hold the cluster for well over 1.05 windows in all; each
        // attempt alone does not, so none times out. A budget under one
        // window times out every attempt.
        for (budget, timeouts) in [(1.05, 0), (0.95, 3)] {
            let settings = ResilienceSettings {
                timeout_s: Some(window_s() * budget),
                ..Default::default()
            };
            let cfg = blackout();
            let mut r = Resilience::new(&cfg, &settings);
            let (_, actions) = evaluate_once(
                &mut r,
                &cfg,
                0,
                f64::NEG_INFINITY,
                &mut SessionObserver::none(),
            );
            let count = |a: &str| actions.iter().filter(|(x, _)| *x == a).count();
            assert_eq!(count("timeout"), timeouts, "{budget}: {actions:?}");
            assert_eq!(count("retry"), 2, "{budget}: {actions:?}");
        }
    }

    #[test]
    fn nothing_degrades_before_the_session_has_a_valid_sample() {
        let settings = ResilienceSettings {
            degrade_to_best: true,
            ..Default::default()
        };
        let cfg = blackout();
        let mut r = Resilience::new(&cfg, &settings);
        let mut none = SessionObserver::none();
        let (first, actions) = evaluate_once(&mut r, &cfg, 0, f64::NEG_INFINITY, &mut none);
        assert_eq!(first.wips, 0.0);
        assert!(!first.valid && first.out.is_some());
        assert!(actions.iter().all(|(a, _)| *a != "degraded"), "{actions:?}");
        // Once the loop has a running best, the same failure degrades.
        let (later, actions) = evaluate_once(&mut r, &cfg, 1, 7.5, &mut none);
        assert_eq!(later.wips, 7.5);
        assert_eq!(actions.last(), Some(&("degraded", 0)), "{actions:?}");
    }

    #[test]
    fn a_refused_configuration_degrades_as_rejected_without_an_outcome() {
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            degrade_to_best: true,
            ..Default::default()
        };
        let cfg = blackout();
        let mut r = Resilience::new(&cfg, &settings);
        let mut sink = obs::MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut sink);
        let (_, tripped) = evaluate_once(&mut r, &cfg, 0, 9.0, &mut observer);
        assert!(tripped.contains(&("breaker_open", 3)), "{tripped:?}");
        let (refused, actions) = evaluate_once(&mut r, &cfg, 1, 9.0, &mut observer);
        assert_eq!(actions, [("breaker_skip", 0), ("degraded", 0)]);
        assert!(refused.out.is_none(), "nothing was measured");
        assert!(!refused.valid);
        assert_eq!(refused.wips, 9.0);
        let reasons: Vec<String> = sink
            .records()
            .iter()
            .filter(|rec| rec.kind() == "degraded")
            .filter_map(|rec| Some(rec.get("reason")?.to_csv_cell()))
            .collect();
        assert_eq!(reasons, ["invalid", "rejected"]);
    }

    #[test]
    fn a_half_open_probe_closes_the_circuit_on_success_and_reopens_it_on_failure() {
        // The proxy is down from iteration 0 until early in iteration 3.
        let w = window_s();
        let cfg = base(Topology::tiers(1, 1, 1).unwrap(), 150)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(0.5, 0).restart(3.0 * w + 1.0, 0));
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            breaker_half_open_after: Some(1),
            ..Default::default()
        };
        let mut r = Resilience::new(&cfg, &settings);
        let mut none = SessionObserver::none();
        let mut calls = Vec::new();
        for i in 0..6 {
            let (sample, actions) = evaluate_once(&mut r, &cfg, i, f64::NEG_INFINITY, &mut none);
            calls.push((sample.valid, actions));
        }
        let expected: [(bool, &[(&str, u32)]); 6] = [
            (false, &[("retry", 2), ("retry", 3), ("breaker_open", 3)]),
            (false, &[("breaker_skip", 0)]),
            // The failed probe re-opens the circuit: one more refusal
            // before the next probe.
            (false, &[("breaker_probe", 0), ("retry", 2), ("retry", 3)]),
            (false, &[("breaker_skip", 0)]),
            // The proxy is back: the probe succeeds and closes the
            // circuit, so the next evaluation passes unguarded.
            (true, &[("breaker_probe", 0)]),
            (true, &[]),
        ];
        for (i, ((valid, actions), (want_valid, want))) in calls.iter().zip(expected).enumerate() {
            assert_eq!(
                (*valid, actions.as_slice()),
                (want_valid, want),
                "iteration {i}"
            );
        }
    }

    #[test]
    fn fault_free_resilient_session_behaves_like_tuning() {
        // With no faults and the default (identity) policies, a resilient
        // session is duplication tuning bit for bit — for the simplex, a
        // batch-native tuner, and the one tuner that weighs CIs.
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300).pin_seed(true);
        for tuner in ["simplex", "bestconfig", "tuna"] {
            let cfg = cfg.clone().tuner(tuner);
            let run = run_resilient_session(&cfg, &ResilienceSettings::default(), 6).expect("run");
            let tuned = crate::session::tune_observed(
                &cfg,
                TuningMethod::Duplication,
                6,
                &mut SessionObserver::none(),
            )
            .expect("tuning");
            assert_eq!(
                bits(&run.wips_series()),
                bits(&tuned.wips_series()),
                "{tuner}"
            );
            assert_eq!(
                run.best_wips.to_bits(),
                tuned.best_wips.to_bits(),
                "{tuner}"
            );
            assert!(run.faults.is_empty());
            assert!(run.recoveries.is_empty());
            assert!(run.reconfigs.is_empty());
            assert_eq!(run.final_topology, cfg.topology);
        }
    }

    #[test]
    fn valid_samples_reach_the_tuner_with_their_ci() {
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300).pin_seed(true);
        let mut sink = obs::MemorySink::new();
        let mut observer = SessionObserver::with_sink(&mut sink);
        run_resilient_session_observed(&cfg, &ResilienceSettings::default(), 3, &mut observer)
            .expect("run");
        let tuner: Vec<_> = sink
            .records()
            .iter()
            .filter(|r| r.kind() == "tuner")
            .collect();
        assert_eq!(tuner.len(), 3, "one tuner record per iteration");
        for r in tuner {
            let ci = r.get("ci_half").and_then(|v| v.as_f64()).unwrap_or(0.0);
            assert!(
                ci > 0.0,
                "a valid sample carries its Poisson CI: {}",
                r.to_json()
            );
        }
    }

    #[test]
    fn checkpoints_of_the_older_resilient_format_are_refused() {
        let settings = ResilienceSettings::default();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300).pin_seed(true);
        // Journals as the older loops wrote them: the bare `resilient/`
        // kind, and `tune+resilient/`, whose `policy` field held the
        // layers of a policy stack.
        for kind in ["resilient", "tune+resilient"] {
            let dir = std::env::temp_dir()
                .join(format!("resilient-old-kind-{}-{kind}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let old = checkpoint::session_fingerprint(&cfg, &format!("{kind}/{settings:?}"), 4, 4);
            let policy = crate::checkpoint::CheckpointPolicy::new(&dir).every(2);
            let (mut ck, _) = checkpoint::Checkpointer::open(&policy, old).expect("old journal");
            ck.append(State::map().with("iteration", State::U64(0)))
                .expect("append");
            drop(ck);
            let resumed = cfg.clone().checkpoint(policy.resume(true));
            let err = run_resilient_session(&resumed, &settings, 4).unwrap_err();
            assert!(
                matches!(&err, SessionError::Checkpoint(msg) if msg.contains("fingerprint")),
                "{kind}: {err:?}"
            );
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn a_journal_delta_without_its_valid_flag_is_refused() {
        let dir = std::env::temp_dir().join(format!("resilient-no-valid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let settings = ResilienceSettings::default();
        let policy = crate::checkpoint::CheckpointPolicy::new(&dir).every(10);
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300).pin_seed(true);
        run_resilient_session(&cfg.clone().checkpoint(policy.clone()), &settings, 3).expect("run");
        // Strip `valid` from every journaled delta: replay must not guess
        // whether the tuner saw the sample.
        let mut store = persist::CheckpointStore::open(&dir).expect("store");
        let journal = store.recover().expect("recover").journal;
        store.start_fresh().expect("wipe");
        for mut record in journal {
            if let State::Map(pairs) = &mut record {
                pairs.retain(|(k, _)| k != "valid");
            }
            store.append(&record).expect("append");
        }
        drop(store);
        let resumed = cfg.checkpoint(policy.resume(true));
        let err = run_resilient_session(&resumed, &settings, 3).unwrap_err();
        assert!(
            matches!(&err, SessionError::Checkpoint(msg) if msg.contains("'valid'")),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn invalid_plan_is_reported_not_panicked() {
        let cfg = base(Topology::single(), 200).fault_plan(FaultPlan::new().crash(1.0, 99));
        let err = run_resilient_session(&cfg, &ResilienceSettings::default(), 2).unwrap_err();
        assert!(matches!(err, SessionError::FaultPlan(_)), "{err:?}");
    }

    #[test]
    fn crash_mid_measurement_triggers_retries() {
        // tiny plan: 5s warmup, 20s measure. Crash the only app node of
        // line 2 early in iteration 1's measurement phase.
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let crash_at = total + 7.0;
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(crash_at, 1));
        let run = run_resilient_session(&cfg, &ResilienceSettings::default(), 3).expect("run");
        assert_eq!(run.first_crash_iteration(), Some(1));
        assert!(
            run.recoveries.iter().any(|r| r.action == "retry"),
            "expected a retry: {:?}",
            run.recoveries
        );
        // The retry saw the post-crash steady state (node 1 down, node 2
        // still serving), so the session kept a usable sample.
        assert!(run.records[1].wips > 0.0, "retried sample is usable");
    }

    #[test]
    fn total_blackout_opens_the_breaker() {
        // The only proxy node crashes before iteration 0's window ends
        // and never restarts: every evaluation measures zero.
        let cfg = base(Topology::tiers(1, 1, 1).unwrap(), 150)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(0.5, 0));
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            ..Default::default()
        };
        let run = run_resilient_session(&cfg, &settings, 3).expect("run");
        assert!(run.records.iter().all(|r| r.wips == 0.0));
        assert!(
            run.recoveries.iter().any(|r| r.action == "breaker_open"),
            "{:?}",
            run.recoveries
        );
        assert_eq!(run.best_wips, 0.0);
    }

    #[test]
    fn breaker_open_reports_the_actual_attempt_count() {
        let cfg = base(Topology::tiers(1, 1, 1).unwrap(), 150)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(0.5, 0));
        // Only one attempt allowed: the trip must report 1, not a larger
        // policy maximum.
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            retry: RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let run = run_resilient_session(&cfg, &settings, 2).expect("run");
        let trip = run
            .recoveries
            .iter()
            .find(|r| r.action == "breaker_open")
            .expect("breaker must trip");
        assert_eq!(trip.attempt, 1, "actual attempts, not the policy max");
    }

    #[test]
    fn stall_blows_the_timeout_budget_and_is_retried() {
        // A stall longer than the per-attempt budget: the first attempt
        // times out, the retry (no stall) passes.
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().stall(total + 2.0, 1, total));
        let settings = ResilienceSettings {
            timeout_s: Some(total * 1.5),
            ..Default::default()
        };
        let run = run_resilient_session(&cfg, &settings, 3).expect("run");
        assert!(
            run.recoveries.iter().any(|r| r.action == "timeout"),
            "expected a timeout: {:?}",
            run.recoveries
        );
        assert!(
            run.recoveries.iter().any(|r| r.action == "retry"),
            "the timed-out attempt is retried: {:?}",
            run.recoveries
        );
        // Stalls are not crashes: nothing to reconfigure.
        assert!(run.reconfigs.is_empty());
        assert!(run.records[1].wips > 0.0, "retried sample is usable");
    }

    #[test]
    fn degradation_substitutes_best_known_wips() {
        // Iterations 0 is healthy; the blackout from iteration 1 on would
        // zero every later record, but degradation holds the best-known
        // WIPS instead while the tuner still learns the truth.
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 1, 1).unwrap(), 150)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(total + 0.5, 0));
        let settings = ResilienceSettings {
            breaker_threshold: 1,
            degrade_to_best: true,
            reconfigure_on_crash: false,
            ..Default::default()
        };
        let run = run_resilient_session(&cfg, &settings, 4).expect("run");
        assert!(run.records[0].wips > 0.0, "healthy baseline");
        let best = run.records[0].wips.max(run.best_wips);
        for r in &run.records[1..] {
            assert!(
                (r.wips - best).abs() < 1e-9 || r.wips <= best,
                "degraded record within best-known bounds: {} vs {best}",
                r.wips
            );
            assert!(r.wips > 0.0, "degraded, not zeroed: {r:?}");
        }
        assert!(
            run.recoveries.iter().any(|r| r.action == "degraded"),
            "{:?}",
            run.recoveries
        );
        assert_eq!(run.best_wips, run.records[0].wips, "best never degrades");
    }

    #[test]
    fn crash_pulls_a_spare_into_the_wounded_tier() {
        let total = IntervalPlan::tiny().total().as_secs_f64();
        // Node 2 (app tier) crashes during iteration 1.
        let cfg = base(Topology::tiers(2, 2, 2).unwrap(), 400)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(total + 2.0, 2));
        let run = run_resilient_session(&cfg, &ResilienceSettings::default(), 4).expect("run");
        assert_eq!(run.reconfigs.len(), 1, "{:?}", run.reconfigs);
        let e = &run.reconfigs[0];
        assert_eq!(e.to_tier, Role::App);
        assert_ne!(e.node, 2, "the dead node cannot be the donor");
        assert_eq!(run.final_topology.count(Role::App), 3);
    }

    fn detector_settings() -> ResilienceSettings {
        ResilienceSettings {
            detector: Some(DetectorConfig::default()),
            ..Default::default()
        }
    }

    #[test]
    fn detector_mode_confirms_the_crash_and_heals_without_the_oracle() {
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(2, 2, 2).unwrap(), 400)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().crash(total + 2.0, 2));
        let run = run_resilient_session(&cfg, &detector_settings(), 4).expect("run");
        // The detector confirmed node 2 Down from heartbeat silence alone.
        let down: Vec<_> = run.detections.iter().filter(|d| d.is_down()).collect();
        assert_eq!(down.len(), 1, "{:?}", run.detections);
        assert_eq!(down[0].node, 2);
        assert!(down[0].truth_crashed, "scored against ground truth");
        assert!(
            down[0].latency_s > 0.0 && down[0].latency_s < 15.0,
            "detection latency {}s",
            down[0].latency_s
        );
        assert_eq!(run.detection_false_positives(), 0);
        assert!(run.mean_detection_latency_s().is_some());
        // And the detected membership gated the same §IV recovery the
        // oracle used to: a spare was pulled into the wounded tier.
        assert_eq!(run.reconfigs.len(), 1, "{:?}", run.reconfigs);
        assert_eq!(run.reconfigs[0].to_tier, Role::App);
        assert_ne!(run.reconfigs[0].node, 2);
        assert_eq!(run.final_topology.count(Role::App), 3);
    }

    #[test]
    fn detector_mode_is_deterministic() {
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(
                FaultPlan::new()
                    .crash(total + 7.0, 1)
                    .stall(2.0 * total + 5.0, 2, 2.0),
            );
        let a = run_resilient_session(&cfg, &detector_settings(), 4).expect("a");
        let b = run_resilient_session(&cfg, &detector_settings(), 4).expect("b");
        assert_eq!(a.detections, b.detections);
        assert_eq!(a.wips_series(), b.wips_series());
        assert_eq!(a.reconfigs.len(), b.reconfigs.len());
    }

    #[test]
    fn detector_without_a_fault_plan_observes_clean_heartbeats() {
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300).pin_seed(true);
        let run = run_resilient_session(&cfg, &detector_settings(), 3).expect("run");
        assert!(run.detections.is_empty(), "{:?}", run.detections);
        assert!(run.reconfigs.is_empty());
        assert!(run.best_wips > 0.0);
    }

    #[test]
    fn a_short_stall_never_reconfigures_in_detector_mode() {
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().stall(total + 5.0, 1, 2.0));
        let run = run_resilient_session(&cfg, &detector_settings(), 3).expect("run");
        assert!(
            !run.detections.iter().any(|d| d.is_down()),
            "a 2s stall must not be believed dead: {:?}",
            run.detections
        );
        assert!(run.reconfigs.is_empty());
    }

    #[test]
    fn a_long_stall_is_a_scored_false_positive() {
        // A 12s freeze exceeds what the default thresholds tolerate: the
        // detector believes the node dead — and the ground-truth scoring
        // records exactly that honesty gap.
        let total = IntervalPlan::tiny().total().as_secs_f64();
        let cfg = base(Topology::tiers(1, 2, 1).unwrap(), 300)
            .pin_seed(true)
            .fault_plan(FaultPlan::new().stall(total + 5.0, 1, 12.0));
        let run = run_resilient_session(&cfg, &detector_settings(), 3).expect("run");
        assert!(run.detection_false_positives() >= 1, "{:?}", run.detections);
        // The node thaws and its beats resume: membership recovers.
        assert!(
            run.detections.iter().any(|d| d.to == "up"),
            "{:?}",
            run.detections
        );
    }
}
