//! The traced pass of the `drive_tuning` workloads.
//!
//! Pass (A) replays one tuning session through a replica loop built only
//! from the public functions of the layers, wrapping an `obs::Span`
//! around every call into a layer. It writes the same `iteration`,
//! `tuner` and `eval` trace records, journal deltas and snapshots as
//! `orchestrator::session::tune_observed`, which the fidelity checks
//! compare bit for bit. Pass (B) re-runs every scenario pass (A)
//! actually simulated, straight through `cluster` and `simkit`, to split
//! `EvalEngine::run` into fingerprinting, model build, event loop and
//! summary.

use cluster::config::{ClusterConfig, NodeId, Role};
use cluster::model::start_simulation;
use cluster::runner::IterationOutcome;
use harmony::server::HarmonyServer;
use harmony::strategy::TuningMethod;
use harmony::tuner::Measurement;
use obs::{JsonlWriter, MemorySink, Span, TraceRecord, TraceSink};
use orchestrator::binding;
use orchestrator::checkpoint::{session_fingerprint, Checkpointer};
use orchestrator::eval::scenario_fingerprint;
use orchestrator::session::SessionConfig;
use persist::{Checkpointable, State};
use simkit::engine::StopReason;
use simkit::time::SimTime;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::profile::{Output, Workload};

/// Records `obs::Span`s with `id`, `parent` and `iteration` fields into
/// memory; they are written out only when the pass ends.
pub(crate) struct Spans {
    sink: MemorySink,
    next_id: u64,
}

impl Spans {
    pub(crate) fn new() -> Spans {
        Spans {
            sink: MemorySink::new(),
            next_id: 1,
        }
    }

    /// Open a span; `parent` 0 is the top level, `iteration` -1 is
    /// outside the tuning loop.
    pub(crate) fn begin(&mut self, kind: &str, parent: u64, iteration: i64) -> (u64, Span) {
        let id = self.next_id;
        self.next_id += 1;
        let span = Span::begin(kind)
            .field("id", id)
            .field("parent", parent)
            .field("iteration", iteration);
        (id, span)
    }

    pub(crate) fn end(&mut self, span: Span) {
        span.end(&mut self.sink);
    }

    pub(crate) fn time<T>(
        &mut self,
        kind: &str,
        parent: u64,
        iteration: i64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (_, span) = self.begin(kind, parent, iteration);
        let out = f();
        self.end(span);
        out
    }

    pub(crate) fn records(&self) -> &[TraceRecord] {
        self.sink.records()
    }
}

/// Per-kind totals over a set of spans: wall time, and self time (wall
/// minus the child spans).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KindTotal {
    pub wall_ms: f64,
    pub self_ms: f64,
}

pub(crate) fn totals(records: &[TraceRecord]) -> BTreeMap<String, KindTotal> {
    let num = |r: &TraceRecord, k: &str| r.get(k).and_then(obs::Value::as_f64).unwrap_or(0.0);
    let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for r in records {
        *child_ms.entry(num(r, "parent") as u64).or_default() += num(r, "wall_ms");
    }
    let mut out: BTreeMap<String, KindTotal> = BTreeMap::new();
    for r in records {
        let wall = num(r, "wall_ms");
        let children = child_ms.get(&(num(r, "id") as u64)).copied().unwrap_or(0.0);
        let t = out.entry(r.kind().to_string()).or_default();
        t.wall_ms += wall;
        t.self_ms += wall - children;
    }
    out
}

/// What the traced pass of one `drive_tuning` workload measured.
pub(crate) struct Traced {
    /// Pass (A)'s outputs, for the fidelity checks against the real
    /// session.
    pub output: Output,
    pub eval_hits: u64,
    pub eval_misses: u64,
    pub proposals: u64,
    pub snapshots: u64,
    pub snapshot_bytes: u64,
    /// Pass (B): events, refused and attempted requests over the probed
    /// scenarios, and the scenarios whose outcome differed from pass (A).
    pub events: u64,
    pub refused: u64,
    pub requests: u64,
    pub probed: u64,
    pub probe_mismatches: Vec<String>,
    pub spans: Spans,
}

/// One `EvalEngine::run` call of pass (A): its scenario, whether it ran
/// the DES (a cache miss) and the outcome it returned.
struct Probe {
    scenario: cluster::model::ClusterScenario,
    simulated: bool,
    out: IterationOutcome,
}

/// The tuner side of the replica, one variant per layout the workloads
/// use (the default method, duplication and partitioning).
enum Engine {
    Single(HarmonyServer),
    Tiers(Vec<HarmonyServer>),
    Lines {
        servers: Vec<HarmonyServer>,
        lines: Vec<Vec<NodeId>>,
        base: ClusterConfig,
    },
}

/// Same derivation as the session's per-server tuner seed.
fn tuner_seed(cfg: &SessionConfig, index: u64) -> u64 {
    (cfg.base_seed ^ 0x7E57_A15E_ED00_0001).wrapping_add(index)
}

/// Same derivation as the session's measurement-replication seed.
fn replication_seed(cfg: &SessionConfig, rep: u32) -> u64 {
    (cfg.base_seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_add(rep as u64)
}

fn server(
    cfg: &SessionConfig,
    name: String,
    space: harmony::space::ParamSpace,
    index: u64,
) -> Result<HarmonyServer, String> {
    let tuner =
        harmony::registry::make_tuner_seeded(&cfg.tuner, space, None, tuner_seed(cfg, index))
            .map_err(|e| e.to_string())?;
    Ok(HarmonyServer::new(name, tuner).batch_protocol(true))
}

impl Engine {
    fn new(cfg: &SessionConfig, method: TuningMethod) -> Result<Engine, String> {
        Ok(match method {
            TuningMethod::Default => Engine::Single(server(
                cfg,
                "all-nodes".into(),
                binding::full_space(&cfg.topology),
                0,
            )?),
            TuningMethod::Duplication => Engine::Tiers(vec![
                server(
                    cfg,
                    "proxy-tier".into(),
                    binding::role_space(Role::Proxy),
                    0,
                )?,
                server(cfg, "web-tier".into(), binding::role_space(Role::App), 1)?,
                server(cfg, "db-tier".into(), binding::role_space(Role::Db), 2)?,
            ]),
            TuningMethod::Partitioning => {
                let nodes: Vec<(usize, u8)> = cfg
                    .topology
                    .roles()
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (i, *r as u8))
                    .collect();
                let lines: Vec<Vec<NodeId>> = harmony::workline::build_work_lines(&nodes)
                    .map_err(|e| e.to_string())?
                    .into_iter()
                    .map(|l| l.nodes)
                    .collect();
                let servers = (0..lines.len())
                    .map(|i| server(cfg, format!("line-{i}"), binding::tier_space(), i as u64))
                    .collect::<Result<_, _>>()?;
                Engine::Lines {
                    servers,
                    lines,
                    base: ClusterConfig::defaults(&cfg.topology),
                }
            }
            other => return Err(format!("no replica for method {other:?}")),
        })
    }

    fn servers(&self) -> &[HarmonyServer] {
        match self {
            Engine::Single(s) => std::slice::from_ref(s),
            Engine::Tiers(servers) | Engine::Lines { servers, .. } => servers,
        }
    }

    fn propose(&mut self, cfg: &SessionConfig) -> ClusterConfig {
        match self {
            Engine::Single(s) => binding::config_from_full(&cfg.topology, &s.next_config()),
            Engine::Tiers(s) => {
                let (p, w, d) = (s[0].next_config(), s[1].next_config(), s[2].next_config());
                binding::config_from_roles(&cfg.topology, &p, &w, &d)
            }
            Engine::Lines {
                servers,
                lines,
                base,
            } => {
                let mut config = base.clone();
                for (s, line) in servers.iter_mut().zip(lines.iter()) {
                    let proposal = s.next_config();
                    binding::apply_line_config(&mut config, &cfg.topology, line, &proposal);
                }
                config
            }
        }
    }

    fn lines(&self) -> Option<Vec<Vec<NodeId>>> {
        match self {
            Engine::Lines { lines, .. } => Some(lines.clone()),
            _ => None,
        }
    }

    fn report(&mut self, m: &Measurement, line_wips: &[f64]) {
        match self {
            Engine::Single(s) => s.report_measurement(*m),
            Engine::Tiers(servers) => servers.iter_mut().for_each(|s| s.report_measurement(*m)),
            Engine::Lines { servers, .. } => {
                for (s, lw) in servers.iter_mut().zip(line_wips) {
                    let share = if m.mean > 0.0 { lw / m.mean } else { 0.0 };
                    s.report_measurement(
                        Measurement::point(*lw)
                            .with_ci(m.ci_half_width * share)
                            .with_replications(m.replications),
                    );
                }
            }
        }
    }

    fn save_state(&self) -> State {
        let servers = State::List(
            self.servers()
                .iter()
                .map(Checkpointable::save_state)
                .collect(),
        );
        match self {
            Engine::Single(_) => State::map()
                .with("kind", State::Str("single".into()))
                .with("servers", servers),
            Engine::Tiers(_) => State::map()
                .with("kind", State::Str("tiers".into()))
                .with("servers", servers),
            Engine::Lines { lines, base, .. } => State::map()
                .with("kind", State::Str("lines".into()))
                .with("servers", servers)
                .with(
                    "lines",
                    State::List(
                        lines
                            .iter()
                            .map(|l| State::List(l.iter().map(|&n| State::U64(n as u64)).collect()))
                            .collect(),
                    ),
                )
                .with("base", config_state(base)),
        }
    }
}

fn node_values(n: &cluster::config::NodeParams) -> Vec<i64> {
    if let Some(p) = n.as_proxy() {
        p.to_values().to_vec()
    } else if let Some(w) = n.as_app() {
        w.to_values().to_vec()
    } else if let Some(d) = n.as_db() {
        d.to_values().to_vec()
    } else {
        Vec::new()
    }
}

fn config_state(config: &ClusterConfig) -> State {
    State::List(
        config
            .nodes()
            .iter()
            .map(|n| {
                State::map()
                    .with("role", State::Str(n.role().name().to_string()))
                    .with("values", State::i64_list(&node_values(n)))
            })
            .collect(),
    )
}

fn config_summary(config: &ClusterConfig) -> String {
    config
        .nodes()
        .iter()
        .map(|n| {
            let vals: Vec<String> = node_values(n).iter().map(|v| v.to_string()).collect();
            format!("{}[{}]", n.role().name(), vals.join(","))
        })
        .collect::<Vec<_>>()
        .join("|")
}

fn ci_half(cfg: &SessionConfig, completed: u64) -> f64 {
    let secs = cfg.plan.measure.as_secs_f64();
    if secs > 0.0 {
        1.96 * (completed as f64).sqrt() / secs
    } else {
        0.0
    }
}

struct Best {
    config: ClusterConfig,
    wips: f64,
    iteration: u32,
}

/// One `EvalEngine::run` call inside an `orchestrator.eval_run` span,
/// remembered for pass (B).
fn eval(
    spans: &mut Spans,
    cfg: &SessionConfig,
    scenario: cluster::model::ClusterScenario,
    parent: u64,
    iteration: i64,
    probes: &mut Vec<Probe>,
) -> IterationOutcome {
    let misses = cfg.eval.counters().misses;
    let out = spans.time("orchestrator.eval_run", parent, iteration, || {
        cfg.eval.run(&scenario, None)
    });
    probes.push(Probe {
        scenario,
        simulated: cfg.eval.counters().misses > misses,
        out: out.clone(),
    });
    out
}

/// Pass (A) then pass (B) for one seeded `drive_tuning` workload, with
/// checkpoint and trace files under `dir`.
pub(crate) fn traced_pass(w: &Workload, seed: u64, dir: &Path) -> Result<Traced, String> {
    let method = w.method().ok_or("the resilient loop has no replica")?;
    let n = w.iterations;
    let mut spans = Spans::new();
    let mut probes = Vec::new();
    let (root, root_span) = spans.begin("session", 0, -1);

    // Set-up, in the CLI's order: config, the 2-replication default
    // baseline, trace sink, then (inside the session) checkpoint open and
    // tuner construction.
    let (setup, setup_span) = spans.begin("setup", root, -1);
    let cfg = spans.time("orchestrator.config", setup, -1, || {
        w.session_config(seed, dir)
    })?;
    let defaults = ClusterConfig::defaults(&cfg.topology);
    let mut baseline = simkit::stats::Welford::new();
    for rep in 0..2u32 {
        let scenario = spans.time("orchestrator.scenario", setup, -1, || {
            let mut s = cfg.scenario(defaults.clone(), rep);
            s.seed = replication_seed(&cfg, rep);
            s
        });
        baseline.record(
            eval(&mut spans, &cfg, scenario, setup, -1, &mut probes)
                .metrics
                .wips,
        );
    }
    let mut trace = spans
        .time("obs.open", setup, -1, || {
            JsonlWriter::create(dir.join("trace.jsonl"))
        })
        .map_err(|e| format!("trace: {e}"))?;
    let policy = cfg
        .checkpoint
        .clone()
        .ok_or("workload has no checkpoint policy")?;
    let (mut ck, _) = spans
        .time("persist.open", setup, -1, || {
            Checkpointer::open(&policy, session_fingerprint(&cfg, method.label(), n, n))
        })
        .map_err(|e| e.to_string())?;
    let mut engine = spans.time("harmony.build", setup, -1, || Engine::new(&cfg, method))?;
    spans.end(setup_span);

    let eval_before = cfg.eval.counters();
    let mut best = Best {
        config: defaults.clone(),
        wips: f64::NEG_INFINITY,
        iteration: 0,
    };
    let mut records: Vec<(u32, f64, Vec<f64>, u64)> = Vec::with_capacity(n as usize);
    let (mut trace_records, mut proposals, mut snapshots, mut snapshot_bytes) =
        (0u64, 0u64, 0u64, 0u64);
    for i in 0..n {
        let it = i as i64;
        let (iter_id, iter_span) = spans.begin("iteration", root, it);
        let t0 = Instant::now();
        let config = spans.time("harmony.propose", iter_id, it, || engine.propose(&cfg));
        proposals += engine.servers().len() as u64;
        let scenario = spans.time("orchestrator.scenario", iter_id, it, || {
            let mut s = cfg.scenario(config.clone(), i);
            s.lines = engine.lines();
            s
        });
        let out = eval(&mut spans, &cfg, scenario, iter_id, it, &mut probes);
        let wips = out.metrics.wips;
        let ci = ci_half(&cfg, out.metrics.completed);
        let m = Measurement::point(wips).with_ci(ci);
        spans.time("harmony.report", iter_id, it, || {
            engine.report(&m, &out.line_wips)
        });
        if wips > best.wips {
            best = Best {
                config: config.clone(),
                wips,
                iteration: i,
            };
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        spans.time("obs.emit", iter_id, it, || {
            let lead = &engine.servers()[0];
            let mut rec = TraceRecord::new("iteration")
                .field("method", method.label())
                .field("iteration", i)
                .field("workload", cfg.workload.name())
                .field("seed", cfg.base_seed.wrapping_add(i as u64))
                .field("config", config_summary(&config))
                .field("wips", wips)
                .field("ci_half", ci)
                .field("completed", out.metrics.completed)
                .field("failed", out.total_failed)
                .field("line_wips", out.line_wips.clone())
                .field("best_wips", best.wips)
                .field("best_iteration", best.iteration)
                .field("events", out.events);
            for (k, v) in lead.diagnostics() {
                rec.push(format!("tuner_{k}"), v);
            }
            rec.push("wall_ms", wall_ms);
            trace.emit(&rec);
            let rec = TraceRecord::new("tuner")
                .field("name", lead.algorithm())
                .field("iteration", i)
                .field("batch", lead.batch_size() as u64)
                .field("mean", m.mean)
                .field("ci_half", m.ci_half_width)
                .field("replications", m.replications as u64);
            trace.emit(&rec);
        });
        trace_records += 2;
        records.push((i, wips, out.line_wips.clone(), out.total_failed));
        spans
            .time("persist.journal", iter_id, it, || {
                ck.append(
                    State::map()
                        .with("iteration", State::U64(i as u64))
                        .with("wips", State::F64(wips))
                        .with("line_wips", State::f64_list(&out.line_wips))
                        .with("failed", State::U64(out.total_failed))
                        .with("completed", State::U64(out.metrics.completed)),
                )
            })
            .map_err(|e| e.to_string())?;
        let (write_id, write_span) = spans.begin("persist.snapshot_write", iter_id, it);
        let mut wrote = false;
        ck.maybe_snapshot(i + 1, n, || {
            wrote = true;
            spans.time("persist.snapshot_state", write_id, it, || {
                let mut snap = State::map()
                    .with("kind", State::Str("tune".into()))
                    .with("engine", engine.save_state())
                    .with(
                        "best",
                        State::map()
                            .with("config", config_state(&best.config))
                            .with("wips", State::F64(best.wips))
                            .with("iteration", State::U64(best.iteration as u64)),
                    )
                    .with("records", records_state(&records, &cfg));
                snap.set("eval_cache", cfg.eval.save_cache_state());
                snap
            })
        })
        .map_err(|e| e.to_string())?;
        spans.end(write_span);
        if wrote {
            snapshots += 1;
            let path = policy.dir.join(format!("snap-{:08}.ckpt", i + 1));
            snapshot_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        }
        spans.end(iter_span);
    }
    spans.time("obs.emit", root, -1, || {
        let activity = cfg.eval.counters().since(&eval_before);
        trace.emit(
            &TraceRecord::new("eval")
                .field("method", method.label())
                .field("iterations", n)
                .field("threads", cfg.eval.threads() as u64)
                .field("hits", activity.hits)
                .field("misses", activity.misses)
                .field("speculated", activity.speculated)
                .field("speculation_dropped", activity.speculation_dropped)
                .field("hit_rate", activity.hit_rate()),
        );
        trace.flush();
    });
    trace_records += 1;
    drop(ck);
    spans.end(root_span);
    let counters = cfg.eval.counters();

    let output = Output {
        default_wips: baseline.mean(),
        best_wips: best.wips,
        records: records
            .iter()
            .map(|(_, wips, lines, failed)| {
                (
                    wips.to_bits(),
                    lines.iter().map(|x| x.to_bits()).collect(),
                    *failed,
                )
            })
            .collect(),
        trace_records,
        checkpoint: crate::profile::digest_dir(&policy.dir),
        chaos: None,
    };
    let mut traced = Traced {
        output,
        eval_hits: counters.hits,
        eval_misses: counters.misses,
        proposals,
        snapshots,
        snapshot_bytes,
        events: 0,
        refused: 0,
        requests: 0,
        probed: 0,
        probe_mismatches: Vec::new(),
        spans,
    };
    probe(&mut traced, &cfg, &probes);
    Ok(traced)
}

fn records_state(records: &[(u32, f64, Vec<f64>, u64)], cfg: &SessionConfig) -> State {
    State::List(
        records
            .iter()
            .map(|(i, wips, lines, failed)| {
                State::map()
                    .with("iteration", State::U64(*i as u64))
                    .with("wips", State::F64(*wips))
                    .with("line_wips", State::f64_list(lines))
                    .with("workload", State::Str(cfg.workload.name().to_string()))
                    .with("failed", State::U64(*failed))
            })
            .collect(),
    )
}

/// Pass (B): fingerprint every scenario pass (A) evaluated, and re-run
/// each one it simulated phase by phase, checking the outcome against
/// pass (A)'s bit for bit.
fn probe(traced: &mut Traced, cfg: &SessionConfig, probes: &[Probe]) {
    let spans = &mut traced.spans;
    let (root, root_span) = spans.begin("probe", 0, -1);
    let warm_end = SimTime::ZERO + cfg.plan.warmup;
    let horizon = SimTime::ZERO + cfg.plan.total();
    for (k, p) in probes.iter().enumerate() {
        let k = k as i64;
        std::hint::black_box(spans.time("orchestrator.fingerprint", root, k, || {
            scenario_fingerprint(&p.scenario)
        }));
        if !p.simulated {
            continue;
        }
        let mut sim = spans.time("cluster.start_simulation", root, k, || {
            start_simulation(&p.scenario)
        });
        let warm = spans.time("simkit.run_until", root, k, || sim.run_until(warm_end));
        spans.time("cluster.summarise", root, k, || {
            let now = sim.now();
            for node in &mut sim.model_mut().nodes {
                node.reset_windows(now);
            }
        });
        let measured = spans.time("simkit.run_until", root, k, || sim.run_until(horizon));
        let events = sim.events_executed();
        let (metrics, line_wips, done, failed) =
            spans.time("cluster.summarise", root, k, move || {
                let model = sim.model();
                let end = sim.now();
                std::hint::black_box(model.utilizations(end));
                (
                    model.metrics.summarise(),
                    model.line_wips(),
                    model.total_done(),
                    model.total_failed(),
                )
            });
        traced.probed += 1;
        traced.events += events;
        traced.refused += failed;
        traced.requests += done + failed;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if warm != StopReason::HorizonReached
            || measured != StopReason::HorizonReached
            || events != p.out.events
            || metrics.wips.to_bits() != p.out.metrics.wips.to_bits()
            || bits(&line_wips) != bits(&p.out.line_wips)
        {
            traced.probe_mismatches.push(format!(
                "scenario seed {}: events {} vs {}, wips {} vs {}",
                p.scenario.seed, events, p.out.events, metrics.wips, p.out.metrics.wips
            ));
        }
    }
    spans.end(root_span);
}
