//! Benchmarks of one full cluster iteration (the unit of tuning cost):
//! per-workload, per-topology size, and the observability overhead of
//! running the same iteration with a live metrics registry attached.

use bench::harness::{measure, Criterion};
use std::hint::black_box;
use std::time::Duration;

use cluster::config::{ClusterConfig, Topology};
use cluster::model::ClusterScenario;
use cluster::runner::{run_iteration, run_iteration_observed};
use cluster::{Health, HealthChange, HealthTimeline};
use faults::FaultPlan;
use obs::Registry;
use orchestrator::session::SessionConfig;
use simkit::time::SimDuration;
use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;

fn scenario(topology: Topology, workload: Workload, pop: u32) -> ClusterScenario {
    let mut s = ClusterScenario::single(workload, pop, IntervalPlan::tiny(), 42);
    s.config = ClusterConfig::defaults(&topology);
    s.topology = topology;
    s
}

fn bench_workloads(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/workload");
    g.sample_size(10);
    for workload in Workload::ALL {
        g.bench_function(workload.name(), |b| {
            let s = scenario(Topology::single(), workload, 400);
            b.iter(|| black_box(run_iteration(&s).metrics.wips))
        });
    }
    g.finish();
}

fn bench_cluster_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/cluster_size");
    g.sample_size(10);
    for (label, topo, pop) in [
        ("1p1a1d", Topology::tiers(1, 1, 1).unwrap(), 400u32),
        ("2p2a2d", Topology::tiers(2, 2, 2).unwrap(), 800),
        ("4p4a4d", Topology::tiers(4, 4, 4).unwrap(), 1_600),
    ] {
        g.bench_function(label, |b| {
            let s = scenario(topo.clone(), Workload::Shopping, pop);
            b.iter(|| black_box(run_iteration(&s).metrics.wips))
        });
    }
    g.finish();
}

fn bench_worklines(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/worklines");
    g.sample_size(10);
    g.bench_function("partitioned_2lines", |b| {
        let topo = Topology::tiers(2, 2, 2).unwrap();
        let mut s = scenario(topo, Workload::Shopping, 800);
        s.lines = Some(vec![vec![0, 2, 4], vec![1, 3, 5]]);
        b.iter(|| black_box(run_iteration(&s).line_wips.len()))
    });
    g.finish();
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/metrics");
    g.sample_size(10);
    g.bench_function("plain", |b| {
        let s = scenario(Topology::single(), Workload::Shopping, 400);
        b.iter(|| black_box(run_iteration(&s).metrics.wips))
    });
    g.bench_function("observed", |b| {
        let s = scenario(Topology::single(), Workload::Shopping, 400);
        let reg = Registry::new();
        b.iter(|| black_box(run_iteration_observed(&s, &reg).metrics.wips))
    });
    g.finish();
}

fn bench_faults(c: &mut Criterion) {
    let mut g = c.benchmark_group("iteration/faults");
    g.sample_size(10);
    g.bench_function("healthy", |b| {
        let s = scenario(Topology::tiers(1, 2, 1).unwrap(), Workload::Shopping, 600);
        b.iter(|| black_box(run_iteration(&s).metrics.wips))
    });
    g.bench_function("crash_mid_window", |b| {
        let mut s = scenario(Topology::tiers(1, 2, 1).unwrap(), Workload::Shopping, 600);
        s.faults = Some(HealthTimeline {
            initial: vec![Health::Up; 4],
            changes: vec![HealthChange {
                after: SimDuration::from_secs(10),
                node: 1,
                health: Health::Down,
            }],
        });
        b.iter(|| black_box(run_iteration(&s).metrics.wips))
    });
    g.finish();
}

/// Head-to-head: the fault injector must cost < 5% on the no-fault path.
/// Attaching an *empty* fault plan leaves the DES untouched — the only
/// added work is projecting the plan onto each measurement window — so
/// this isolates the injector's bookkeeping cost.
fn report_injector_overhead() {
    let topology = Topology::single();
    let cfg =
        SessionConfig::new(topology.clone(), Workload::Shopping, 400).plan(IntervalPlan::tiny());
    let config = ClusterConfig::defaults(&topology);
    let min_time = Duration::from_millis(400);
    let plain = measure(
        || black_box(cfg.evaluate(config.clone(), 3).metrics.wips),
        min_time,
        20,
    );
    let faulted_cfg = cfg.clone().fault_plan(FaultPlan::new());
    let faulted = measure(
        || black_box(faulted_cfg.evaluate(config.clone(), 3).metrics.wips),
        min_time,
        20,
    );
    let delta = faulted.secs_per_iter() / plain.secs_per_iter() - 1.0;
    println!(
        "iteration/faults injector overhead (no-fault path): {:+.2}% (target < 5%; \
         plain {:.3} ms, with empty plan {:.3} ms)",
        delta * 100.0,
        plain.secs_per_iter() * 1e3,
        faulted.secs_per_iter() * 1e3
    );
}

/// Head-to-head: the observability layer must cost < 5% per iteration.
/// Printed as a percentage so regressions are visible in bench output.
fn report_overhead() {
    let s = scenario(Topology::single(), Workload::Shopping, 400);
    let min_time = Duration::from_millis(400);
    let plain = measure(|| black_box(run_iteration(&s).metrics.wips), min_time, 20);
    let reg = Registry::new();
    let observed = measure(
        || black_box(run_iteration_observed(&s, &reg).metrics.wips),
        min_time,
        20,
    );
    let delta = observed.secs_per_iter() / plain.secs_per_iter() - 1.0;
    println!(
        "iteration/metrics overhead: {:+.2}% (plain {:.3} ms, observed {:.3} ms)",
        delta * 100.0,
        plain.secs_per_iter() * 1e3,
        observed.secs_per_iter() * 1e3
    );
}

/// Head-to-head: crash-safe checkpointing must cost < 5% per tuning
/// iteration at the default cadence (a journal append per iteration, a
/// fsynced snapshot every 10th). With a pinned seed the simulation work
/// is identical with and without a checkpoint directory, so the added
/// cost *is* the persistence work; measuring that directly (open + one
/// journal frame per iteration + one snapshot per cadence) resolves a
/// ~1% delta that end-to-end differencing would bury in scheduler noise.
/// It times `maybe_snapshot`, which waits until the snapshot is durable;
/// a session hands its snapshots to a writer thread and goes on, so this
/// is an upper bound on what a session pays.
fn report_checkpoint_overhead() {
    use harmony::strategy::TuningMethod;
    use orchestrator::checkpoint::{session_fingerprint, CheckpointPolicy, Checkpointer};
    use orchestrator::session::{tune_observed, SessionObserver};
    use persist::State;

    let topology = Topology::single();
    let cfg = SessionConfig::new(topology, Workload::Shopping, 400)
        .plan(IntervalPlan::tiny())
        .pin_seed(true);
    let dir = std::env::temp_dir().join(format!("bench-ckpt-{}", std::process::id()));
    let iters = 20u32;
    let min_time = Duration::from_millis(700);
    let plain = measure(
        || {
            let none = &mut SessionObserver::none();
            let run = tune_observed(&cfg, TuningMethod::Default, iters, none).expect("tune");
            black_box(run.best_wips)
        },
        min_time,
        10,
    );

    // One session's worth of persistence: fresh open, a delta frame per
    // iteration, and a full (synthetic, comparably-sized) snapshot on
    // the default every-10 cadence.
    let policy = CheckpointPolicy::new(&dir);
    let fp = session_fingerprint(&cfg, "bench", iters, iters);
    let snapshot = |upto: u64| {
        State::map().with("kind", State::Str("tune".into())).with(
            "records",
            State::List(
                (0..upto)
                    .map(|i| {
                        State::map()
                            .with("iteration", State::U64(i))
                            .with("wips", State::F64(120.0 + i as f64))
                            .with("line_wips", State::f64_list(&[120.0 + i as f64]))
                            .with("workload", State::Str("Shopping".into()))
                            .with("failed", State::U64(0))
                    })
                    .collect(),
            ),
        )
    };
    let persistence = measure(
        || {
            let (mut ck, _) = Checkpointer::open(&policy, fp).expect("open");
            for i in 0..iters {
                ck.append(
                    State::map()
                        .with("iteration", State::U64(i as u64))
                        .with("wips", State::F64(123.456))
                        .with("line_wips", State::f64_list(&[123.456]))
                        .with("failed", State::U64(0)),
                )
                .expect("append");
                ck.maybe_snapshot(i + 1, iters, || snapshot(i as u64 + 1))
                    .expect("snapshot");
            }
            black_box(())
        },
        min_time,
        10,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let delta = persistence.secs_per_iter() / plain.secs_per_iter();
    println!(
        "iteration/checkpoint overhead (default cadence, {iters}-iteration session): {:+.2}% \
         (target < 5%; session {:.3} ms, persistence ops {:.3} ms)",
        delta * 100.0,
        plain.secs_per_iter() * 1e3,
        persistence.secs_per_iter() * 1e3
    );
}

/// Head-to-head: the evaluation engine against plain sequential
/// evaluation, asserting the *same* WIPS series bit for bit, on
/// 30-iteration sessions of two kinds:
///
/// * `pinned sequential` / `pinned memoized` — a pinned-seed simplex
///   session shaped like the CLI's (two default replications, then the
///   tuning iterations) with no engine, then with a cold cache. A pinned
///   session measures everything on one seed, so the second replication
///   and the tuner's first proposal, the default configuration again,
///   are cache hits, as is any configuration the simplex revisits. An
///   unpinned session's revisits carry new seeds and never hit, so it
///   is not timed here;
/// * `sequential bestconfig` / `queued prefetch` — a BestConfig session
///   with no engine, then with a cold cache and one worker per core, so
///   each queued round is evaluated as one batch on the shared pool (a
///   wash on single-core hosts, where there is nobody to overlap the
///   batch with). The simplex queues nothing, so it is not timed here.
fn report_eval_speedup() {
    use harmony::strategy::TuningMethod;
    use orchestrator::eval::EvalSettings;
    use orchestrator::session::{tune_observed, SessionObserver};
    use std::time::{Duration, Instant};

    let topology = Topology::single();
    let cfg = SessionConfig::new(topology, Workload::Shopping, 400).plan(IntervalPlan::tiny());
    let iters = 30u32;

    let tune = |cfg: &SessionConfig, what: &str| {
        let t = Instant::now();
        let run = tune_observed(
            cfg,
            TuningMethod::Default,
            iters,
            &mut SessionObserver::none(),
        )
        .expect(what);
        (run, t.elapsed())
    };
    // Five alternating rounds, medians reported: a hit saves one DES
    // run of ~3 ms, which one timing of each side loses in host noise.
    // The memoized side starts from a cold cache every round.
    let pinned = cfg.clone().pin_seed(true);
    let pinned_session = |cfg: &SessionConfig| {
        let t = Instant::now();
        let (default_wips, _) = cfg.measure_default(2);
        let (run, _) = tune(cfg, "pinned session");
        ((default_wips.to_bits(), run.wips_series()), t.elapsed())
    };
    let (mut sequential, mut memo) = (Vec::new(), Vec::new());
    let mut memo_counters = Default::default();
    for _ in 0..5 {
        let (plain, t) = pinned_session(&pinned);
        sequential.push(t);
        let memo_cfg = pinned
            .clone()
            .eval_settings(EvalSettings::default().cache(true));
        let (memoized, t) = pinned_session(&memo_cfg);
        memo.push(t);
        assert_eq!(
            plain, memoized,
            "the memoizing cache changed the measured WIPS"
        );
        memo_counters = memo_cfg.eval.counters();
    }
    let median = |mut times: Vec<Duration>| {
        times.sort();
        times[times.len() / 2]
    };
    let (sequential, memo) = (median(sequential), median(memo));

    let bestconfig = cfg.clone().tuner("bestconfig");
    let (batch_plain, batch_sequential) = tune(&bestconfig, "sequential bestconfig tune");
    let prefetch_cfg = bestconfig.eval_settings(EvalSettings::default().cache(true).threads(0));
    let (prefetched, prefetch) = tune(&prefetch_cfg, "queued prefetch tune");
    let prefetch_counters = prefetch_cfg.eval.counters();
    assert_eq!(
        batch_plain.wips_series(),
        prefetched.wips_series(),
        "queued prefetch changed the measured WIPS series"
    );

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "iteration/eval pinned memoization (2 default replications + {iters}-iteration pinned \
         simplex session, cold cache, median of 5 alternating runs): {:.2}x (sequential \
         {:.0} ms, memoized {:.0} ms, hit rate {:.0}% [{} hits / {} misses])",
        sequential.as_secs_f64() / memo.as_secs_f64().max(1e-9),
        ms(sequential),
        ms(memo),
        memo_counters.hit_rate() * 100.0,
        memo_counters.hits,
        memo_counters.misses
    );
    println!(
        "iteration/eval queued prefetch ({iters}-iteration bestconfig session, {cores} core(s), \
         cold cache): {:.2}x (sequential {:.0} ms, prefetching {:.0} ms, hit rate {:.0}% \
         [{} hits / {} misses], {} prefetched)",
        batch_sequential.as_secs_f64() / prefetch.as_secs_f64().max(1e-9),
        ms(batch_sequential),
        ms(prefetch),
        prefetch_counters.hit_rate() * 100.0,
        prefetch_counters.hits,
        prefetch_counters.misses,
        prefetch_counters.speculated
    );
}

fn main() {
    let mut c = Criterion::from_args();
    bench_workloads(&mut c);
    bench_cluster_sizes(&mut c);
    bench_worklines(&mut c);
    bench_metrics_overhead(&mut c);
    bench_faults(&mut c);
    report_overhead();
    report_injector_overhead();
    report_checkpoint_overhead();
    report_eval_speedup();
}
