//! Command-line interface definitions for the `ah-webtune` binary.
//!
//! Hand-rolled parsing (no extra dependencies): subcommands `simulate`,
//! `tune`, `reconfig`, and `sweep`, each with a small flag set.

use cluster::config::Topology;
use cluster::model::{LoadModel, DEFAULT_COHORT_BINS};
use harmony::strategy::TuningMethod;
use tpcw::metrics::IntervalPlan;
use tpcw::mix::Workload;

/// Parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one measurement iteration and print the outcome.
    Simulate(SimArgs),
    /// Run a tuning session.
    Tune(TuneArgs),
    /// Run a tuning + reconfiguration session.
    Reconfig(SimArgs),
    /// Sweep browser populations.
    Sweep(SweepArgs),
    /// Print usage.
    Help,
}

/// Common simulation options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    pub workload: Workload,
    pub topology: Topology,
    pub population: u32,
    pub seed: u64,
    pub markov: bool,
    pub plan: IntervalPlan,
    /// Write one JSONL trace record per iteration to this path.
    pub trace: Option<String>,
    /// Collect and print engine/resource metrics at the end of the run.
    pub metrics: bool,
    /// Path to a JSON fault plan injected into the session timeline.
    pub faults: Option<String>,
    /// Seed for the fault injector's deterministic noise/jitter draws.
    pub fault_seed: Option<u64>,
    /// Directory for crash-safe session state (journal + snapshots).
    /// The three checkpoint options are parsed by `tune` only.
    pub checkpoint_dir: Option<String>,
    /// Snapshot cadence in iterations (default 10 when checkpointing).
    pub checkpoint_every: Option<u32>,
    /// Resume the interrupted session found in `--checkpoint-dir`.
    pub resume: bool,
    /// Worker threads for evaluating queued trials ahead
    /// (`None` = 1 = sequential; `Some(0)` = one per core).
    pub eval_threads: Option<usize>,
    /// Disable the eval cache, which hands prefetched trials' outcomes
    /// to the loop (on by default in the CLI; the library default is
    /// off).
    pub no_eval_cache: bool,
    /// Worker width for measurement replications
    /// (`None` = 1 = sequential; `Some(0)` = one per core). Bit-identical
    /// results at any width — replications merge in replication order.
    pub replication_threads: Option<usize>,
    /// How the browser population is realised (`--load-model`): one
    /// simulated browser per user, or think-time cohorts of weighted
    /// tokens (`--cohort-bins` controls the binning resolution).
    pub load_model: LoadModel,
}

impl Default for SimArgs {
    fn default() -> Self {
        SimArgs {
            workload: Workload::Shopping,
            topology: Topology::single(),
            population: 1_000,
            seed: 42,
            markov: false,
            plan: IntervalPlan::fast(),
            trace: None,
            metrics: false,
            faults: None,
            fault_seed: None,
            checkpoint_dir: None,
            checkpoint_every: None,
            resume: false,
            eval_threads: None,
            no_eval_cache: false,
            replication_threads: None,
            load_model: LoadModel::PerBrowser,
        }
    }
}

/// Tuning options.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneArgs {
    pub sim: SimArgs,
    pub method: TuningMethod,
    pub iterations: u32,
    /// Registered tuning algorithm (`--tuner`); `None` = simplex.
    pub tuner: Option<String>,
    /// Run a resilient session gating reconfiguration on the φ-accrual
    /// failure detector instead of the injector's health oracle.
    pub detector: bool,
    /// φ sliding-window capacity override (requires `--detector`).
    pub detector_window: Option<usize>,
    /// Suspicion threshold φ* override (requires `--detector`).
    pub phi_threshold: Option<f64>,
    /// Run a resilient session with the historical oracle-gated
    /// reconfiguration (conflicts with `--detector`).
    pub health_oracle: bool,
}

/// Sweep options.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    pub sim: SimArgs,
    pub from: u32,
    pub to: u32,
    pub step: u32,
}

pub const USAGE: &str = "\
ah-webtune — automated cluster-based web service performance tuning

USAGE:
  ah-webtune simulate [options]        run one measurement iteration
  ah-webtune tune     [options]        run a tuning session
  ah-webtune reconfig [options]        tuning + automatic reconfiguration
  ah-webtune sweep    [options]        sweep browser populations

OPTIONS (all subcommands):
  --workload browsing|shopping|ordering   (default shopping)
  --topology PxAxD   e.g. 2x2x1           (default 1x1x1)
  --population N                          (default 1000)
  --seed N                                (default 42)
  --markov           walk TPC-W sessions instead of i.i.d. sampling
  --plan tiny|fast|paper                  measurement intervals (default fast)
  --trace PATH       write one JSONL trace record per iteration
  --metrics          print engine/resource metrics at the end of the run
  --faults PATH      JSON fault plan to inject (crashes, stalls, slowdowns, noise)
  --fault-seed N     seed for fault noise/jitter draws (default 0xFA17;
                     requires --faults)
  --eval-threads N   worker threads for evaluating queued trials ahead
                     (default 1 = sequential; 0 = auto, one per core).
                     Width > 1 runs batch-native tuners' queued rounds
                     (bestconfig, classytune) and tuna's confirmations
                     in parallel; point tuners such as the simplex run
                     sequentially at any width
  --no-eval-cache    disable the eval cache (identical results). The
                     cache only holds prefetched trials until they are
                     measured; without it nothing is prefetched, and at
                     --eval-threads 1 the trace has no eval record
  --replication-threads N   worker width for measurement replications
                     (default 1 = sequential; 0 = auto, one per core);
                     any width produces bit-identical statistics
  --load-model per-browser|cohort   how the population is realised
                     (default per-browser). cohort bins think times and
                     simulates weighted browser tokens, so million-user
                     populations cost O(tokens) events, not O(browsers)
  --cohort-bins N    think-time bins per mean for the cohort model
                     (default 64, N >= 1; requires --load-model cohort)

TUNE:
  --method default|duplication|partitioning|hybrid  (default default)
  --iterations N                                    (default 50)
  --checkpoint-dir PATH   journal + snapshot session state for crash recovery
  --checkpoint-every N    snapshot cadence in iterations (default 10, N >= 1)
  --resume           continue the interrupted session in --checkpoint-dir
  --tuner NAME       tuning algorithm: simplex, simplex-conservative,
                     bestconfig, classytune, tuna, annealing, random,
                     coordinate (default simplex). --method keeps its
                     old meaning — the §III duplication/partitioning
                     strategy — but relying on it to imply the simplex
                     algorithm is deprecated: say --tuner simplex.
  --detector         run a resilient session that gates crash
                     reconfiguration on the φ-accrual failure detector
                     (heartbeats -> suspicion -> membership) instead of
                     the fault injector's health oracle
  --detector-window N   φ sliding-window capacity (default 64;
                     requires --detector)
  --phi-threshold X  suspicion threshold φ* (default 8.0; requires
                     --detector)
  --health-oracle    run a resilient session with the historical
                     oracle-gated reconfiguration (conflicts with
                     --detector)

SWEEP:
  --from N --to N --step N                (default 400..2000 step 400)
";

/// Parse an argument list (without `argv[0]`).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, String> {
    let mut it = args.into_iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s,
    };
    let rest: Vec<String> = it.collect();
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "simulate" => Ok(Command::Simulate(parse_sim_exact(&rest)?)),
        "reconfig" => Ok(Command::Reconfig(parse_sim_exact(&rest)?)),
        "tune" => {
            let (mut sim, leftover) = parse_sim(&rest)?;
            let mut method = TuningMethod::Default;
            let mut iterations = 50;
            let mut tuner = None;
            let mut detector = false;
            let mut detector_window = None;
            let mut phi_threshold = None;
            let mut health_oracle = false;
            let mut i = 0;
            while i < leftover.len() {
                match leftover[i].as_str() {
                    "--detector" => {
                        detector = true;
                        i += 1;
                    }
                    "--detector-window" => {
                        detector_window = Some(parse_num(&leftover, i, "--detector-window")?);
                        i += 2;
                    }
                    "--phi-threshold" => {
                        phi_threshold = Some(parse_num(&leftover, i, "--phi-threshold")?);
                        i += 2;
                    }
                    "--health-oracle" => {
                        health_oracle = true;
                        i += 1;
                    }
                    "--tuner" => {
                        let v = leftover.get(i + 1).ok_or("--tuner needs a value")?;
                        if !harmony::registry::tuner_names().contains(&v.as_str()) {
                            return Err(harmony::registry::UnknownTuner(v.clone()).to_string());
                        }
                        tuner = Some(v.clone());
                        i += 2;
                    }
                    "--method" => {
                        let v = leftover.get(i + 1).ok_or("--method needs a value")?;
                        method = match v.as_str() {
                            "default" => TuningMethod::Default,
                            "duplication" => TuningMethod::Duplication,
                            "partitioning" => TuningMethod::Partitioning,
                            "hybrid" => TuningMethod::Hybrid,
                            other => return Err(format!("unknown method '{other}'")),
                        };
                        i += 2;
                    }
                    "--iterations" => {
                        iterations = parse_num(&leftover, i, "--iterations")?;
                        i += 2;
                    }
                    "--checkpoint-dir" => {
                        let v = leftover.get(i + 1).ok_or("--checkpoint-dir needs a path")?;
                        sim.checkpoint_dir = Some(v.clone());
                        i += 2;
                    }
                    "--checkpoint-every" => {
                        sim.checkpoint_every = Some(parse_num(&leftover, i, "--checkpoint-every")?);
                        i += 2;
                    }
                    "--resume" => {
                        sim.resume = true;
                        i += 1;
                    }
                    other => return Err(format!("unknown argument '{other}'")),
                }
            }
            if sim.checkpoint_dir.is_none() {
                if sim.resume {
                    return Err("--resume requires --checkpoint-dir".into());
                }
                if sim.checkpoint_every.is_some() {
                    return Err("--checkpoint-every requires --checkpoint-dir".into());
                }
            }
            if iterations == 0 {
                return Err("--iterations must be at least 1".into());
            }
            if sim.checkpoint_every == Some(0) {
                return Err("--checkpoint-every must be at least 1".into());
            }
            if detector && health_oracle {
                return Err("--detector conflicts with --health-oracle".into());
            }
            if !detector {
                if detector_window.is_some() {
                    return Err("--detector-window requires --detector".into());
                }
                if phi_threshold.is_some() {
                    return Err("--phi-threshold requires --detector".into());
                }
            }
            if detector_window == Some(0) {
                return Err("--detector-window must be at least 1".into());
            }
            if phi_threshold.is_some_and(|p: f64| !p.is_finite() || p <= 0.0) {
                return Err("--phi-threshold must be a positive number".into());
            }
            Ok(Command::Tune(TuneArgs {
                sim,
                method,
                iterations,
                tuner,
                detector,
                detector_window,
                phi_threshold,
                health_oracle,
            }))
        }
        "sweep" => {
            let (sim, leftover) = parse_sim(&rest)?;
            let (mut from, mut to, mut step) = (400u32, 2_000u32, 400u32);
            let mut i = 0;
            while i < leftover.len() {
                match leftover[i].as_str() {
                    "--from" => {
                        from = parse_num(&leftover, i, "--from")?;
                        i += 2;
                    }
                    "--to" => {
                        to = parse_num(&leftover, i, "--to")?;
                        i += 2;
                    }
                    "--step" => {
                        step = parse_num(&leftover, i, "--step")?;
                        i += 2;
                    }
                    other => return Err(format!("unknown argument '{other}'")),
                }
            }
            if from == 0 {
                return Err("--from must be at least 1".into());
            }
            if step == 0 || from > to {
                return Err("sweep needs --from <= --to and --step > 0".into());
            }
            Ok(Command::Sweep(SweepArgs {
                sim,
                from,
                to,
                step,
            }))
        }
        other => Err(format!("unknown subcommand '{other}' (try help)")),
    }
}

/// Parse the common options for subcommands with no flags of their own,
/// rejecting anything unconsumed.
fn parse_sim_exact(args: &[String]) -> Result<SimArgs, String> {
    let (sim, leftover) = parse_sim(args)?;
    match leftover.first() {
        None => Ok(sim),
        Some(other) => Err(format!("unknown argument '{other}'")),
    }
}

/// Parse the common options, returning unconsumed arguments.
fn parse_sim(args: &[String]) -> Result<(SimArgs, Vec<String>), String> {
    let mut sim = SimArgs::default();
    let mut leftover = Vec::new();
    let mut cohort = false;
    let mut cohort_bins: Option<u32> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--load-model" => {
                let v = args.get(i + 1).ok_or("--load-model needs a value")?;
                cohort = match v.as_str() {
                    "per-browser" => false,
                    "cohort" => true,
                    other => return Err(format!("unknown load model '{other}'")),
                };
                i += 2;
            }
            "--cohort-bins" => {
                cohort_bins = Some(parse_num(args, i, "--cohort-bins")?);
                i += 2;
            }
            "--workload" => {
                let v = args.get(i + 1).ok_or("--workload needs a value")?;
                sim.workload = match v.to_lowercase().as_str() {
                    "browsing" => Workload::Browsing,
                    "shopping" => Workload::Shopping,
                    "ordering" => Workload::Ordering,
                    other => return Err(format!("unknown workload '{other}'")),
                };
                i += 2;
            }
            "--topology" => {
                let v = args.get(i + 1).ok_or("--topology needs a value")?;
                sim.topology = parse_topology(v)?;
                i += 2;
            }
            "--population" => {
                sim.population = parse_num(args, i, "--population")?;
                i += 2;
            }
            "--seed" => {
                sim.seed = parse_num(args, i, "--seed")?;
                i += 2;
            }
            "--markov" => {
                sim.markov = true;
                i += 1;
            }
            "--trace" => {
                let v = args.get(i + 1).ok_or("--trace needs a path")?;
                sim.trace = Some(v.clone());
                i += 2;
            }
            "--metrics" => {
                sim.metrics = true;
                i += 1;
            }
            "--faults" => {
                let v = args.get(i + 1).ok_or("--faults needs a path")?;
                sim.faults = Some(v.clone());
                i += 2;
            }
            "--fault-seed" => {
                sim.fault_seed = Some(parse_num(args, i, "--fault-seed")?);
                i += 2;
            }
            "--eval-threads" => {
                sim.eval_threads = Some(parse_num(args, i, "--eval-threads")?);
                i += 2;
            }
            "--no-eval-cache" => {
                sim.no_eval_cache = true;
                i += 1;
            }
            "--replication-threads" => {
                sim.replication_threads = Some(parse_num(args, i, "--replication-threads")?);
                i += 2;
            }
            "--plan" => {
                let v = args.get(i + 1).ok_or("--plan needs a value")?;
                sim.plan = match v.as_str() {
                    "tiny" => IntervalPlan::tiny(),
                    "fast" => IntervalPlan::fast(),
                    "paper" => IntervalPlan::hpdc04(),
                    other => return Err(format!("unknown plan '{other}'")),
                };
                i += 2;
            }
            _ => {
                leftover.push(args[i].clone());
                i += 1;
            }
        }
    }
    if sim.population == 0 {
        return Err("--population must be at least 1".into());
    }
    if sim.fault_seed.is_some() && sim.faults.is_none() {
        return Err("--fault-seed requires --faults".into());
    }
    if cohort {
        if cohort_bins == Some(0) {
            return Err("--cohort-bins must be at least 1".into());
        }
        sim.load_model = LoadModel::Cohort {
            bins: cohort_bins.unwrap_or(DEFAULT_COHORT_BINS),
        };
    } else if cohort_bins.is_some() {
        return Err("--cohort-bins requires --load-model cohort".into());
    }
    if sim.markov && cohort {
        return Err("--markov is incompatible with --load-model cohort \
                    (cohort tokens batch i.i.d. think draws; a Markov \
                    session walk is per-browser state)"
            .into());
    }
    Ok((sim, leftover))
}

fn parse_topology(v: &str) -> Result<Topology, String> {
    let parts: Vec<&str> = v.split('x').collect();
    if parts.len() != 3 {
        return Err(format!("topology '{v}' is not PxAxD"));
    }
    let nums: Result<Vec<usize>, _> = parts.iter().map(|p| p.parse::<usize>()).collect();
    let nums = nums.map_err(|_| format!("topology '{v}' is not numeric"))?;
    Topology::tiers(nums[0], nums[1], nums[2]).map_err(|e| e.to_string())
}

fn parse_num<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> Result<T, String> {
    let v = args.get(i + 1).ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: bad value '{v}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(argv(&[])).unwrap(), Command::Help);
        assert_eq!(parse(argv(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn simulate_defaults() {
        match parse(argv(&["simulate"])).unwrap() {
            Command::Simulate(sim) => {
                assert_eq!(sim.workload, Workload::Shopping);
                assert_eq!(sim.population, 1_000);
                assert!(!sim.markov);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simulate_full_options() {
        let cmd = parse(argv(&[
            "simulate",
            "--workload",
            "browsing",
            "--topology",
            "2x3x1",
            "--population",
            "1500",
            "--seed",
            "7",
            "--markov",
            "--plan",
            "tiny",
        ]))
        .unwrap();
        match cmd {
            Command::Simulate(sim) => {
                assert_eq!(sim.workload, Workload::Browsing);
                assert_eq!(sim.topology, Topology::tiers(2, 3, 1).unwrap());
                assert_eq!(sim.population, 1_500);
                assert_eq!(sim.seed, 7);
                assert!(sim.markov);
                assert_eq!(sim.plan, IntervalPlan::tiny());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tune_method_and_iterations() {
        match parse(argv(&[
            "tune",
            "--method",
            "duplication",
            "--iterations",
            "25",
        ]))
        .unwrap()
        {
            Command::Tune(t) => {
                assert_eq!(t.method, TuningMethod::Duplication);
                assert_eq!(t.iterations, 25);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tune_tuner_flag() {
        // Default: no explicit tuner (sessions fall back to simplex).
        match parse(argv(&["tune"])).unwrap() {
            Command::Tune(t) => assert_eq!(t.tuner, None),
            other => panic!("{other:?}"),
        }
        // Every registered name parses.
        for name in harmony::registry::tuner_names() {
            match parse(argv(&["tune", "--tuner", name])).unwrap() {
                Command::Tune(t) => assert_eq!(t.tuner.as_deref(), Some(*name)),
                other => panic!("{other:?}"),
            }
        }
        // Unknown names error and list what is available.
        let err = parse(argv(&["tune", "--tuner", "magic"])).unwrap_err();
        assert!(err.contains("unknown tuner 'magic'"), "{err}");
        for name in harmony::registry::tuner_names() {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
        assert!(parse(argv(&["tune", "--tuner"])).is_err());
        // --tuner composes with the strategy flag.
        match parse(argv(&["tune", "--tuner", "tuna", "--method", "hybrid"])).unwrap() {
            Command::Tune(t) => {
                assert_eq!(t.tuner.as_deref(), Some("tuna"));
                assert_eq!(t.method, TuningMethod::Hybrid);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn detector_flags() {
        match parse(argv(&["tune"])).unwrap() {
            Command::Tune(t) => {
                assert!(!t.detector);
                assert_eq!(t.detector_window, None);
                assert_eq!(t.phi_threshold, None);
                assert!(!t.health_oracle);
            }
            other => panic!("{other:?}"),
        }
        match parse(argv(&[
            "tune",
            "--detector",
            "--detector-window",
            "32",
            "--phi-threshold",
            "12.5",
        ]))
        .unwrap()
        {
            Command::Tune(t) => {
                assert!(t.detector);
                assert_eq!(t.detector_window, Some(32));
                assert_eq!(t.phi_threshold, Some(12.5));
            }
            other => panic!("{other:?}"),
        }
        match parse(argv(&["tune", "--health-oracle"])).unwrap() {
            Command::Tune(t) => assert!(t.health_oracle && !t.detector),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn detector_flags_are_validated() {
        let err = parse(argv(&["tune", "--detector", "--health-oracle"])).unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
        let err = parse(argv(&["tune", "--detector-window", "32"])).unwrap_err();
        assert!(err.contains("requires --detector"), "{err}");
        let err = parse(argv(&["tune", "--phi-threshold", "8.0"])).unwrap_err();
        assert!(err.contains("requires --detector"), "{err}");
        let err = parse(argv(&["tune", "--detector", "--detector-window", "0"])).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(argv(&["tune", "--detector", "--phi-threshold", "-1"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(parse(argv(&["tune", "--detector", "--phi-threshold"])).is_err());
        assert!(parse(argv(&["tune", "--detector", "--detector-window", "lots"])).is_err());
        // Detector flags belong to `tune`; other subcommands reject them.
        assert!(parse(argv(&["simulate", "--detector"])).is_err());
        assert!(parse(argv(&["sweep", "--health-oracle"])).is_err());
    }

    #[test]
    fn sweep_bounds_validated() {
        assert!(parse(argv(&["sweep", "--from", "100", "--to", "50"])).is_err());
        assert!(parse(argv(&["sweep", "--step", "0"])).is_err());
        match parse(argv(&[
            "sweep", "--from", "100", "--to", "300", "--step", "100",
        ]))
        .unwrap()
        {
            Command::Sweep(s) => {
                assert_eq!((s.from, s.to, s.step), (100, 300, 100));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trace_and_metrics_flags() {
        match parse(argv(&["tune", "--trace", "/tmp/t.jsonl", "--metrics"])).unwrap() {
            Command::Tune(t) => {
                assert_eq!(t.sim.trace.as_deref(), Some("/tmp/t.jsonl"));
                assert!(t.sim.metrics);
            }
            other => panic!("{other:?}"),
        }
        match parse(argv(&["simulate"])).unwrap() {
            Command::Simulate(sim) => {
                assert_eq!(sim.trace, None);
                assert!(!sim.metrics);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(argv(&["simulate", "--trace"])).is_err());
    }

    #[test]
    fn fault_flags() {
        match parse(argv(&[
            "tune",
            "--faults",
            "plan.json",
            "--fault-seed",
            "9",
        ]))
        .unwrap()
        {
            Command::Tune(t) => {
                assert_eq!(t.sim.faults.as_deref(), Some("plan.json"));
                assert_eq!(t.sim.fault_seed, Some(9));
            }
            other => panic!("{other:?}"),
        }
        match parse(argv(&["simulate"])).unwrap() {
            Command::Simulate(sim) => {
                assert_eq!(sim.faults, None);
                assert_eq!(sim.fault_seed, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(argv(&["simulate", "--faults"])).is_err());
        assert!(parse(argv(&["reconfig", "--fault-seed", "nope"])).is_err());
        assert!(parse(argv(&["tune", "--fault-seed"])).is_err());
    }

    #[test]
    fn fault_seed_without_a_plan_is_rejected() {
        // A fault seed only feeds the injector's noise/jitter draws; with
        // no plan it silently does nothing, so reject it loudly.
        for sub in ["simulate", "tune", "reconfig", "sweep"] {
            let err = parse(argv(&[sub, "--fault-seed", "9"])).unwrap_err();
            assert!(
                err.contains("--fault-seed requires --faults"),
                "{sub}: {err}"
            );
        }
        // With a plan it is accepted as before.
        assert!(parse(argv(&["tune", "--faults", "p.json", "--fault-seed", "9"])).is_ok());
    }

    #[test]
    fn checkpoint_flags() {
        match parse(argv(&[
            "tune",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "5",
            "--resume",
        ]))
        .unwrap()
        {
            Command::Tune(t) => {
                assert_eq!(t.sim.checkpoint_dir.as_deref(), Some("/tmp/ck"));
                assert_eq!(t.sim.checkpoint_every, Some(5));
                assert!(t.sim.resume);
            }
            other => panic!("{other:?}"),
        }
        match parse(argv(&["simulate"])).unwrap() {
            Command::Simulate(sim) => {
                assert_eq!(sim.checkpoint_dir, None);
                assert_eq!(sim.checkpoint_every, None);
                assert!(!sim.resume);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        let err = parse(argv(&["tune", "--resume"])).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = parse(argv(&["tune", "--checkpoint-every", "5"])).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = parse(argv(&[
            "tune",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(parse(argv(&["tune", "--checkpoint-dir"])).is_err());
        assert!(parse(argv(&["tune", "--checkpoint-every"])).is_err());
    }

    /// Every checkpoint flag, alone or combined, is an unknown argument
    /// outside `tune`.
    fn assert_checkpoint_flags_rejected(sub: &str) {
        let flag_sets: [&[&str]; 5] = [
            &["--checkpoint-dir", "D"],
            &["--checkpoint-dir", "D", "--checkpoint-every", "2"],
            &["--checkpoint-dir", "D", "--resume"],
            &["--checkpoint-every", "2"],
            &["--resume"],
        ];
        for flags in flag_sets {
            let args: Vec<&str> = std::iter::once(sub).chain(flags.iter().copied()).collect();
            let err = parse(argv(&args)).unwrap_err();
            assert!(err.contains("unknown argument"), "{args:?}: {err}");
        }
    }

    #[test]
    fn simulate_rejects_checkpoint_flags() {
        assert_checkpoint_flags_rejected("simulate");
    }

    #[test]
    fn reconfig_rejects_checkpoint_flags() {
        assert_checkpoint_flags_rejected("reconfig");
    }

    #[test]
    fn sweep_rejects_checkpoint_flags() {
        assert_checkpoint_flags_rejected("sweep");
    }

    #[test]
    fn eval_flags() {
        match parse(argv(&["tune", "--eval-threads", "4", "--no-eval-cache"])).unwrap() {
            Command::Tune(t) => {
                assert_eq!(t.sim.eval_threads, Some(4));
                assert!(t.sim.no_eval_cache);
            }
            other => panic!("{other:?}"),
        }
        // 0 = one thread per core.
        match parse(argv(&["simulate", "--eval-threads", "0"])).unwrap() {
            Command::Simulate(sim) => {
                assert_eq!(sim.eval_threads, Some(0));
                assert!(!sim.no_eval_cache);
            }
            other => panic!("{other:?}"),
        }
        match parse(argv(&["simulate"])).unwrap() {
            Command::Simulate(sim) => {
                assert_eq!(sim.eval_threads, None);
                assert!(!sim.no_eval_cache);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(argv(&["tune", "--eval-threads"])).is_err());
        assert!(parse(argv(&["tune", "--eval-threads", "lots"])).is_err());
    }

    #[test]
    fn thread_flags_document_zero_as_auto() {
        // Regression: 0 = "one worker per core" was accepted silently;
        // the help text must spell the convention out for both flags.
        assert!(USAGE.contains("--eval-threads"));
        assert!(USAGE.contains("--replication-threads"));
        for line in ["--eval-threads", "--replication-threads"] {
            let at = USAGE.find(line).unwrap();
            assert!(
                USAGE[at..at + 200].contains("0 = auto, one per core"),
                "{line} help must document 0 = auto"
            );
        }
    }

    #[test]
    fn replication_threads_flag() {
        match parse(argv(&["tune", "--replication-threads", "4"])).unwrap() {
            Command::Tune(t) => assert_eq!(t.sim.replication_threads, Some(4)),
            other => panic!("{other:?}"),
        }
        // 0 = one worker per core, same convention as --eval-threads.
        match parse(argv(&["simulate", "--replication-threads", "0"])).unwrap() {
            Command::Simulate(sim) => assert_eq!(sim.replication_threads, Some(0)),
            other => panic!("{other:?}"),
        }
        match parse(argv(&["sweep"])).unwrap() {
            Command::Sweep(s) => assert_eq!(s.sim.replication_threads, None),
            other => panic!("{other:?}"),
        }
        assert!(parse(argv(&["tune", "--replication-threads"])).is_err());
        assert!(parse(argv(&["tune", "--replication-threads", "-1"])).is_err());
        assert!(parse(argv(&["tune", "--replication-threads", "many"])).is_err());
    }

    #[test]
    fn load_model_flags() {
        // Default stays per-browser everywhere.
        match parse(argv(&["simulate"])).unwrap() {
            Command::Simulate(sim) => assert_eq!(sim.load_model, LoadModel::PerBrowser),
            other => panic!("{other:?}"),
        }
        // Explicit per-browser parses to the same thing.
        match parse(argv(&["simulate", "--load-model", "per-browser"])).unwrap() {
            Command::Simulate(sim) => assert_eq!(sim.load_model, LoadModel::PerBrowser),
            other => panic!("{other:?}"),
        }
        // Cohort with the default bin count.
        match parse(argv(&["simulate", "--load-model", "cohort"])).unwrap() {
            Command::Simulate(sim) => {
                assert_eq!(
                    sim.load_model,
                    LoadModel::Cohort {
                        bins: DEFAULT_COHORT_BINS
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        // Cohort with explicit bins, on every subcommand that takes sim args.
        match parse(argv(&[
            "tune",
            "--load-model",
            "cohort",
            "--cohort-bins",
            "128",
        ]))
        .unwrap()
        {
            Command::Tune(t) => {
                assert_eq!(t.sim.load_model, LoadModel::Cohort { bins: 128 });
            }
            other => panic!("{other:?}"),
        }
        match parse(argv(&[
            "sweep",
            "--load-model",
            "cohort",
            "--cohort-bins",
            "8",
        ]))
        .unwrap()
        {
            Command::Sweep(s) => assert_eq!(s.sim.load_model, LoadModel::Cohort { bins: 8 }),
            other => panic!("{other:?}"),
        }
        assert!(parse(argv(&["simulate", "--load-model"])).is_err());
        assert!(parse(argv(&["simulate", "--load-model", "swarm"])).is_err());
        assert!(parse(argv(&["simulate", "--cohort-bins"])).is_err());
        assert!(parse(argv(&["simulate", "--cohort-bins", "many"])).is_err());
    }

    #[test]
    fn cohort_bins_without_cohort_model_is_rejected() {
        // Bins only parameterise the cohort model; accepted silently they
        // would do nothing, so reject loudly (same contract as
        // --fault-seed without --faults).
        for sub in ["simulate", "tune", "reconfig", "sweep"] {
            let err = parse(argv(&[sub, "--cohort-bins", "32"])).unwrap_err();
            assert!(
                err.contains("--cohort-bins requires --load-model cohort"),
                "{sub}: {err}"
            );
        }
        // Even an explicit per-browser model rejects it.
        let err = parse(argv(&[
            "simulate",
            "--load-model",
            "per-browser",
            "--cohort-bins",
            "32",
        ]))
        .unwrap_err();
        assert!(err.contains("requires --load-model cohort"), "{err}");
        // Zero bins is invalid.
        let err = parse(argv(&[
            "simulate",
            "--load-model",
            "cohort",
            "--cohort-bins",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn cohort_conflicts_with_markov() {
        let err = parse(argv(&["simulate", "--markov", "--load-model", "cohort"])).unwrap_err();
        assert!(err.contains("--markov is incompatible"), "{err}");
        // Either alone is fine.
        assert!(parse(argv(&["simulate", "--markov"])).is_ok());
        assert!(parse(argv(&["simulate", "--load-model", "cohort"])).is_ok());
    }

    #[test]
    fn zero_population_is_refused_by_every_subcommand() {
        for args in [
            &["simulate", "--population", "0"][..],
            &["tune", "--population", "0"],
            &["tune", "--population", "0", "--detector"],
            &["tune", "--population", "0", "--load-model", "cohort"],
            &["reconfig", "--population", "0"],
            &["sweep", "--population", "0"],
        ] {
            let err = parse(argv(args)).unwrap_err();
            assert_eq!(err, "--population must be at least 1", "{args:?}");
        }
    }

    #[test]
    fn sweep_from_zero_is_refused() {
        let err = parse(argv(&["sweep", "--from", "0"])).unwrap_err();
        assert_eq!(err, "--from must be at least 1");
        assert!(parse(argv(&["sweep", "--from", "1", "--to", "1"])).is_ok());
    }

    #[test]
    fn tune_zero_iterations_is_refused() {
        let err = parse(argv(&["tune", "--iterations", "0"])).unwrap_err();
        assert_eq!(err, "--iterations must be at least 1");
        assert!(parse(argv(&["tune", "--iterations", "1"])).is_ok());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(argv(&["bogus"])).is_err());
        assert!(parse(argv(&["simulate", "--workload", "gaming"])).is_err());
        assert!(parse(argv(&["simulate", "--topology", "2x2"])).is_err());
        assert!(parse(argv(&["simulate", "--topology", "0x1x1"])).is_err());
        assert!(parse(argv(&["tune", "--method", "magic"])).is_err());
        assert!(parse(argv(&["simulate", "--population"])).is_err());
    }
}
