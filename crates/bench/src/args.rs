//! The command-line parser of `exp`, the experiment runner.
//!
//! Each experiment names the [`Flag`]s it reads, and [`parse_from`]
//! accepts those and refuses every other argument: a flag the
//! experiment would not read is an error, not a silent no-op.
//!
//! The flags, and the experiments that read them:
//! * `--effort smoke|quick|paper` (default `quick`) and `--seed <u64>`
//!   (default 42): the paper experiments and ablations
//! * `--csv <dir>`: also write raw series as CSV files
//! * `--trace <path>`: structured JSONL trace of the run
//! * `--faults <plan.json>` and `--fault-seed <u64>`: fault plan and
//!   noise/jitter seed (`faults`)
//! * `--out`, `--baseline`, `--base`, `--tolerance`, `--rounds`,
//!   `--iters` and `--bins`: the tools that write `BENCH_*.json`
//! * `--effort smoke|full` (default `smoke`): the population sweep
//!
//! Defaults of the tools' flags belong to the tool that reads them, so
//! they parse to `None` when absent.

use obs::JsonlWriter;
use orchestrator::experiments::Effort;
use std::path::PathBuf;

/// A flag an experiment can read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--effort smoke|quick|paper`, default `quick`.
    Effort,
    /// `--effort smoke|full`, default `smoke`: the size of the
    /// population sweep.
    SweepEffort,
    /// `--seed N`, default 42.
    Seed,
    Csv,
    Trace,
    Faults,
    FaultSeed,
    Out,
    Baseline,
    Base,
    Tolerance,
    Rounds,
    Iters,
    Bins,
}

impl Flag {
    /// The flag and its value as a usage line shows them.
    fn usage(self) -> &'static str {
        match self {
            Flag::Effort => "--effort smoke|quick|paper",
            Flag::SweepEffort => "--effort smoke|full",
            Flag::Seed => "--seed N",
            Flag::Csv => "--csv DIR",
            Flag::Trace => "--trace PATH",
            Flag::Faults => "--faults PLAN.json",
            Flag::FaultSeed => "--fault-seed N",
            Flag::Out => "--out PATH",
            Flag::Baseline => "--baseline PATH",
            Flag::Base => "--base PATH",
            Flag::Tolerance => "--tolerance FRAC",
            Flag::Rounds => "--rounds N",
            Flag::Iters => "--iters N",
            Flag::Bins => "--bins N",
        }
    }

    /// The flag as typed, e.g. `--effort`.
    fn name(self) -> &'static str {
        self.usage().split(' ').next().unwrap_or_default()
    }
}

/// The usage line of experiment `name`, which reads `flags`.
pub fn usage(name: &str, flags: &[Flag]) -> String {
    let mut line = format!("usage: exp {name}");
    for flag in flags {
        line.push_str(&format!(" [{}]", flag.usage()));
    }
    line
}

/// Parsed options. A field whose flag the experiment does not read
/// keeps its default.
#[derive(Debug, Clone)]
pub struct Options {
    pub effort: Effort,
    /// `smoke`, `quick` or `paper`; `smoke` or `full` for
    /// [`Flag::SweepEffort`].
    pub effort_name: &'static str,
    pub seed: u64,
    /// Directory for optional CSV dumps.
    pub(crate) csv_dir: Option<PathBuf>,
    /// Path for an optional JSONL trace of the run.
    pub(crate) trace_path: Option<PathBuf>,
    /// Path to an optional JSON fault plan.
    pub(crate) fault_plan_path: Option<PathBuf>,
    /// Optional fault noise/jitter seed override.
    pub fault_seed: Option<u64>,
    /// Where a tool writes its `BENCH_*.json`.
    pub out: Option<PathBuf>,
    /// Committed baseline a tool gates against.
    pub baseline: Option<PathBuf>,
    /// Document whose other sections a tool keeps.
    pub base: Option<PathBuf>,
    pub tolerance: Option<f64>,
    pub rounds: Option<u32>,
    pub iters: Option<u32>,
    pub bins: Option<u32>,
}

impl Options {
    /// Write `csv` to `<csv_dir>/<name>` when `--csv` was given.
    pub fn maybe_write_csv(&self, name: &str, csv: &str) {
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(name);
            match orchestrator::export::write_csv(&path, csv) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }

    /// Load the `--faults` plan, if given. Exits on parse errors: a fault
    /// plan the user asked for must not be silently dropped.
    pub fn maybe_fault_plan(&self) -> Option<faults::FaultPlan> {
        self.fault_plan_path
            .as_deref()
            .map(|path| match faults::FaultPlan::load(path) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("could not load fault plan {}: {e}", path.display());
                    std::process::exit(2);
                }
            })
    }

    /// Open the `--trace` JSONL sink, if requested. Exits on I/O errors.
    pub fn maybe_trace_sink(&self) -> Option<JsonlWriter<std::io::BufWriter<std::fs::File>>> {
        self.trace_path
            .as_deref()
            .map(|path| match JsonlWriter::create(path) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("could not open trace file {}: {e}", path.display());
                    std::process::exit(2);
                }
            })
    }
}

fn number<T: std::str::FromStr>(flag: Flag, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {} '{v}'", flag.name()))
}

/// Parse the arguments after the experiment's name, accepting only
/// `flags`. `Err` carries the message to print, with the [`usage`]
/// line, before exiting 2.
pub fn parse_from<I: IntoIterator<Item = String>>(
    flags: &[Flag],
    args: I,
) -> Result<Options, String> {
    let sweep = flags.contains(&Flag::SweepEffort);
    let mut o = Options {
        effort: Effort::quick(),
        effort_name: if sweep { "smoke" } else { "quick" },
        seed: 42,
        csv_dir: None,
        trace_path: None,
        fault_plan_path: None,
        fault_seed: None,
        out: None,
        baseline: None,
        base: None,
        tolerance: None,
        rounds: None,
        iters: None,
        bins: None,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let Some(&flag) = flags.iter().find(|f| f.name() == arg) else {
            return Err(format!("'{arg}' is not read by this experiment"));
        };
        let v = it
            .next()
            .ok_or_else(|| format!("{} needs a value", flag.name()))?;
        match flag {
            Flag::Effort => {
                (o.effort, o.effort_name) = match v.as_str() {
                    "smoke" => (Effort::smoke(), "smoke"),
                    "quick" => (Effort::quick(), "quick"),
                    "paper" => (Effort::paper(), "paper"),
                    other => return Err(format!("unknown effort '{other}' (smoke|quick|paper)")),
                }
            }
            Flag::SweepEffort => {
                o.effort_name = match v.as_str() {
                    "smoke" => "smoke",
                    "full" => "full",
                    other => return Err(format!("unknown effort '{other}' (smoke|full)")),
                }
            }
            Flag::Seed => o.seed = number(flag, &v)?,
            Flag::Csv => o.csv_dir = Some(v.into()),
            Flag::Trace => o.trace_path = Some(v.into()),
            Flag::Faults => o.fault_plan_path = Some(v.into()),
            Flag::FaultSeed => o.fault_seed = Some(number(flag, &v)?),
            Flag::Out => o.out = Some(v.into()),
            Flag::Baseline => o.baseline = Some(v.into()),
            Flag::Base => o.base = Some(v.into()),
            Flag::Tolerance => {
                let t: f64 = number(flag, &v)?;
                if !(t.is_finite() && t >= 0.0) {
                    return Err(format!("--tolerance must be a fraction >= 0, not '{v}'"));
                }
                o.tolerance = Some(t);
            }
            Flag::Rounds => o.rounds = Some(number(flag, &v)?),
            Flag::Iters => o.iters = Some(number(flag, &v)?),
            Flag::Bins => {
                let bins = number(flag, &v)?;
                if bins == 0 {
                    return Err("--bins must be at least 1".into());
                }
                o.bins = Some(bins);
            }
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::Flag::*;
    use super::*;

    const PAPER: &[Flag] = &[Effort, Seed];
    const ALL: &[Flag] = &[
        Effort, Seed, Csv, Trace, Faults, FaultSeed, Out, Baseline, Base, Tolerance, Rounds, Iters,
        Bins,
    ];

    /// Parse a space-separated argument line.
    fn parse(flags: &[Flag], line: &str) -> Result<Options, String> {
        parse_from(flags, line.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let o = parse(PAPER, "").unwrap();
        assert_eq!(o.seed, 42);
        assert_eq!(o.effort_name, "quick");
        let o = parse(&[SweepEffort, Out], "").unwrap();
        assert_eq!(o.effort_name, "smoke");
        assert_eq!(o.out, None);
    }

    #[test]
    fn parses_effort_and_seed() {
        let o = parse(PAPER, "--effort paper --seed 7").unwrap();
        assert_eq!(o.effort_name, "paper");
        assert_eq!(o.seed, 7);
        assert_eq!(o.effort.iterations, 200);
        let o = parse(&[SweepEffort], "--effort full").unwrap();
        assert_eq!(o.effort_name, "full");
    }

    #[test]
    fn parses_csv_dir() {
        let o = parse(ALL, "--csv /tmp/out").unwrap();
        assert_eq!(o.csv_dir, Some(PathBuf::from("/tmp/out")));
        assert!(parse(ALL, "--csv").is_err());
    }

    #[test]
    fn parses_trace_path() {
        let o = parse(ALL, "--trace /tmp/run.jsonl").unwrap();
        assert_eq!(o.trace_path, Some(PathBuf::from("/tmp/run.jsonl")));
        assert!(parse(ALL, "--trace").is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let o = parse(ALL, "--faults plan.json --fault-seed 99").unwrap();
        assert_eq!(o.fault_plan_path, Some(PathBuf::from("plan.json")));
        assert_eq!(o.fault_seed, Some(99));
        let o = parse(ALL, "").unwrap();
        assert_eq!(o.fault_plan_path, None);
        assert_eq!(o.fault_seed, None);
    }

    #[test]
    fn rejects_bad_fault_flags() {
        assert!(parse(ALL, "--faults").is_err());
        assert!(parse(ALL, "--fault-seed").is_err());
        assert!(parse(ALL, "--fault-seed many").is_err());
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse(ALL, "--bogus").is_err());
        assert!(parse(ALL, "stray").is_err());
        assert!(parse(PAPER, "--effort huge").is_err());
        assert!(parse(PAPER, "--seed abc").is_err());
        assert!(parse(PAPER, "--seed").is_err());
    }

    #[test]
    fn parses_the_tools_flags() {
        let line = "--out o.json --baseline b.json --base c.json --tolerance 0.2 --rounds 3 \
                    --iters 4 --bins 8";
        let o = parse(ALL, line).unwrap();
        assert_eq!(o.out, Some(PathBuf::from("o.json")));
        assert_eq!(o.baseline, Some(PathBuf::from("b.json")));
        assert_eq!(o.base, Some(PathBuf::from("c.json")));
        assert_eq!(o.tolerance, Some(0.2));
        assert_eq!((o.rounds, o.iters, o.bins), (Some(3), Some(4), Some(8)));
        for bad in [
            "--bins 0",
            "--rounds -1",
            "--iters x",
            "--tolerance NaN",
            "--tolerance -0.1",
            "--tolerance inf",
        ] {
            assert!(parse(ALL, bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn refuses_flags_the_experiment_does_not_read() {
        let err = parse(PAPER, "--faults p.json").unwrap_err();
        assert_eq!(err, "'--faults' is not read by this experiment");
        for flag in ALL {
            let err = parse(&[], &format!("{} 1", flag.name())).unwrap_err();
            assert!(err.contains("is not read"), "{err}");
        }
        // The same name, read with another value set.
        assert!(parse(PAPER, "--effort full").is_err());
        assert!(parse(&[SweepEffort], "--effort paper").is_err());
    }

    #[test]
    fn usage_lists_the_flags_read() {
        assert_eq!(
            usage("fig4", &[Effort, Seed, Trace]),
            "usage: exp fig4 [--effort smoke|quick|paper] [--seed N] [--trace PATH]"
        );
        assert_eq!(usage("calibrate", &[]), "usage: exp calibrate");
    }
}
