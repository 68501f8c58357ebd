//! `exp_profile`: run the session benchmark, or compare two sets of runs.
//!
//! ```text
//! exp_profile [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!             [--out FILE] [--spans FILE]
//! exp_profile compare A.jsonl B.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! One workload runs in this process and prints its result as the last
//! line of standard output. `--workload all` (the default) runs each
//! workload in a child process of its own, one after another, so that
//! `peak_rss_mb` covers one workload. Without `--trace` a run measures
//! the end-to-end metrics and then the per-layer ledger.

use sessionbench::profile::{self, Mode, Workload};

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: exp_profile [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--out FILE] [--spans FILE]\n       exp_profile compare A.jsonl B.jsonl \
[--bench BENCHMARK.json]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<String>,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 42,
        seconds: 15.0,
        trace: None,
        out: None,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                let v = value()?;
                if v != "0" && v != "1" {
                    return Err(format!("--trace takes 0 or 1, not '{v}'"));
                }
                args.trace = Some(v);
            }
            "--out" => args.out = Some(value()?.into()),
            "--spans" => args.spans = Some(value()?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload != "all" && Workload::by_name(&args.workload).is_none() {
        let names: Vec<&str> = profile::workloads().iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload '{}' (one of: all, {})",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match Workload::by_name(&args.workload) {
        Some(w) => run_one(&w, &args),
        None => run_all(&args),
    }
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let mode = match args.trace.as_deref() {
        Some("0") => Mode::EndToEnd,
        Some(_) => Mode::Traced,
        None => Mode::Both,
    };
    let report = profile::run(w, args.seed, args.seconds, mode, args.spans.as_deref());
    let line = report.json();
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| {
                writeln!(
                    f,
                    "{{\"workload\": {}, \"seed\": {}, \"result\": {line}}}",
                    sessionbench::json::quote(w.name),
                    args.seed
                )
            });
        if let Err(e) = appended {
            eprintln!("error: cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-run this binary once per workload, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in profile::workloads() {
        let mut child = std::process::Command::new(&exe);
        child.args(["--workload", w.name]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        if let Some(trace) = &args.trace {
            child.args(["--trace", trace]);
        }
        if let Some(out) = &args.out {
            child.arg("--out").arg(out);
        }
        if let Some(spans) = &args.spans {
            child
                .arg("--spans")
                .arg(format!("{}.{}", spans.display(), w.name));
        }
        let status = child.status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn compare(argv: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            let Some(p) = it.next() else {
                eprintln!("error: --bench needs a value\n{USAGE}");
                return ExitCode::from(2);
            };
            bench = p.into();
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("error: compare needs two result files\n{USAGE}");
        return ExitCode::from(2);
    };
    match sessionbench::compare::compare(a, b, &bench) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
