//! The `exp` binary's surface: the listing, the flags each experiment
//! reads, and the refusals that exit 2 before an experiment runs. No
//! case here simulates anything.

use std::process::{Command, Output};

/// The usage line of every experiment, in listing order.
const USAGES: &str = "\
usage: exp tuning_process [--effort smoke|quick|paper] [--seed N] [--csv DIR]
usage: exp fig4 [--effort smoke|quick|paper] [--seed N] [--trace PATH]
usage: exp table3 [--effort smoke|quick|paper] [--seed N]
usage: exp fig5 [--effort smoke|quick|paper] [--seed N] [--csv DIR] [--trace PATH]
usage: exp table4 [--effort smoke|quick|paper] [--seed N]
usage: exp fig7 [--effort smoke|quick|paper] [--seed N] [--trace PATH]
usage: exp faults [--effort smoke|quick|paper] [--seed N] [--csv DIR] [--trace PATH] \
    [--faults PLAN.json] [--fault-seed N]
usage: exp resume [--effort smoke|quick|paper] [--seed N] [--csv DIR]
usage: exp chaos [--effort smoke|quick|paper] [--seed N] [--csv DIR]
usage: exp detect [--effort smoke|quick|paper] [--seed N] [--csv DIR]
usage: exp tuners [--effort smoke|quick|paper] [--seed N] [--csv DIR]
usage: exp sensitivity [--effort smoke|quick|paper] [--seed N]
usage: exp price_performance [--effort smoke|quick|paper] [--seed N]
usage: exp ablation_tuners [--effort smoke|quick|paper] [--seed N]
usage: exp ablation_conservative [--effort smoke|quick|paper] [--seed N]
usage: exp ablation_hybrid [--effort smoke|quick|paper] [--seed N]
usage: exp ablation_revalidate [--effort smoke|quick|paper] [--seed N]
usage: exp bench_smoke [--out PATH] [--baseline PATH] [--tolerance FRAC] [--rounds N] [--iters N]
usage: exp par [--out PATH] [--rounds N]
usage: exp scale [--effort smoke|full] [--out PATH] [--base PATH] [--bins N]
usage: exp calibrate";

/// Every flag some experiment reads, once each.
fn flags() -> Vec<&'static str> {
    let mut flags: Vec<&str> = USAGES
        .split('[')
        .skip(1)
        .filter_map(|f| f.split(' ').next())
        .collect();
    flags.sort();
    flags.dedup();
    flags
}

/// Each experiment's name and usage line.
fn experiments() -> impl Iterator<Item = (&'static str, &'static str)> {
    USAGES.lines().map(|usage| {
        let name = usage.split(' ').nth(2).expect("usage: exp <name>");
        (name, usage)
    })
}

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("run exp")
}

/// Run `exp args`, require exit 2 with nothing on stdout, and return
/// stderr.
fn refused(args: &[&str]) -> String {
    let out = exp(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn the_listing_names_every_experiment() {
    let names: Vec<&str> = experiments().map(|(name, _)| name).collect();
    assert_eq!(names.len(), 21);
    for args in [&[][..], &["help"]] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let listed: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
            .collect();
        assert_eq!(listed, names, "{args:?}");
    }
}

#[test]
fn refusals_exit_2_before_running() {
    for (args, says) in [
        (&["nosuch"][..], "unknown experiment 'nosuch'"),
        (
            &["price_performance", "--faults", "p.json"],
            "'--faults' is not read",
        ),
        (&["calibrate", "--seed", "1"], "'--seed' is not read"),
        (&["fig4", "--effort", "full"], "unknown effort 'full'"),
        (&["scale", "--effort", "paper"], "unknown effort 'paper'"),
        (&["tuners", "--bogus"], "'--bogus' is not read"),
    ] {
        let err = refused(args);
        assert!(err.contains(says), "{args:?}: {err}");
    }
}

/// Each experiment accepts exactly its own flags. A flag it reads is
/// recognised (here it fails only for its missing value), every other
/// one is refused, and each refusal prints the experiment's usage line.
#[test]
fn each_experiment_reads_only_its_own_flags() {
    let flags = flags();
    assert_eq!(flags.len(), 13, "{flags:?}");
    for (name, usage) in experiments() {
        for flag in &flags {
            let err = refused(&[name, flag]);
            let reads = usage.contains(&format!("[{flag} "));
            let says = if reads {
                "needs a value"
            } else {
                "is not read"
            };
            assert!(err.contains(says), "exp {name} {flag}: {err}");
            assert!(
                err.contains(&format!("{usage}\n")),
                "exp {name} {flag}: {err}"
            );
        }
    }
}
