//! EXP-RESUME: kill-and-resume torture of crash-safe persistence.
//!
//! Runs the Default-method tuner on a single work line to completion for
//! reference, then kills a checkpointed copy at each of five seeded
//! interrupt points, resumes it from the directory left on disk, and
//! reports whether the spliced run was byte-identical to the
//! uninterrupted one (same trace records, bit-equal best WIPS).

use bench::args::Options;
use orchestrator::experiments::resume;

pub fn run(opts: &Options) {
    let r = crate::or_exit(resume::run(&opts.effort, opts.seed));

    println!(
        "{} iterations per session, journal append every iteration, snapshot every {}",
        r.iterations, r.snapshot_every
    );
    println!("uninterrupted best: {:.1} WIPS\n", r.baseline_best_wips);
    println!("killed at   recovered from    replayed   trace      result");
    for o in &r.outcomes {
        println!(
            "  {:5}     snapshot {:5}    {:5}      {}      {}",
            o.kill_at,
            o.snapshot_iteration,
            o.replayed,
            if o.prefix_identical && o.tail_identical {
                "exact  "
            } else {
                "DRIFTED"
            },
            if o.result_identical {
                "bit-equal"
            } else {
                "DIFFERS"
            },
        );
    }
    let csv = {
        let mut s = String::from(
            "kill_at,snapshot_iteration,replayed,prefix_identical,tail_identical,result_identical\n",
        );
        for o in &r.outcomes {
            s.push_str(&format!(
                "{},{},{},{},{},{}\n",
                o.kill_at,
                o.snapshot_iteration,
                o.replayed,
                o.prefix_identical,
                o.tail_identical,
                o.result_identical
            ));
        }
        s
    };
    opts.maybe_write_csv("resume_torture.csv", &csv);

    if r.all_exact() {
        println!("\nEvery interrupt point resumed byte-identically to the uninterrupted run.");
    } else {
        println!("\nFAIL: at least one interrupt point diverged after resume.");
        std::process::exit(1);
    }
}
