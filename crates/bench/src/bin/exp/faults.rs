//! EXP-FAULTS: resilient tuning under deterministic fault injection.
//!
//! Runs the duplication tuner on a 2p/3a/2d cluster while the canonical
//! fault plan (or one given with `--faults`) injects a noise spike and a
//! mid-measurement crash of an application-tier node. Expected shape:
//! WIPS dips when the node dies and recovers after the failure-driven
//! reconfiguration pulls a spare into the wounded tier.

use bench::args::Options;
use obs::TraceSink;
use orchestrator::experiments::faults;
use orchestrator::report::sparkline;
use orchestrator::session::SessionObserver;

pub fn run(opts: &Options) {
    let plan = opts.maybe_fault_plan();
    let mut sink = opts.maybe_trace_sink();
    let mut observer = SessionObserver::new(sink.as_mut().map(|s| s as &mut dyn TraceSink), None);
    let r = crate::or_exit(faults::run_custom(
        &opts.effort,
        opts.seed,
        plan,
        opts.fault_seed,
        &mut observer,
    ));

    println!("WIPS per iteration:");
    println!("  {}", sparkline(&r.wips_series));
    match (r.crash_iteration, r.pre_crash_best) {
        (Some(ci), Some(best)) => {
            println!("\ncrash at iteration {ci} (pre-crash best {best:.1} WIPS)")
        }
        (Some(ci), None) => println!(
            "\ncrash at iteration {ci}: no iteration precedes it, so there is no \
             pre-crash baseline and no recovery figure"
        ),
        (None, _) => println!("\nno crash in the plan"),
    }
    match r.recovery_iterations {
        Some(n) => println!("recovered to 90% of the pre-crash best in {n} iteration(s)"),
        None => {
            if r.pre_crash_best.is_some() {
                println!("did not reach 90% of the pre-crash best within the run");
            }
        }
    }
    println!(
        "resilience actions: {} retries, {} re-measurements, {} breaker trips",
        r.retries, r.remeasures, r.breaker_opens
    );
    for e in &r.reconfigs {
        println!(
            "  iteration {:3}: spare node {} pulled {} -> {}",
            e.iteration, e.node, e.from_tier, e.to_tier
        );
    }
    println!(
        "layout (proxy, app, db): {:?} -> {:?}  (crashed nodes keep their tier)",
        r.initial_layout, r.final_layout
    );
    opts.maybe_write_csv(
        "faults_wips.csv",
        &orchestrator::export::series_csv(&["wips"], std::slice::from_ref(&r.wips_series)),
    );
    println!("\nExpected shape: WIPS dips at the crash, the reconfiguration backfills");
    println!("the wounded tier, and the tuner re-converges within a few iterations.");
}
