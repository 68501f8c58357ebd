//! Shared "tune all three workloads" step used by the Figure 4 and
//! Table 3 regenerators.

use cluster::config::ClusterConfig;
use orchestrator::experiments::tuning_process::TuningProcessResult;
use orchestrator::experiments::{tuning_process, Effort};
use orchestrator::par::shared_pool;
use tpcw::mix::Workload;

/// Tune each workload on the single-line topology (in parallel) and return
/// the per-workload summaries plus best configurations, in
/// [`Workload::ALL`] order.
pub fn tune_all_workloads(
    effort: &Effort,
    seed: u64,
) -> ([TuningProcessResult; 3], [ClusterConfig; 3]) {
    let effort = *effort;
    let mut outs = shared_pool().run_batch(Workload::ALL.to_vec(), 0, move |&w| {
        let (summary, run) = tuning_process::run(w, &effort, seed ^ (w as u64) << 16);
        (summary, run.best_config)
    });
    match (outs.pop(), outs.pop(), outs.pop()) {
        (Some((r2, c2)), Some((r1, c1)), Some((r0, c0))) => ([r0, r1, r2], [c0, c1, c2]),
        // run_batch returns exactly one output per input, in input
        // order, and Workload::ALL has three entries.
        _ => unreachable!("run_batch preserves length"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tunes_three_workloads() {
        let (summaries, configs) = tune_all_workloads(&Effort::smoke(), 1);
        assert_eq!(summaries[0].workload, Workload::Browsing);
        assert_eq!(summaries[2].workload, Workload::Ordering);
        for c in &configs {
            assert_eq!(c.len(), 3);
        }
    }
}
