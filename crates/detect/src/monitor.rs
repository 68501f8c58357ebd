//! The in-DES monitoring plane: deriving heartbeat arrivals from a fault
//! plan.
//!
//! Every node emits a heartbeat each `heartbeat_s` of simulated time.
//! What the detector *receives* is a pure function of
//! `(plan, seed, window)`, so replays and resumed sessions observe the
//! same arrivals byte for byte:
//!
//! * a **crashed** node's beats are suppressed outright — silence is the
//!   only signal a crash emits;
//! * a **stalled** node keeps its beats, but every beat due mid-stall is
//!   delivered late, at the stall's end (the node froze, it didn't die);
//! * **CPU/NIC degradation** stretches delivery latency by the
//!   corresponding slowdown factors, and a **noise spike** in the window
//!   widens the latency jitter — load looks like wobble, never like
//!   death.
//!
//! Jitter draws are keyed by `(seed, node, beat-due-time)` — stateless,
//! like [`FaultInjector::wips_noise`] — so no RNG position needs to be
//! checkpointed and re-measuring a window replays identical arrivals.

use crate::detector::DetectorConfig;
use faults::FaultInjector;
use simkit::rng::SimRng;
use simkit::time::{SimDuration, SimTime};

/// Seed-domain separator for heartbeat jitter draws.
const BEAT_SEED_DOMAIN: u64 = 0xDE7E_C7ED_0BEA_75ED;

/// Everything the monitoring plane produced for one window `[start, end)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HeartbeatWindow {
    /// Arrival instants, sorted by time then node. Arrivals may land
    /// beyond `end` (a stall crossing the boundary); the detector carries
    /// those forward as pending.
    pub(crate) arrivals: Vec<(SimTime, usize)>,
    /// Beats due in the window across all nodes.
    pub(crate) beats: u64,
    /// Beats suppressed because the node was crashed when they were due.
    pub(crate) missed: u64,
}

/// Derive the heartbeat arrivals for `[start, end)` across `nodes`.
pub(crate) fn heartbeat_arrivals(
    injector: &FaultInjector,
    config: &DetectorConfig,
    seed: u64,
    nodes: usize,
    start: SimTime,
    end: SimTime,
) -> HeartbeatWindow {
    let period_us = SimDuration::from_secs_f64(config.heartbeat_s)
        .as_micros()
        .max(1);
    // Noise spikes widen the latency jitter, capped so latency stays
    // positive: load perturbs delivery, it never fakes a death.
    let noise = injector.window(start, end, nodes).noise;
    let jitter_amp = (config.jitter * noise.max(1.0)).min(0.95);

    let mut arrivals = Vec::new();
    let mut beats = 0u64;
    let mut missed = 0u64;
    let mut k = start.as_micros().div_ceil(period_us);
    loop {
        let due_us = k.saturating_mul(period_us);
        if due_us >= end.as_micros() {
            break;
        }
        let due = SimTime::from_micros(due_us);
        // Events at exactly `due` take effect for this beat.
        let statuses = injector.status_at(SimTime::from_micros(due_us + 1), nodes);
        for (node, status) in statuses.iter().enumerate() {
            beats += 1;
            if status.crashed {
                missed += 1;
                continue;
            }
            let emit_at = match status.stalled_until {
                Some(until) if until > due => until,
                _ => due,
            };
            let mut rng = SimRng::new(
                seed ^ BEAT_SEED_DOMAIN
                    ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ due_us.rotate_left(23),
            );
            let u = rng.next_f64() * 2.0 - 1.0;
            let latency_s = (config.latency_s
                * status.slowdown.cpu.max(1.0)
                * status.slowdown.nic.max(1.0)
                * (1.0 + jitter_amp * u))
                .max(1e-6);
            let arrival = emit_at
                .checked_add(SimDuration::from_secs_f64(latency_s))
                .unwrap_or(SimTime::MAX);
            arrivals.push((arrival, node));
        }
        k += 1;
    }
    arrivals.sort_unstable_by_key(|&(t, n)| (t, n));
    HeartbeatWindow {
        arrivals,
        beats,
        missed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::FaultPlan;

    fn cfg() -> DetectorConfig {
        DetectorConfig::default()
    }

    fn window(plan: &FaultPlan, start: u64, end: u64) -> HeartbeatWindow {
        let inj = FaultInjector::new(plan, 7);
        heartbeat_arrivals(
            &inj,
            &cfg(),
            99,
            4,
            SimTime::from_secs(start),
            SimTime::from_secs(end),
        )
    }

    #[test]
    fn healthy_nodes_beat_once_per_period() {
        let hw = window(&FaultPlan::new(), 0, 10);
        assert_eq!(hw.beats, 40, "10 beats x 4 nodes");
        assert_eq!(hw.missed, 0);
        assert_eq!(hw.arrivals.len(), 40);
        for &(at, _) in &hw.arrivals {
            let s = at.as_secs_f64();
            let lag = s - s.floor();
            assert!(
                (0.0..0.1).contains(&lag),
                "arrival {s} should trail its beat by ~latency"
            );
        }
    }

    #[test]
    fn a_crash_silences_and_a_restart_resumes() {
        let plan = FaultPlan::new().crash(3.0, 2).restart(7.0, 2);
        let hw = window(&plan, 0, 10);
        // Node 2 misses beats at t = 3..6 (the restart at 7 revives the
        // beat due at exactly 7).
        assert_eq!(hw.missed, 4);
        assert!(!hw
            .arrivals
            .iter()
            .any(|&(at, n)| { n == 2 && (3.0..7.0).contains(&at.as_secs_f64()) }));
        assert!(hw
            .arrivals
            .iter()
            .any(|&(at, n)| n == 2 && at.as_secs_f64() > 7.0));
    }

    #[test]
    fn a_stall_defers_beats_to_its_end() {
        let plan = FaultPlan::new().stall(3.0, 1, 4.0);
        let hw = window(&plan, 0, 10);
        assert_eq!(hw.missed, 0, "stalls defer, they never suppress");
        let node1: Vec<f64> = hw
            .arrivals
            .iter()
            .filter(|&&(_, n)| n == 1)
            .map(|&(at, _)| at.as_secs_f64())
            .collect();
        // Beats due at 3..6 all arrive just after the stall lifts at 7,
        // alongside the on-time beat due at 7 itself.
        let thawed = node1.iter().filter(|&&t| (7.0..7.2).contains(&t)).count();
        assert_eq!(thawed, 5, "arrivals: {node1:?}");
        assert!(
            !node1.iter().any(|&t| (3.1..7.0).contains(&t)),
            "nothing arrives mid-stall: {node1:?}"
        );
    }

    #[test]
    fn arrivals_are_a_pure_function_of_plan_seed_window() {
        let plan = FaultPlan::new().stall(3.0, 1, 4.0).crash(5.0, 0);
        assert_eq!(window(&plan, 0, 10), window(&plan, 0, 10));
        let other_seed = heartbeat_arrivals(
            &FaultInjector::new(&plan, 7),
            &cfg(),
            100,
            4,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert_ne!(window(&plan, 0, 10), other_seed, "seed moves the jitter");
    }

    #[test]
    fn windows_partition_the_beat_schedule() {
        let plan = FaultPlan::new();
        let all = window(&plan, 0, 20);
        let a = window(&plan, 0, 10);
        let b = window(&plan, 10, 20);
        assert_eq!(a.beats + b.beats, all.beats);
        let mut spliced = a.arrivals.clone();
        spliced.extend(b.arrivals.clone());
        spliced.sort_unstable_by_key(|&(t, n)| (t, n));
        assert_eq!(spliced, all.arrivals, "same beats, same jitter draws");
    }
}
