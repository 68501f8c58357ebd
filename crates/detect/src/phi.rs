//! The φ-accrual suspicion estimator (Hayashibara et al., SRDS 2004).
//!
//! Instead of a binary "timed out / alive" verdict, the estimator keeps a
//! sliding window of observed heartbeat inter-arrival intervals and maps
//! the current silence (time since the last arrival) to a continuous
//! suspicion level:
//!
//! ```text
//!   φ(now) = -log10( P(a later heartbeat arrives after `now`) )
//! ```
//!
//! φ ≈ 1 means roughly a 10% chance the node is still alive given its
//! arrival history, φ ≈ 8 about 10⁻⁸. The tail probability uses the
//! logistic approximation to the normal CDF (the same one production
//! φ-accrual detectors ship), which is cheap, branch-light, and — being
//! plain `f64` arithmetic on integer-derived inputs — bit-deterministic:
//!
//! ```text
//!   P_later(y) = 1 / (1 + e^{ y (1.5976 + 0.070566 y²) }),  y = (t-μ)/σ
//! ```
//!
//! The polynomial `y(1.5976 + 0.070566y²)` has strictly positive
//! derivative, so φ is strictly monotone in the silence duration — the
//! property the detect property tests pin.

use persist::{Checkpointable, PersistError, State};
use simkit::time::SimTime;

const MICROS_PER_SEC: f64 = 1_000_000.0;

/// Per-node φ-accrual state: a bounded history of inter-arrival
/// intervals plus the last arrival instant. The window capacity and the
/// μ/σ bootstrap values are configuration, not state — they live in
/// [`crate::DetectorConfig`] and are passed per call.
#[derive(Debug, Clone, PartialEq)]
pub struct PhiAccrual {
    capacity: usize,
    /// Observed inter-arrival intervals, oldest first, in microseconds.
    intervals_us: Vec<u64>,
    /// The most recent arrival, if any heartbeat has ever been seen.
    last_arrival_us: Option<u64>,
}

impl PhiAccrual {
    pub(crate) fn new(capacity: usize) -> PhiAccrual {
        PhiAccrual {
            capacity: capacity.max(2),
            intervals_us: Vec::new(),
            last_arrival_us: None,
        }
    }

    /// Record a heartbeat arrival. Arrivals must be delivered in
    /// nondecreasing time order; simultaneous arrivals record a zero
    /// interval.
    pub(crate) fn record(&mut self, at: SimTime) {
        let at_us = at.as_micros();
        if let Some(last) = self.last_arrival_us {
            self.intervals_us.push(at_us.saturating_sub(last));
            if self.intervals_us.len() > self.capacity {
                self.intervals_us.remove(0);
            }
        }
        self.last_arrival_us = Some(at_us.max(self.last_arrival_us.unwrap_or(0)));
    }

    /// Current suspicion level. Zero until the first heartbeat arrives
    /// (an unseen node is given the benefit of the doubt at bootstrap);
    /// with fewer than two observed intervals the estimator falls back to
    /// `bootstrap_s` as the expected interval. `min_std_s` floors σ so a
    /// perfectly regular history cannot make the detector hair-triggered.
    pub(crate) fn phi(&self, now: SimTime, bootstrap_s: f64, min_std_s: f64) -> f64 {
        let Some(last) = self.last_arrival_us else {
            return 0.0;
        };
        let silence_s = now.as_micros().saturating_sub(last) as f64 / MICROS_PER_SEC;
        let (mean, std) = if self.intervals_us.len() >= 2 {
            let n = self.intervals_us.len() as f64;
            let mean_us = self.intervals_us.iter().map(|&v| v as f64).sum::<f64>() / n;
            let var_us = self
                .intervals_us
                .iter()
                .map(|&v| {
                    let d = v as f64 - mean_us;
                    d * d
                })
                .sum::<f64>()
                / n;
            (mean_us / MICROS_PER_SEC, var_us.sqrt() / MICROS_PER_SEC)
        } else {
            (bootstrap_s, bootstrap_s / 4.0)
        };
        let y = (silence_s - mean) / std.max(min_std_s).max(1e-9);
        let expo = y * (1.5976 + 0.070566 * y * y);
        // log10(1 + e^expo), computed without overflowing exp().
        if expo > 30.0 {
            expo / core::f64::consts::LN_10
        } else {
            (1.0 + expo.exp()).log10()
        }
    }
}

impl Checkpointable for PhiAccrual {
    fn save_state(&self) -> State {
        State::map()
            .with(
                "last",
                match self.last_arrival_us {
                    Some(us) => State::U64(us),
                    None => State::Null,
                },
            )
            .with(
                "intervals",
                State::List(self.intervals_us.iter().map(|&v| State::U64(v)).collect()),
            )
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        self.last_arrival_us = match state.require("last")? {
            State::Null => None,
            State::U64(us) => Some(*us),
            other => {
                return Err(PersistError::Schema(format!(
                    "phi last: expected u64 or null, got {other:?}"
                )))
            }
        };
        let items = state.field_list("intervals")?;
        if items.len() > self.capacity {
            return Err(PersistError::Schema(format!(
                "phi intervals: {} samples exceed window capacity {}",
                items.len(),
                self.capacity
            )));
        }
        self.intervals_us = items
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| PersistError::Schema("phi interval: expected u64".into()))
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed(beats: &[u64]) -> PhiAccrual {
        let mut p = PhiAccrual::new(16);
        for &s in beats {
            p.record(SimTime::from_secs(s));
        }
        p
    }

    #[test]
    fn unseen_node_has_zero_suspicion() {
        let p = PhiAccrual::new(8);
        assert_eq!(p.phi(SimTime::from_secs(1_000), 1.0, 0.1), 0.0);
    }

    #[test]
    fn phi_is_monotone_in_silence() {
        let p = fed(&[1, 2, 3, 4, 5]);
        // Non-strict everywhere (the far-left tail underflows to exactly
        // zero)...
        let mut prev = -1.0;
        for us in (5_000_001..9_000_000).step_by(137_911) {
            let phi = p.phi(SimTime::from_micros(us), 1.0, 0.1);
            assert!(
                phi >= prev,
                "phi must never shrink with silence: phi({us})={phi} vs {prev}"
            );
            prev = phi;
        }
        // ...strict once the silence exceeds the expected interval.
        let mut prev = p.phi(SimTime::from_micros(6_100_000), 1.0, 0.1);
        assert!(prev > 0.0);
        for us in (6_200_000..9_000_000).step_by(137_911) {
            let phi = p.phi(SimTime::from_micros(us), 1.0, 0.1);
            assert!(
                phi > prev,
                "phi must grow past the mean: phi({us})={phi} vs {prev}"
            );
            prev = phi;
        }
    }

    #[test]
    fn an_arrival_collapses_suspicion() {
        let mut p = fed(&[1, 2, 3, 4, 5]);
        let late = SimTime::from_secs(9);
        let suspicious = p.phi(late, 1.0, 0.1);
        assert!(
            suspicious > 8.0,
            "4s of silence on a 1s cadence: {suspicious}"
        );
        p.record(late);
        let calmed = p.phi(SimTime::from_micros(9_000_001), 1.0, 0.1);
        assert!(
            calmed < 0.5,
            "fresh arrival must calm the estimator: {calmed}"
        );
    }

    #[test]
    fn regular_cadence_stays_calm_at_the_next_beat() {
        let p = fed(&[1, 2, 3, 4, 5]);
        // Right around when the next beat is due, suspicion is mild.
        let phi = p.phi(SimTime::from_secs(6), 1.0, 0.25);
        assert!(phi < 1.0, "on-time cadence must not look suspicious: {phi}");
    }

    #[test]
    fn window_is_bounded() {
        let mut p = PhiAccrual::new(4);
        for s in 0..100 {
            p.record(SimTime::from_secs(s));
        }
        assert_eq!(p.intervals_us.len(), 4);
    }

    #[test]
    fn bootstrap_prior_applies_before_two_samples() {
        let mut p = PhiAccrual::new(8);
        p.record(SimTime::from_secs(10));
        // One arrival, zero intervals: μ falls back to the bootstrap.
        let phi = p.phi(SimTime::from_secs(14), 1.0, 0.1);
        assert!(phi > 8.0, "4s silent against a 1s prior: {phi}");
    }

    #[test]
    fn save_restore_save_is_bit_exact() {
        let p = fed(&[1, 2, 3, 5, 8]);
        let saved = p.save_state();
        let mut fresh = PhiAccrual::new(16);
        fresh.restore_state(&saved).expect("restore");
        assert_eq!(fresh, p);
        assert_eq!(fresh.save_state().encode(), saved.encode());
    }

    #[test]
    fn restore_rejects_oversized_windows() {
        let p = fed(&[1, 2, 3, 4, 5]);
        let mut tiny = PhiAccrual::new(2);
        assert!(tiny.restore_state(&p.save_state()).is_err());
    }
}
