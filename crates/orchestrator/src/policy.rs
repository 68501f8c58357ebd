//! The policies a resilient evaluation applies, in the order
//! [`crate::resilient`] asks them: the per-configuration
//! [`CircuitBreaker`], the bounded [`RetryPolicy`] with seeded jitter,
//! and the [`OutlierGate`] that sends noise-spiked samples back for
//! re-measurement. All delays are simulated time.

use persist::{Checkpointable, PersistError, State};
use simkit::rng::SimRng;
use simkit::time::SimDuration;
use std::collections::BTreeMap;

/// Where one key's circuit stands (what the unit tests assert on).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Evaluations flow normally.
    Closed,
    /// Evaluations are refused without measuring.
    Open,
    /// One probe evaluation is in flight; its result closes or re-opens
    /// the circuit.
    HalfOpen,
}

/// State of one open circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenEntry {
    /// Evaluations refused since the circuit opened (or since the last
    /// failed probe).
    skips: u32,
    /// A half-open probe is in flight.
    probing: bool,
}

/// What the breaker decided for one incoming evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Circuit closed: evaluate normally.
    Pass,
    /// Circuit open: refuse without measuring.
    Skip,
    /// Circuit half-open: let this one probe through.
    Probe,
}

/// Per-configuration circuit breaker: after `threshold` failed evaluation
/// attempts a configuration is blacklisted and reported as worthless
/// without re-measuring. With `half_open_after: Some(n)`, an open circuit
/// lets a probe evaluation through after `n` refused requests — a probe
/// success closes the circuit, a probe failure re-opens it. With `None`
/// (the default) an open circuit stays open forever, matching the
/// original blacklist semantics.
///
/// Keys are opaque configuration summaries; `BTreeMap`s keep iteration
/// order deterministic. Only the table (failure counts and open
/// circuits) is checkpointed: the threshold and the probe cadence are
/// settings, and the session fingerprint covers them.
#[derive(Debug, Clone)]
pub(crate) struct CircuitBreaker {
    threshold: u32,
    half_open_after: Option<u32>,
    failures: BTreeMap<String, u32>,
    open: BTreeMap<String, OpenEntry>,
}

impl CircuitBreaker {
    pub(crate) fn new(threshold: u32, half_open_after: Option<u32>) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            half_open_after,
            failures: BTreeMap::new(),
            open: BTreeMap::new(),
        }
    }

    /// Where `key`'s circuit stands.
    #[cfg(test)]
    fn state_of(&self, key: &str) -> BreakerState {
        match self.open.get(key) {
            None => BreakerState::Closed,
            Some(e) if e.probing => BreakerState::HalfOpen,
            Some(_) => BreakerState::Open,
        }
    }

    /// Route one incoming evaluation: pass, skip, or probe. Skips are
    /// counted toward the half-open threshold.
    pub(crate) fn on_request(&mut self, key: &str) -> Gate {
        let Some(entry) = self.open.get_mut(key) else {
            return Gate::Pass;
        };
        if entry.probing {
            return Gate::Probe;
        }
        if let Some(after) = self.half_open_after {
            if entry.skips >= after {
                entry.probing = true;
                return Gate::Probe;
            }
        }
        entry.skips += 1;
        Gate::Skip
    }

    /// Record a failed evaluation. Returns `true` if this failure tripped
    /// the breaker (newly opened). A failed half-open probe re-opens the
    /// circuit without counting as a new trip.
    pub(crate) fn record_failure(&mut self, key: &str) -> bool {
        let opened = OpenEntry {
            skips: 0,
            probing: false,
        };
        if let Some(entry) = self.open.get_mut(key) {
            // Open or probing: a failure (re-)opens, never re-trips.
            *entry = opened;
            return false;
        }
        let count = self.failures.entry(key.to_string()).or_insert(0);
        *count += 1;
        if *count < self.threshold {
            return false;
        }
        self.failures.remove(key);
        self.open.insert(key.to_string(), opened);
        true
    }

    /// Record a successful evaluation: resets the failure count and
    /// closes the circuit for the key (probe success closes half-open).
    pub(crate) fn record_success(&mut self, key: &str) {
        self.failures.remove(key);
        self.open.remove(key);
    }
}

impl Checkpointable for CircuitBreaker {
    fn save_state(&self) -> State {
        State::map()
            .with(
                "failures",
                State::Map(
                    self.failures
                        .iter()
                        .map(|(k, v)| (k.clone(), State::U64(*v as u64)))
                        .collect(),
                ),
            )
            .with(
                "open",
                State::List(
                    self.open
                        .iter()
                        .map(|(k, e)| {
                            State::map()
                                .with("key", State::Str(k.clone()))
                                .with("skips", State::U64(e.skips as u64))
                                .with("probing", State::Bool(e.probing))
                        })
                        .collect(),
                ),
            )
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let State::Map(pairs) = state.require("failures")? else {
            return Err(PersistError::Schema("breaker failures is not a map".into()));
        };
        self.failures = pairs
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|count| (k.clone(), count as u32))
                    .ok_or_else(|| PersistError::Schema("breaker failure count not a u64".into()))
            })
            .collect::<Result<_, _>>()?;
        self.open = state
            .field_list("open")?
            .iter()
            .map(|e| {
                Ok((
                    e.field_str("key")?.to_string(),
                    OpenEntry {
                        skips: e.field_u64("skips")? as u32,
                        probing: e.field_bool("probing")?,
                    },
                ))
            })
            .collect::<Result<_, PersistError>>()?;
        Ok(())
    }
}

/// Bounded retry: at most `max_attempts` attempts per evaluation, the
/// retries after an exponential backoff of `base · 2^(attempt-1)`,
/// capped at `cap`, with equal jitter (uniform in `[delay/2, delay]`)
/// drawn from the caller's seeded stream, so a failed evaluation replays
/// identically under the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    pub(crate) max_attempts: u32,
    pub(crate) base: SimDuration,
    pub(crate) cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: SimDuration::from_secs(5),
            cap: SimDuration::from_secs(60),
        }
    }
}

impl RetryPolicy {
    /// The un-jittered delay after attempt `attempt` (1-indexed;
    /// attempt 0 is treated as 1).
    fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = (attempt.max(1) - 1).min(63);
        let scaled = self.base.as_micros().saturating_mul(1u64 << shift);
        SimDuration::from_micros(scaled.min(self.cap.as_micros()))
    }

    /// The jittered delay to wait before retrying after attempt
    /// `attempt`. A zero delay draws nothing from `rng`.
    pub(crate) fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        let us = self.backoff(attempt).as_micros();
        if us == 0 {
            return SimDuration::ZERO;
        }
        let half = us / 2;
        SimDuration::from_micros(half + rng.next_below(us - half + 1))
    }
}

/// Rejects samples whose confidence interval exploded (a noise spike or a
/// mid-measurement fault): the sample is re-measured instead of being fed
/// to the tuner, up to `max_remeasures` times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierGate {
    /// Maximum acceptable `ci_half / wips` ratio.
    pub(crate) max_rel_half_width: f64,
    /// Re-measurement budget per sample.
    pub(crate) max_remeasures: u32,
}

impl Default for OutlierGate {
    fn default() -> Self {
        OutlierGate {
            max_rel_half_width: 0.25,
            max_remeasures: 2,
        }
    }
}

impl OutlierGate {
    /// Does the sample's confidence interval pass the gate?
    pub(crate) fn accepts(&self, wips: f64, ci_half: f64) -> bool {
        if wips <= 0.0 {
            return ci_half <= 0.0;
        }
        ci_half / wips <= self.max_rel_half_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_at_threshold_and_resets_on_success() {
        let mut b = CircuitBreaker::new(2, None);
        assert!(!b.record_failure("cfg-a"), "first failure tolerated");
        assert_eq!(b.state_of("cfg-a"), BreakerState::Closed);
        assert!(b.record_failure("cfg-a"), "second failure trips");
        assert_eq!(b.state_of("cfg-a"), BreakerState::Open);
        assert!(
            !b.record_failure("cfg-a"),
            "already open, not newly tripped"
        );
        assert_eq!(
            b.state_of("cfg-b"),
            BreakerState::Closed,
            "keys independent"
        );
        b.record_success("cfg-a");
        assert_eq!(b.state_of("cfg-a"), BreakerState::Closed);
    }

    #[test]
    fn transition_table_closed_open_half_open_closed() {
        // The full closed→open→half-open→closed cycle, plus the
        // failed-probe edge back to open.
        let mut b = CircuitBreaker::new(2, Some(2));
        assert_eq!(b.state_of("k"), BreakerState::Closed);
        assert_eq!(b.on_request("k"), Gate::Pass);
        b.record_failure("k");
        b.record_failure("k");
        assert_eq!(b.state_of("k"), BreakerState::Open);
        // Two skips, then a probe.
        assert_eq!(b.on_request("k"), Gate::Skip);
        assert_eq!(b.on_request("k"), Gate::Skip);
        assert_eq!(b.on_request("k"), Gate::Probe);
        assert_eq!(b.state_of("k"), BreakerState::HalfOpen);
        // Probe fails: back to open, skip counter reset.
        b.record_failure("k");
        assert_eq!(b.state_of("k"), BreakerState::Open);
        assert_eq!(b.on_request("k"), Gate::Skip);
        assert_eq!(b.on_request("k"), Gate::Skip);
        assert_eq!(b.on_request("k"), Gate::Probe);
        // Probe succeeds: closed, failure count fresh.
        b.record_success("k");
        assert_eq!(b.state_of("k"), BreakerState::Closed);
        assert!(!b.record_failure("k"), "fresh failure count after close");
    }

    #[test]
    fn without_half_open_an_open_circuit_stays_open() {
        let mut b = CircuitBreaker::new(1, None);
        b.record_failure("k");
        for _ in 0..100 {
            assert_eq!(b.on_request("k"), Gate::Skip);
        }
        assert_eq!(b.state_of("k"), BreakerState::Open);
    }

    #[test]
    fn breaker_checkpoint_roundtrip_preserves_counts_and_open_set() {
        let mut b = CircuitBreaker::new(2, Some(3));
        b.record_failure("cfg-a");
        b.record_failure("cfg-a");
        b.record_failure("cfg-b");
        assert_eq!(b.on_request("cfg-a"), Gate::Skip);
        let saved = b.save_state();
        let mut restored = CircuitBreaker::new(2, Some(3));
        restored.restore_state(&saved).unwrap();
        assert_eq!(restored.save_state(), saved, "save→restore→save bit-exact");
        assert_eq!(restored.state_of("cfg-a"), BreakerState::Open);
        assert_eq!(restored.state_of("cfg-b"), BreakerState::Closed);
        // The skip count survives: two more skips, then the probe.
        assert_eq!(restored.on_request("cfg-a"), Gate::Skip);
        assert_eq!(restored.on_request("cfg-a"), Gate::Skip);
        assert_eq!(restored.on_request("cfg-a"), Gate::Probe);
        // The in-flight failure count survives: one more failure trips.
        assert!(restored.record_failure("cfg-b"));
        assert!(restored.restore_state(&State::Null).is_err());
    }

    #[test]
    fn backoff_doubles_up_to_its_cap() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), SimDuration::from_secs(5));
        assert_eq!(p.backoff(2), SimDuration::from_secs(10));
        assert_eq!(p.backoff(3), SimDuration::from_secs(20));
        assert_eq!(p.backoff(10), SimDuration::from_secs(60), "capped");
        assert_eq!(p.backoff(0), p.backoff(1), "attempt 0 treated as 1");
        for attempt in 1..256 {
            assert!(p.backoff(attempt) <= p.backoff(attempt + 1), "monotone");
            assert!(p.backoff(attempt) <= p.cap);
        }
        let uncapped = RetryPolicy {
            cap: SimDuration::MAX,
            ..p
        };
        assert_eq!(uncapped.backoff(200), SimDuration::MAX, "saturates");
    }

    #[test]
    fn jitter_stays_in_the_upper_half_and_replays_from_its_seed() {
        let p = RetryPolicy::default();
        let mut rng = SimRng::new(42);
        for attempt in 1..100 {
            let full = p.backoff(attempt);
            let d = p.delay(attempt, &mut rng);
            assert!(d >= SimDuration::from_micros(full.as_micros() / 2) && d <= full);
        }
        let draws = |seed| {
            let mut rng = SimRng::new(seed);
            (1..=3).map(|a| p.delay(a, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(99), draws(99), "same seed, same delays");
        assert_ne!(draws(99), draws(100), "different seed, different delays");
        let zero = RetryPolicy {
            base: SimDuration::ZERO,
            ..p
        };
        let before = rng.state();
        assert_eq!(zero.delay(1, &mut rng), SimDuration::ZERO);
        assert_eq!(rng.state(), before, "a zero delay draws nothing");
    }

    #[test]
    fn outlier_gate_rejects_wide_intervals() {
        let g = OutlierGate::default();
        assert!(g.accepts(100.0, 10.0));
        assert!(!g.accepts(100.0, 40.0));
        assert!(g.accepts(0.0, 0.0), "dead-but-certain sample passes");
        assert!(!g.accepts(0.0, 5.0));
    }
}
