//! Per-key circuit breaking: closed → open → half-open → closed.

use crate::policy::{Ctx, Event, Outcome, Policy, RejectReason};
use persist::{Checkpointable, PersistError, State};
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
/// order deterministic.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    half_open_after: Option<u32>,
    failures: BTreeMap<String, u32>,
    open: BTreeMap<String, OpenEntry>,
}

impl CircuitBreaker {
    pub fn new(threshold: u32) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            half_open_after: None,
            failures: BTreeMap::new(),
            open: BTreeMap::new(),
        }
    }

    /// Builder: probe an open circuit after `n` refused evaluations
    /// (`None`: never — open circuits stay open).
    pub fn half_open_after(mut self, n: Option<u32>) -> Self {
        self.half_open_after = n;
        self
    }

    /// Is the configuration blacklisted (open, not currently probing)?
    #[cfg(test)]
    fn is_open(&self, key: &str) -> bool {
        self.open.get(key).map(|e| !e.probing).unwrap_or(false)
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
        if let Some(entry) = self.open.get_mut(key) {
            // Open or probing: a failure (re-)opens, never re-trips.
            *entry = OpenEntry {
                skips: 0,
                probing: false,
            };
            return false;
        }
        let count = self.failures.entry(key.to_string()).or_insert(0);
        *count += 1;
        if *count >= self.threshold {
            self.failures.remove(key);
            self.open.insert(
                key.to_string(),
                OpenEntry {
                    skips: 0,
                    probing: false,
                },
            );
            true
        } else {
            false
        }
    }

    /// Record a successful evaluation: resets the failure count and
    /// closes the circuit for the key (probe success closes half-open).
    pub(crate) fn record_success(&mut self, key: &str) {
        self.failures.remove(key);
        self.open.remove(key);
    }

    /// Number of currently blacklisted configurations.
    #[cfg(test)]
    fn open_count(&self) -> usize {
        self.open.len()
    }
}

impl Checkpointable for CircuitBreaker {
    fn save_state(&self) -> State {
        State::map()
            .with("threshold", State::U64(self.threshold as u64))
            .with(
                "half_open_after",
                match self.half_open_after {
                    None => State::Null,
                    Some(n) => State::U64(n as u64),
                },
            )
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
        self.threshold = (state.field_u64("threshold")? as u32).max(1);
        self.half_open_after = match state.require("half_open_after")? {
            State::Null => None,
            s => Some(s.as_u64().ok_or_else(|| {
                PersistError::Schema("breaker half_open_after is not a u64".into())
            })? as u32),
        };
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

/// The circuit-breaker layer: consults `CircuitBreaker::on_request`
/// before evaluating, rejects when the circuit is open, and feeds the
/// final outcome back as a success or failure. A trip logs
/// [`Event::BreakerOpen`] carrying the number of attempts the failed
/// evaluation actually used.
#[derive(Debug, Clone)]
pub struct Breaker {
    breaker: CircuitBreaker,
}

impl Breaker {
    pub fn new(breaker: CircuitBreaker) -> Self {
        Breaker { breaker }
    }
}

impl<T> Policy<T> for Breaker {
    fn name(&self) -> &'static str {
        "breaker"
    }

    fn call<'a>(
        &mut self,
        ctx: &mut Ctx<'a>,
        next: &mut dyn FnMut(&mut Ctx<'a>) -> Outcome<T>,
    ) -> Outcome<T> {
        match self.breaker.on_request(ctx.key) {
            Gate::Skip => {
                ctx.push(Event::BreakerSkip);
                return Outcome::Rejected(RejectReason::BreakerOpen);
            }
            Gate::Probe => ctx.push(Event::BreakerProbe),
            Gate::Pass => {}
        }
        let out = next(ctx);
        match &out {
            Outcome::Ok(_) => self.breaker.record_success(ctx.key),
            Outcome::Invalid(_) => {
                if self.breaker.record_failure(ctx.key) {
                    ctx.push(Event::BreakerOpen {
                        attempts: ctx.attempt,
                    });
                }
            }
            // Rejections and degradations originate in other layers and
            // are not evidence about this key.
            Outcome::Rejected(_) | Outcome::Degraded(_) => {}
        }
        out
    }

    fn save_state(&self) -> State {
        self.breaker.save_state()
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        self.breaker.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_at_threshold_and_resets_on_success() {
        let mut b = CircuitBreaker::new(2);
        assert!(!b.record_failure("cfg-a"), "first failure tolerated");
        assert!(!b.is_open("cfg-a"));
        assert!(b.record_failure("cfg-a"), "second failure trips");
        assert!(b.is_open("cfg-a"));
        assert!(
            !b.record_failure("cfg-a"),
            "already open, not newly tripped"
        );
        assert_eq!(b.open_count(), 1);
        assert!(!b.is_open("cfg-b"), "keys independent");
        b.record_success("cfg-a");
        assert!(!b.is_open("cfg-a"));
        assert_eq!(b.open_count(), 0);
    }

    #[test]
    fn transition_table_closed_open_half_open_closed() {
        // Property: the full closed→open→half-open→closed cycle, plus
        // the failed-probe edge back to open.
        let mut b = CircuitBreaker::new(2).half_open_after(Some(2));
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
        assert!(!b.is_open("k"), "probing circuit admits the probe");
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
        let mut b = CircuitBreaker::new(1);
        b.record_failure("k");
        for _ in 0..100 {
            assert_eq!(b.on_request("k"), Gate::Skip);
        }
        assert_eq!(b.state_of("k"), BreakerState::Open);
    }

    #[test]
    fn breaker_checkpoint_roundtrip_preserves_counts_and_open_set() {
        let mut b = CircuitBreaker::new(2).half_open_after(Some(3));
        b.record_failure("cfg-a");
        b.record_failure("cfg-a");
        b.record_failure("cfg-b");
        assert_eq!(b.on_request("cfg-a"), Gate::Skip);
        let saved = b.save_state();
        let mut restored = CircuitBreaker::new(1);
        restored.restore_state(&saved).unwrap();
        assert_eq!(restored.save_state(), saved, "save→restore→save bit-exact");
        assert!(restored.is_open("cfg-a"));
        assert!(!restored.is_open("cfg-b"));
        // The in-flight failure count survives: one more failure trips.
        assert!(restored.record_failure("cfg-b"));
        assert_eq!(restored.open_count(), 2);
        assert!(restored.restore_state(&State::Null).is_err());
    }

    #[test]
    fn layer_rejects_when_open_and_reports_actual_attempts() {
        use crate::policy::{Sample, Stack};
        let mut stack: Stack<u32> = Stack::new()
            .layer(Breaker::new(CircuitBreaker::new(1)))
            .layer(crate::Retry::new(crate::RetryPolicy::default(), 3));
        let out = stack.call("k", &mut |_| Sample {
            value: 0,
            valid: false,
            score: 0.0,
        });
        assert!(matches!(out, Outcome::Invalid(_)));
        // The trip event reports the attempts actually used (3), not a
        // hardcoded policy maximum.
        assert!(stack
            .events()
            .iter()
            .any(|e| matches!(e, Event::BreakerOpen { attempts: 3 })));
        let out = stack.call("k", &mut |_| Sample {
            value: 0,
            valid: true,
            score: 1.0,
        });
        assert!(
            matches!(out, Outcome::Rejected(RejectReason::BreakerOpen)),
            "open circuit refuses without evaluating"
        );
        assert_eq!(stack.events(), &[Event::BreakerSkip]);
    }
}
