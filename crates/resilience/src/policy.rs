//! The policy trait, evaluation context, and layer composition.

use crate::clock::PolicyClock;
use persist::{Checkpointable, PersistError, State};
use simkit::time::{SimDuration, SimTime};

/// One measured evaluation: the domain value (configuration + outcome),
/// whether the measurement is usable, and its scalar score (WIPS).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<T> {
    pub value: T,
    /// Usable measurement? Invalid samples trigger retries and count
    /// against the circuit breaker.
    pub valid: bool,
    /// Scalar figure of merit; drives [`crate::Fallback`]'s best-known
    /// tracking.
    pub score: f64,
}

/// Why a layer refused to evaluate at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The circuit breaker is open for this key.
    BreakerOpen,
    /// The bulkhead has no free permit.
    BulkheadFull,
}

/// Why the fallback substituted the best-known sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The measurement budget was exhausted (all attempts invalid).
    Invalid,
    /// A layer rejected the evaluation without measuring.
    Rejected,
}

impl DegradeReason {
    /// Stable label used in trace records.
    pub fn name(&self) -> &'static str {
        match self {
            DegradeReason::Invalid => "invalid",
            DegradeReason::Rejected => "rejected",
        }
    }
}

/// A degraded result: the substituted best-known sample, plus the failed
/// measurement (if one was taken) for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Degraded<T> {
    pub sample: Sample<T>,
    pub measured: Option<Sample<T>>,
    pub(crate) reason: DegradeReason,
}

/// What flows back up through the layers after one [`Stack::call`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<T> {
    /// A valid measurement.
    Ok(Sample<T>),
    /// Every allowed attempt produced an invalid measurement; the last
    /// one is kept for reporting.
    Invalid(Sample<T>),
    /// Refused without measuring.
    Rejected(RejectReason),
    /// The fallback substituted the best-known sample.
    Degraded(Degraded<T>),
}

impl<T> Outcome<T> {
    #[cfg(test)]
    pub(crate) fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok(_))
    }
}

/// One thing a layer did, in the order it happened. The caller drains
/// the log after each [`Stack::call`] and maps it onto trace records and
/// counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A bounded retry is about to run (`attempt` is 1-indexed and names
    /// the attempt being started; `score` is the failed sample's).
    Retry {
        attempt: u32,
        delay: SimDuration,
        score: f64,
    },
    /// The evaluation closure re-measured a noise-spiked sample.
    Remeasure { attempt: u32, score: f64 },
    /// An attempt exceeded the simulated-time budget and was invalidated.
    Timeout {
        attempt: u32,
        elapsed: SimDuration,
        budget: SimDuration,
        score: f64,
    },
    /// The breaker tripped open after `attempts` failed attempts.
    BreakerOpen { attempts: u32 },
    /// An open breaker refused the evaluation.
    BreakerSkip,
    /// A half-open breaker let one probe evaluation through.
    BreakerProbe,
    /// The bulkhead had no free permit.
    BulkheadFull,
    /// The fallback substituted the best-known sample.
    Degraded { score: f64, reason: DegradeReason },
}

/// Mutable evaluation context threaded through the layers: the key being
/// evaluated, the current attempt number, the simulated clock, and the
/// event log.
pub struct Ctx<'a> {
    pub(crate) key: &'a str,
    /// 1-indexed attempt number, maintained by [`crate::Retry`].
    pub attempt: u32,
    clock: &'a mut PolicyClock,
    events: &'a mut Vec<Event>,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub(crate) fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advance the simulated clock (evaluation cost, backoff delay).
    pub fn advance(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Append to the event log.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }
}

/// One resilience layer. `call` receives the context and the composed
/// inner layers as `next`; it may invoke `next` zero or more times.
///
/// Layers must be deterministic and must round-trip their mutable state
/// through `save_state`/`restore_state` bit-exactly — that is what lets
/// a killed session resume mid-policy without re-burning RNG draws.
pub trait Policy<T> {
    /// Stable layer name, checked on restore.
    fn name(&self) -> &'static str;

    fn call<'a>(
        &mut self,
        ctx: &mut Ctx<'a>,
        next: &mut dyn FnMut(&mut Ctx<'a>) -> Outcome<T>,
    ) -> Outcome<T>;

    /// Mutable layer state (`State::Null` for stateless layers).
    fn save_state(&self) -> State {
        State::Null
    }

    fn restore_state(&mut self, _state: &State) -> Result<(), PersistError> {
        Ok(())
    }
}

/// An explicit composition of layers, outermost first, plus the shared
/// simulated clock and the per-call event log.
pub struct Stack<T> {
    layers: Vec<Box<dyn Policy<T>>>,
    clock: PolicyClock,
    events: Vec<Event>,
}

impl<T> Default for Stack<T> {
    fn default() -> Self {
        Stack::new()
    }
}

impl<T> Stack<T> {
    /// An empty stack: `call` runs the evaluation closure directly.
    pub fn new() -> Self {
        Stack {
            layers: Vec::new(),
            clock: PolicyClock::new(SimTime::ZERO),
            events: Vec::new(),
        }
    }

    /// Builder: append a layer *inside* the existing ones (first added =
    /// outermost).
    pub fn layer(mut self, policy: impl Policy<T> + 'static) -> Self {
        self.layers.push(Box::new(policy));
        self
    }

    /// Builder: start the simulated clock at `t`.
    #[cfg(test)]
    fn starting_at(mut self, t: SimTime) -> Self {
        self.clock = PolicyClock::new(t);
        self
    }

    #[cfg(test)]
    pub(crate) fn clock(&self) -> &PolicyClock {
        &self.clock
    }

    /// Run one evaluation through every layer. The event log is cleared
    /// first; drain it with [`Stack::take_events`] afterwards.
    pub fn call(
        &mut self,
        key: &str,
        eval: &mut dyn for<'a> FnMut(&mut Ctx<'a>) -> Sample<T>,
    ) -> Outcome<T> {
        self.events.clear();
        let mut ctx = Ctx {
            key,
            attempt: 1,
            clock: &mut self.clock,
            events: &mut self.events,
        };
        dispatch(&mut self.layers, &mut ctx, eval)
    }

    /// The events of the most recent call, in order.
    #[cfg(test)]
    pub(crate) fn events(&self) -> &[Event] {
        &self.events
    }

    /// Drain the events of the most recent call.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

fn dispatch<'a, T>(
    layers: &mut [Box<dyn Policy<T>>],
    ctx: &mut Ctx<'a>,
    eval: &mut dyn FnMut(&mut Ctx<'a>) -> Sample<T>,
) -> Outcome<T> {
    match layers.split_first_mut() {
        None => {
            let sample = eval(ctx);
            if sample.valid {
                Outcome::Ok(sample)
            } else {
                Outcome::Invalid(sample)
            }
        }
        Some((head, rest)) => head.call(ctx, &mut |c| dispatch(&mut *rest, c, &mut *eval)),
    }
}

impl<T> Checkpointable for Stack<T> {
    /// The full mutable state of the composition: the clock plus each
    /// layer's state, tagged with its name so a mismatched stack shape
    /// is a typed error instead of silent divergence.
    fn save_state(&self) -> State {
        State::map().with("clock", self.clock.save_state()).with(
            "layers",
            State::List(
                self.layers
                    .iter()
                    .map(|l| {
                        State::map()
                            .with("name", State::Str(l.name().to_string()))
                            .with("state", l.save_state())
                    })
                    .collect(),
            ),
        )
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        self.clock.restore_state(state.require("clock")?)?;
        let saved = state.field_list("layers")?;
        if saved.len() != self.layers.len() {
            return Err(PersistError::Schema(format!(
                "policy stack expects {} layers, found {}",
                self.layers.len(),
                saved.len()
            )));
        }
        for (layer, st) in self.layers.iter_mut().zip(saved) {
            let name = st.field_str("name")?;
            if name != layer.name() {
                return Err(PersistError::Schema(format!(
                    "policy layer mismatch: expected '{}', found '{name}'",
                    layer.name()
                )));
            }
            layer.restore_state(st.require("state")?)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(valid: bool, score: f64) -> Sample<u32> {
        Sample {
            value: 0,
            valid,
            score,
        }
    }

    #[test]
    fn empty_stack_passes_through() {
        let mut stack: Stack<u32> = Stack::new();
        let out = stack.call("k", &mut |_| sample(true, 2.0));
        assert!(matches!(out, Outcome::Ok(s) if s.score == 2.0));
        let out = stack.call("k", &mut |_| sample(false, 0.0));
        assert!(matches!(out, Outcome::Invalid(_)));
        assert!(stack.events().is_empty());
    }

    #[test]
    fn closure_sees_clock_and_event_log() {
        let mut stack: Stack<u32> = Stack::new().starting_at(SimTime::from_secs(5));
        let out = stack.call("k", &mut |ctx| {
            assert_eq!(ctx.now(), SimTime::from_secs(5));
            ctx.advance(SimDuration::from_secs(30));
            ctx.push(Event::Remeasure {
                attempt: 1,
                score: 1.0,
            });
            sample(true, 1.0)
        });
        assert!(out.is_ok());
        assert_eq!(stack.clock().now(), SimTime::from_secs(35));
        assert_eq!(
            stack.take_events(),
            vec![Event::Remeasure {
                attempt: 1,
                score: 1.0
            }]
        );
        assert!(stack.events().is_empty(), "drained");
    }

    #[test]
    fn stack_state_roundtrip_restores_clock() {
        let mut stack: Stack<u32> = Stack::new();
        stack.call("k", &mut |ctx| {
            ctx.advance(SimDuration::from_secs(7));
            sample(true, 1.0)
        });
        let saved = stack.save_state();
        let mut fresh: Stack<u32> = Stack::new();
        fresh.restore_state(&saved).unwrap();
        assert_eq!(fresh.clock().now(), SimTime::from_secs(7));
        assert_eq!(fresh.save_state(), saved, "save→restore→save bit-exact");
    }

    #[test]
    fn restore_rejects_mismatched_shape() {
        let stack: Stack<u32> = Stack::new().layer(crate::Timeout::new(None));
        let saved = stack.save_state();
        let mut empty: Stack<u32> = Stack::new();
        assert!(empty.restore_state(&saved).is_err(), "layer count");
        let mut renamed: Stack<u32> = Stack::new().layer(crate::Bulkhead::unbounded());
        assert!(renamed.restore_state(&saved).is_err(), "layer name");
    }
}
