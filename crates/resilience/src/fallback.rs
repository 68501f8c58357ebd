//! Graceful degradation to the best-known sample.

use crate::policy::{Ctx, DegradeReason, Degraded, Event, Outcome, Policy, Sample};
use persist::{PersistError, State};

/// How a domain value round-trips through [`persist::State`], so the
/// fallback's best-known sample survives kill-and-resume bit-exactly.
pub trait StateCodec: Sized {
    fn to_state(&self) -> State;
    fn from_state(state: &State) -> Result<Self, PersistError>;
}

impl StateCodec for u32 {
    fn to_state(&self) -> State {
        State::U64(*self as u64)
    }

    fn from_state(state: &State) -> Result<Self, PersistError> {
        state
            .as_u64()
            .map(|v| v as u32)
            .ok_or_else(|| PersistError::Schema("expected a u64".into()))
    }
}

/// The outermost layer: tracks the best valid sample seen so far and,
/// when every inner layer gives up (budget exhausted or rejected),
/// substitutes it as a [`Outcome::Degraded`] result instead of failing
/// the iteration. With `enabled: false` it is the identity layer and
/// carries no state — sessions that want hard failures keep them.
#[derive(Debug, Clone)]
pub struct Fallback<T> {
    enabled: bool,
    best: Option<Sample<T>>,
}

impl<T> Fallback<T> {
    pub fn new(enabled: bool) -> Self {
        Fallback {
            enabled,
            best: None,
        }
    }
}

impl<T: Clone + StateCodec> Policy<T> for Fallback<T> {
    fn name(&self) -> &'static str {
        "fallback"
    }

    fn call<'a>(
        &mut self,
        ctx: &mut Ctx<'a>,
        next: &mut dyn FnMut(&mut Ctx<'a>) -> Outcome<T>,
    ) -> Outcome<T> {
        let out = next(ctx);
        if !self.enabled {
            return out;
        }
        match out {
            Outcome::Ok(sample) => {
                if self
                    .best
                    .as_ref()
                    .map(|b| sample.score > b.score)
                    .unwrap_or(true)
                {
                    self.best = Some(sample.clone());
                }
                Outcome::Ok(sample)
            }
            Outcome::Invalid(sample) => match &self.best {
                Some(best) => {
                    ctx.push(Event::Degraded {
                        score: best.score,
                        reason: DegradeReason::Invalid,
                    });
                    Outcome::Degraded(Degraded {
                        sample: best.clone(),
                        measured: Some(sample),
                        reason: DegradeReason::Invalid,
                    })
                }
                None => Outcome::Invalid(sample),
            },
            Outcome::Rejected(reason) => match &self.best {
                Some(best) => {
                    ctx.push(Event::Degraded {
                        score: best.score,
                        reason: DegradeReason::Rejected,
                    });
                    Outcome::Degraded(Degraded {
                        sample: best.clone(),
                        measured: None,
                        reason: DegradeReason::Rejected,
                    })
                }
                None => Outcome::Rejected(reason),
            },
            degraded @ Outcome::Degraded(_) => degraded,
        }
    }

    fn save_state(&self) -> State {
        match &self.best {
            None => State::Null,
            Some(s) => State::map()
                .with("value", s.value.to_state())
                .with("valid", State::Bool(s.valid))
                .with("score", State::F64(s.score)),
        }
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        self.best = match state {
            State::Null => None,
            s => Some(Sample {
                value: T::from_state(s.require("value")?)?,
                valid: s.field_bool("valid")?,
                score: s.field_f64("score")?,
            }),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RejectReason, Stack};
    use persist::Checkpointable;

    fn sample(value: u32, valid: bool, score: f64) -> Sample<u32> {
        Sample {
            value,
            valid,
            score,
        }
    }

    #[test]
    fn degrades_to_best_known_on_failure() {
        let mut stack: Stack<u32> = Stack::new().layer(Fallback::new(true));
        assert!(stack.call("k", &mut |_| sample(7, true, 3.0)).is_ok());
        assert!(stack.call("k", &mut |_| sample(9, true, 5.0)).is_ok());
        assert!(stack.call("k", &mut |_| sample(1, true, 4.0)).is_ok());
        let out = stack.call("k", &mut |_| sample(0, false, 0.0));
        let Outcome::Degraded(d) = out else {
            panic!("expected degradation, got {out:?}");
        };
        // Property: the substituted sample is exactly the best valid one
        // seen so far — never a worse or unseen configuration.
        assert_eq!(d.sample.value, 9);
        assert_eq!(d.sample.score, 5.0);
        assert_eq!(d.reason, DegradeReason::Invalid);
        assert_eq!(d.measured.as_ref().map(|m| m.score), Some(0.0));
        assert_eq!(
            stack.events(),
            &[Event::Degraded {
                score: 5.0,
                reason: DegradeReason::Invalid
            }]
        );
    }

    #[test]
    fn without_history_failures_pass_through() {
        let mut stack: Stack<u32> = Stack::new().layer(Fallback::new(true));
        assert!(matches!(
            stack.call("k", &mut |_| sample(0, false, 0.0)),
            Outcome::Invalid(_)
        ));
    }

    #[test]
    fn disabled_fallback_is_identity_with_no_state() {
        let mut stack: Stack<u32> = Stack::new().layer(Fallback::new(false));
        assert!(stack.call("k", &mut |_| sample(7, true, 3.0)).is_ok());
        let out = stack.call("k", &mut |_| sample(0, false, 0.0));
        assert!(matches!(out, Outcome::Invalid(_)), "no degradation");
        let layer = Fallback::<u32>::new(false);
        assert_eq!(Policy::<u32>::save_state(&layer), State::Null);
    }

    #[test]
    fn best_sample_survives_state_roundtrip() {
        let mut stack: Stack<u32> = Stack::new().layer(Fallback::new(true));
        assert!(stack.call("k", &mut |_| sample(9, true, 5.0)).is_ok());
        let saved = stack.save_state();
        let mut fresh: Stack<u32> = Stack::new().layer(Fallback::new(true));
        fresh.restore_state(&saved).unwrap();
        assert_eq!(fresh.save_state(), saved, "bit-exact");
        let out = fresh.call("k", &mut |_| sample(0, false, 0.0));
        assert!(matches!(out, Outcome::Degraded(d) if d.sample.value == 9));
    }

    #[test]
    fn rejection_degrades_without_a_measurement() {
        let mut stack: Stack<u32> = Stack::new()
            .layer(Fallback::new(true))
            .layer(crate::Breaker::new(crate::CircuitBreaker::new(1)));
        assert!(stack.call("k", &mut |_| sample(3, true, 2.0)).is_ok());
        assert!(matches!(
            stack.call("k", &mut |_| sample(0, false, 0.0)),
            Outcome::Degraded(_)
        ));
        // Breaker now open: the rejection also degrades.
        let out = stack.call("k", &mut |_| sample(0, true, 9.0));
        let Outcome::Degraded(d) = out else {
            panic!("expected degradation, got {out:?}");
        };
        assert_eq!(d.reason, DegradeReason::Rejected);
        assert!(d.measured.is_none(), "nothing was measured");
        assert_eq!(d.sample.value, 3);
        // Without history, the rejection passes through unchanged.
        let mut exhausted = crate::Bulkhead::with_cap(1);
        assert!(exhausted.try_acquire());
        let mut bare: Stack<u32> = Stack::new().layer(Fallback::new(true)).layer(exhausted);
        assert!(matches!(
            bare.call("k", &mut |_| sample(0, true, 1.0)),
            Outcome::Rejected(RejectReason::BulkheadFull)
        ));
    }
}
