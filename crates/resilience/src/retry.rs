//! Bounded retry with deterministic jittered backoff.
//!
//! Modeled on the usual production retry stack but fully deterministic:
//! jitter draws from a caller-seeded [`SimRng`] and delays are simulated
//! time, so a failed evaluation replays identically under the same seed.

use crate::policy::{Ctx, Event, Outcome, Policy};
use persist::{PersistError, State};
use simkit::rng::SimRng;
use simkit::time::SimDuration;

/// How the base delay grows with the attempt number (1-indexed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// Same delay every attempt.
    Constant(SimDuration),
    /// `base * attempt`.
    Linear(SimDuration),
    /// `base * 2^(attempt-1)`, capped.
    Exponential { base: SimDuration, cap: SimDuration },
}

impl Backoff {
    /// The un-jittered delay before attempt `attempt` (1-indexed;
    /// attempt 0 is treated as 1).
    pub(crate) fn delay(&self, attempt: u32) -> SimDuration {
        let attempt = attempt.max(1);
        match *self {
            Backoff::Constant(d) => d,
            Backoff::Linear(base) => {
                SimDuration::from_micros(base.as_micros().saturating_mul(attempt as u64))
            }
            Backoff::Exponential { base, cap } => {
                let shift = (attempt - 1).min(63);
                let scaled = base.as_micros().saturating_mul(1u64 << shift);
                SimDuration::from_micros(scaled.min(cap.as_micros()))
            }
        }
    }
}

/// How jitter perturbs the backoff delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Jitter {
    /// No jitter: the deterministic schedule as-is.
    #[default]
    None,
    /// Uniform in `[0, delay]`.
    Full,
    /// Uniform in `[delay/2, delay]` (AWS "equal jitter").
    Equal,
}

impl Jitter {
    pub(crate) fn apply(&self, delay: SimDuration, rng: &mut SimRng) -> SimDuration {
        let us = delay.as_micros();
        if us == 0 {
            return delay;
        }
        match self {
            Jitter::None => delay,
            Jitter::Full => SimDuration::from_micros(rng.next_below(us + 1)),
            Jitter::Equal => {
                let half = us / 2;
                SimDuration::from_micros(half + rng.next_below(us - half + 1))
            }
        }
    }
}

/// A bounded retry policy: at most `max_attempts` tries per evaluation,
/// with jittered backoff between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    pub max_attempts: u32,
    pub backoff: Backoff,
    pub jitter: Jitter,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Backoff::Exponential {
                base: SimDuration::from_secs(5),
                cap: SimDuration::from_secs(60),
            },
            jitter: Jitter::Equal,
        }
    }
}

impl RetryPolicy {
    /// Whether attempt `attempt` (1-indexed) is allowed.
    pub(crate) fn allows(&self, attempt: u32) -> bool {
        attempt <= self.max_attempts
    }

    /// The jittered delay to wait before retrying after attempt `attempt`.
    pub(crate) fn delay(&self, attempt: u32, rng: &mut SimRng) -> SimDuration {
        self.jitter.apply(self.backoff.delay(attempt), rng)
    }
}

/// The retry layer: re-invokes the inner layers while the outcome is
/// invalid and the [`RetryPolicy`] still allows another attempt. Each
/// retry advances the simulated clock by its backoff delay and logs an
/// [`Event::Retry`] carrying the failed sample's score.
#[derive(Debug, Clone)]
pub struct Retry {
    pub(crate) policy: RetryPolicy,
    rng: SimRng,
}

impl Retry {
    /// A retry layer drawing jitter from `seed`. The same seed replays
    /// the same delay sequence.
    pub fn new(policy: RetryPolicy, seed: u64) -> Self {
        Retry {
            policy,
            rng: SimRng::new(seed),
        }
    }
}

impl<T> Policy<T> for Retry {
    fn name(&self) -> &'static str {
        "retry"
    }

    fn call<'a>(
        &mut self,
        ctx: &mut Ctx<'a>,
        next: &mut dyn FnMut(&mut Ctx<'a>) -> Outcome<T>,
    ) -> Outcome<T> {
        ctx.attempt = 1;
        let mut attempt = 1u32;
        let mut out = next(ctx);
        loop {
            let score = match &out {
                Outcome::Invalid(s) if self.policy.allows(attempt + 1) => s.score,
                _ => return out,
            };
            let delay = self.policy.delay(attempt, &mut self.rng);
            attempt += 1;
            ctx.attempt = attempt;
            ctx.advance(delay);
            ctx.push(Event::Retry {
                attempt,
                delay,
                score,
            });
            out = next(ctx);
        }
    }

    /// Only the jitter RNG is mutable state; the policy itself is
    /// construction-time configuration.
    fn save_state(&self) -> State {
        State::List(self.rng.state().iter().map(|&w| State::U64(w)).collect())
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let words = state
            .as_list()
            .ok_or_else(|| PersistError::Schema("retry rng state is not a list".into()))?;
        if words.len() != 4 {
            return Err(PersistError::Schema(format!(
                "retry rng state expects 4 words, found {}",
                words.len()
            )));
        }
        let mut s = [0u64; 4];
        for (w, st) in s.iter_mut().zip(words) {
            *w = st
                .as_u64()
                .ok_or_else(|| PersistError::Schema("retry rng word is not a u64".into()))?;
        }
        self.rng = SimRng::from_state(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Sample, Stack};

    #[test]
    fn backoff_schedules() {
        let c = Backoff::Constant(SimDuration::from_secs(2));
        assert_eq!(c.delay(1), SimDuration::from_secs(2));
        assert_eq!(c.delay(5), SimDuration::from_secs(2));
        let l = Backoff::Linear(SimDuration::from_secs(2));
        assert_eq!(l.delay(3), SimDuration::from_secs(6));
        let e = Backoff::Exponential {
            base: SimDuration::from_secs(5),
            cap: SimDuration::from_secs(60),
        };
        assert_eq!(e.delay(1), SimDuration::from_secs(5));
        assert_eq!(e.delay(2), SimDuration::from_secs(10));
        assert_eq!(e.delay(3), SimDuration::from_secs(20));
        assert_eq!(e.delay(10), SimDuration::from_secs(60), "capped");
        assert_eq!(e.delay(0), e.delay(1), "attempt 0 treated as 1");
    }

    #[test]
    fn exponential_backoff_saturates_instead_of_overflowing() {
        let e = Backoff::Exponential {
            base: SimDuration::from_secs(5),
            cap: SimDuration::MAX,
        };
        assert_eq!(e.delay(200), SimDuration::MAX);
    }

    #[test]
    fn backoff_is_monotone_and_bounded() {
        // Property: for every schedule, delay(n) ≤ delay(n+1) and the
        // exponential schedule never exceeds its cap.
        let cap = SimDuration::from_secs(60);
        let schedules = [
            Backoff::Constant(SimDuration::from_secs(2)),
            Backoff::Linear(SimDuration::from_millis(500)),
            Backoff::Exponential {
                base: SimDuration::from_secs(5),
                cap,
            },
        ];
        for b in schedules {
            for attempt in 1..128 {
                assert!(b.delay(attempt) <= b.delay(attempt + 1), "{b:?}@{attempt}");
            }
        }
        let e = Backoff::Exponential {
            base: SimDuration::from_secs(5),
            cap,
        };
        for attempt in 1..256 {
            assert!(e.delay(attempt) <= cap);
        }
    }

    #[test]
    fn jitter_bounds_and_determinism() {
        let d = SimDuration::from_secs(10);
        let mut rng = SimRng::new(42);
        for _ in 0..100 {
            let full = Jitter::Full.apply(d, &mut rng);
            assert!(full <= d);
            let equal = Jitter::Equal.apply(d, &mut rng);
            assert!(equal >= SimDuration::from_secs(5) && equal <= d);
        }
        assert_eq!(Jitter::None.apply(d, &mut rng), d);
        // Same seed, same draw sequence.
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        assert_eq!(Jitter::Full.apply(d, &mut a), Jitter::Full.apply(d, &mut b));
    }

    #[test]
    fn retry_policy_bounds_attempts() {
        let p = RetryPolicy::default();
        assert!(p.allows(1));
        assert!(p.allows(3));
        assert!(!p.allows(4));
        let mut rng = SimRng::new(1);
        assert!(p.delay(1, &mut rng) <= SimDuration::from_secs(5));
    }

    fn failing_stack(seed: u64) -> (Stack<u32>, Vec<Event>) {
        let mut stack: Stack<u32> = Stack::new().layer(Retry::new(RetryPolicy::default(), seed));
        let out = stack.call("k", &mut |ctx| Sample {
            value: ctx.attempt,
            valid: false,
            score: 0.0,
        });
        assert!(matches!(out, Outcome::Invalid(s) if s.value == 3));
        let events = stack.take_events();
        (stack, events)
    }

    #[test]
    fn same_seed_same_jitter_sequence() {
        // Property: the full retry event sequence (attempts and jittered
        // delays) is a pure function of the seed.
        let (_, a) = failing_stack(99);
        let (_, b) = failing_stack(99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2, "3 attempts → 2 retries");
        assert!(matches!(a[0], Event::Retry { attempt: 2, .. }));
        assert!(matches!(a[1], Event::Retry { attempt: 3, .. }));
        let (_, c) = failing_stack(100);
        assert_ne!(a, c, "different seed, different delays");
    }

    #[test]
    fn retry_stops_on_first_success_and_advances_clock() {
        let mut stack: Stack<u32> = Stack::new().layer(Retry::new(RetryPolicy::default(), 7));
        let out = stack.call("k", &mut |ctx| Sample {
            value: ctx.attempt,
            valid: ctx.attempt >= 2,
            score: ctx.attempt as f64,
        });
        assert!(matches!(out, Outcome::Ok(s) if s.value == 2));
        assert_eq!(stack.events().len(), 1);
        let Event::Retry { delay, .. } = stack.events()[0] else {
            panic!("expected retry event");
        };
        assert_eq!(
            stack.clock().now().as_micros(),
            delay.as_micros(),
            "clock advanced by the backoff delay"
        );
    }

    #[test]
    fn rng_state_roundtrips_without_reburning_draws() {
        // Burn two draws, save, burn two more; the restored layer must
        // produce the *same* next delays without replaying the first two.
        let mut live = Retry::new(RetryPolicy::default(), 5);
        let rng_probe = |r: &mut Retry| r.policy.delay(1, &mut r.rng);
        rng_probe(&mut live);
        rng_probe(&mut live);
        let saved = Policy::<u32>::save_state(&live);
        let next_live = rng_probe(&mut live);
        let mut restored = Retry::new(RetryPolicy::default(), 0);
        Policy::<u32>::restore_state(&mut restored, &saved).unwrap();
        assert_eq!(rng_probe(&mut restored), next_live);
        assert!(Policy::<u32>::restore_state(&mut restored, &State::Null).is_err());
    }
}
