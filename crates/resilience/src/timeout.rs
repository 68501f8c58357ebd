//! Per-attempt simulated-time budget.

use crate::policy::{Ctx, Event, Outcome, Policy};
use simkit::time::SimDuration;

/// Invalidates any attempt whose *simulated* elapsed time (as advanced
/// by the evaluation closure and the retry layer's backoff holds) exceeds
/// the budget. Composed inside [`crate::Retry`], an over-budget attempt
/// is retried like any other invalid sample; a stalled cluster therefore
/// costs bounded simulated time instead of an unbounded measurement.
///
/// `budget: None` is the identity layer — it never measures or rewrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeout {
    pub(crate) budget: Option<SimDuration>,
}

impl Timeout {
    pub fn new(budget: Option<SimDuration>) -> Self {
        Timeout { budget }
    }
}

impl<T> Policy<T> for Timeout {
    fn name(&self) -> &'static str {
        "timeout"
    }

    fn call<'a>(
        &mut self,
        ctx: &mut Ctx<'a>,
        next: &mut dyn FnMut(&mut Ctx<'a>) -> Outcome<T>,
    ) -> Outcome<T> {
        let Some(budget) = self.budget else {
            return next(ctx);
        };
        let started = ctx.now();
        let out = next(ctx);
        let elapsed = ctx.now().since(started);
        if elapsed <= budget {
            return out;
        }
        match out {
            Outcome::Ok(mut sample) | Outcome::Invalid(mut sample) => {
                ctx.push(Event::Timeout {
                    attempt: ctx.attempt,
                    elapsed,
                    budget,
                    score: sample.score,
                });
                sample.valid = false;
                Outcome::Invalid(sample)
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Sample, Stack};
    use crate::retry::{Retry, RetryPolicy};

    fn sample(valid: bool, score: f64) -> Sample<u32> {
        Sample {
            value: 0,
            valid,
            score,
        }
    }

    #[test]
    fn no_budget_is_identity() {
        let mut stack: Stack<u32> = Stack::new().layer(Timeout::new(None));
        let out = stack.call("k", &mut |ctx| {
            ctx.advance(SimDuration::from_secs(1_000_000));
            sample(true, 1.0)
        });
        assert!(out.is_ok());
        assert!(stack.events().is_empty());
    }

    #[test]
    fn over_budget_attempt_is_invalidated() {
        let mut stack: Stack<u32> =
            Stack::new().layer(Timeout::new(Some(SimDuration::from_secs(30))));
        let out = stack.call("k", &mut |ctx| {
            ctx.advance(SimDuration::from_secs(45));
            sample(true, 9.0)
        });
        let Outcome::Invalid(s) = out else {
            panic!("expected invalidation, got {out:?}");
        };
        assert_eq!(s.score, 9.0, "measurement kept for reporting");
        assert_eq!(
            stack.events(),
            &[Event::Timeout {
                attempt: 1,
                elapsed: SimDuration::from_secs(45),
                budget: SimDuration::from_secs(30),
                score: 9.0,
            }]
        );
    }

    #[test]
    fn timeout_inside_retry_triggers_another_attempt() {
        // First attempt stalls past the budget; the retry (no stall)
        // passes. This is the Stall-fault shape end to end.
        let mut stack: Stack<u32> = Stack::new()
            .layer(Retry::new(RetryPolicy::default(), 11))
            .layer(Timeout::new(Some(SimDuration::from_secs(60))));
        let out = stack.call("k", &mut |ctx| {
            let stalled = ctx.attempt == 1;
            ctx.advance(SimDuration::from_secs(if stalled { 90 } else { 25 }));
            sample(true, 4.0)
        });
        assert!(out.is_ok(), "{out:?}");
        assert!(matches!(
            stack.events()[0],
            Event::Timeout { attempt: 1, .. }
        ));
        assert!(matches!(stack.events()[1], Event::Retry { attempt: 2, .. }));
    }

    #[test]
    fn budget_is_per_attempt_not_per_call() {
        // Each retry gets a fresh budget: 3 attempts of 40s each exceed
        // a 60s total but every attempt individually passes.
        let mut stack: Stack<u32> = Stack::new()
            .layer(Retry::new(RetryPolicy::default(), 1))
            .layer(Timeout::new(Some(SimDuration::from_secs(60))));
        let out = stack.call("k", &mut |ctx| {
            ctx.advance(SimDuration::from_secs(40));
            sample(ctx.attempt == 3, 1.0)
        });
        assert!(out.is_ok(), "{out:?}");
        assert!(stack
            .events()
            .iter()
            .all(|e| !matches!(e, Event::Timeout { .. })));
    }
}
