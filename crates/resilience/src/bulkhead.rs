//! Concurrency isolation: cap in-flight evaluations.

use crate::policy::{Ctx, Event, Outcome, Policy, RejectReason};
use persist::{PersistError, State};

/// Caps the number of evaluations in flight at once. In the sequential
/// session loop the permit gate is a formality (one evaluation at a
/// time), but the same cap bounds the width of parallel fan-outs:
/// [`Bulkhead::clamp_threads`] clamps the batch width handed to the
/// worker pool (`par::WorkerPool::run_batch`) for grids of independent
/// sessions, so one knob governs both the policy stack and the
/// experiments' parallelism.
///
/// `cap: None` is unbounded — the identity layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bulkhead {
    cap: Option<u32>,
    in_flight: u32,
}

impl Bulkhead {
    /// No cap: every evaluation gets a permit.
    pub(crate) fn unbounded() -> Self {
        Bulkhead {
            cap: None,
            in_flight: 0,
        }
    }

    /// At most `cap` (≥ 1) evaluations in flight.
    pub(crate) fn with_cap(cap: u32) -> Self {
        Bulkhead {
            cap: Some(cap.max(1)),
            in_flight: 0,
        }
    }

    /// From an optional cap (`None` = unbounded).
    pub fn new(cap: Option<u32>) -> Self {
        match cap {
            None => Bulkhead::unbounded(),
            Some(c) => Bulkhead::with_cap(c),
        }
    }

    /// Take a permit if one is free.
    pub(crate) fn try_acquire(&mut self) -> bool {
        match self.cap {
            Some(cap) if self.in_flight >= cap => false,
            _ => {
                self.in_flight += 1;
                true
            }
        }
    }

    /// Return a permit.
    pub(crate) fn release(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    /// Clamp a requested worker-thread count to the bulkhead cap
    /// (`requested == 0` means "one per core" and is clamped too, to the
    /// cap itself).
    pub fn clamp_threads(&self, requested: usize) -> usize {
        match self.cap {
            None => requested,
            Some(cap) if requested == 0 => cap as usize,
            Some(cap) => requested.min(cap as usize),
        }
    }
}

impl<T> Policy<T> for Bulkhead {
    fn name(&self) -> &'static str {
        "bulkhead"
    }

    fn call<'a>(
        &mut self,
        ctx: &mut Ctx<'a>,
        next: &mut dyn FnMut(&mut Ctx<'a>) -> Outcome<T>,
    ) -> Outcome<T> {
        if !self.try_acquire() {
            ctx.push(Event::BulkheadFull);
            return Outcome::Rejected(RejectReason::BulkheadFull);
        }
        let out = next(ctx);
        self.release();
        out
    }

    fn save_state(&self) -> State {
        State::U64(self.in_flight as u64)
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        self.in_flight = state
            .as_u64()
            .ok_or_else(|| PersistError::Schema("bulkhead in_flight is not a u64".into()))?
            as u32;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Sample, Stack};

    #[test]
    fn permits_bound_in_flight() {
        let mut b = Bulkhead::with_cap(2);
        assert!(b.try_acquire());
        assert!(b.try_acquire());
        assert!(!b.try_acquire(), "cap reached");
        b.release();
        assert!(b.try_acquire());
        let mut u = Bulkhead::unbounded();
        for _ in 0..1000 {
            assert!(u.try_acquire());
        }
    }

    #[test]
    fn clamp_threads_caps_speculation_width() {
        assert_eq!(Bulkhead::unbounded().clamp_threads(8), 8);
        assert_eq!(Bulkhead::unbounded().clamp_threads(0), 0, "still auto");
        let b = Bulkhead::with_cap(3);
        assert_eq!(b.clamp_threads(8), 3);
        assert_eq!(b.clamp_threads(2), 2);
        assert_eq!(b.clamp_threads(0), 3, "auto clamps to the cap");
    }

    #[test]
    fn layer_rejects_when_exhausted() {
        // Exhaust the permits from outside the stack, as a concurrent
        // evaluation holding them would.
        let mut saturated = Bulkhead::with_cap(1);
        assert!(saturated.try_acquire());
        let mut stack: Stack<u32> = Stack::new().layer(saturated);
        let out = stack.call("k", &mut |_| Sample {
            value: 0,
            valid: true,
            score: 1.0,
        });
        assert!(matches!(out, Outcome::Rejected(RejectReason::BulkheadFull)));
        assert_eq!(stack.events(), &[Event::BulkheadFull]);
    }

    #[test]
    fn layer_releases_its_permit() {
        let mut stack: Stack<u32> = Stack::new().layer(Bulkhead::with_cap(1));
        for i in 0..3 {
            let out = stack.call("k", &mut |_| Sample {
                value: 0,
                valid: true,
                score: 1.0,
            });
            assert!(out.is_ok(), "call {i} got a permit");
        }
    }
}
