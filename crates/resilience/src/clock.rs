//! The injectable simulated clock the policies measure against.

use persist::{Checkpointable, PersistError, State};
use simkit::time::{SimDuration, SimTime};

/// Monotone simulated time owned by a [`crate::Stack`]. The evaluation
/// closure advances it by the simulated cost of each measurement and the
/// retry layer by each backoff delay, so a [`crate::Timeout`] budget is
/// checked against *simulated* elapsed time — no wall clock anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PolicyClock {
    now: SimTime,
}

impl PolicyClock {
    pub(crate) fn new(start: SimTime) -> Self {
        PolicyClock { now: start }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Advance by `d`, saturating at [`SimTime::MAX`].
    pub(crate) fn advance(&mut self, d: SimDuration) {
        self.now = self.now.checked_add(d).unwrap_or(SimTime::MAX);
    }
}

impl Default for PolicyClock {
    fn default() -> Self {
        PolicyClock::new(SimTime::ZERO)
    }
}

impl Checkpointable for PolicyClock {
    fn save_state(&self) -> State {
        State::U64(self.now.as_micros())
    }

    fn restore_state(&mut self, state: &State) -> Result<(), PersistError> {
        let us = state
            .as_u64()
            .ok_or_else(|| PersistError::Schema("policy clock is not a u64".into()))?;
        self.now = SimTime::from_micros(us);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_saturates() {
        let mut c = PolicyClock::default();
        c.advance(SimDuration::from_secs(3));
        assert_eq!(c.now(), SimTime::from_secs(3));
        c.advance(SimDuration::MAX);
        assert_eq!(c.now(), SimTime::MAX, "saturates");
    }

    #[test]
    fn state_roundtrip() {
        let mut c = PolicyClock::new(SimTime::from_micros(123_456));
        let saved = c.save_state();
        c.advance(SimDuration::from_secs(1));
        c.restore_state(&saved).unwrap();
        assert_eq!(c.now(), SimTime::from_micros(123_456));
        assert!(c.restore_state(&State::Null).is_err());
    }
}
