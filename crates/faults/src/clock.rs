//! Session-wide fault time.
//!
//! Each tuning iteration runs an independent simulation whose internal
//! clock restarts at zero, but faults are scheduled on one continuous
//! session timeline. The `FaultClock` maps iterations onto that
//! timeline: iteration `i` measures the `i`-th window of one iteration
//! span.

use simkit::time::{SimDuration, SimTime};

/// The mapping from tuning iterations to session-timeline windows.
pub struct FaultClock;

impl FaultClock {
    /// The window iteration `i` occupies: windows run back to back from
    /// t = 0, one iteration span each.
    pub fn window_of(span: SimDuration, iteration: u32) -> (SimTime, SimTime) {
        let start = SimTime::ZERO + SimDuration::from_micros(span.as_micros() * iteration as u64);
        (start, start + span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_contiguous() {
        let span = SimDuration::from_secs(30);
        assert_eq!(
            FaultClock::window_of(span, 0),
            (SimTime::ZERO, SimTime::from_secs(30))
        );
        for i in 0..4 {
            assert_eq!(
                FaultClock::window_of(span, i).1,
                FaultClock::window_of(span, i + 1).0
            );
        }
    }
}
