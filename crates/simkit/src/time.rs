//! Simulation time.
//!
//! Time is represented as an integer number of microseconds since the start
//! of the simulation. Integer time keeps event ordering exactly reproducible
//! across platforms (no floating-point associativity surprises), which the
//! whole experiment harness relies on for seeded determinism.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant in simulated time, measured in microseconds from simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

pub(crate) const MICROS_PER_MILLI: u64 = 1_000;
pub(crate) const MICROS_PER_SEC: u64 = 1_000_000;

/// Round a non-negative finite `x < 2^64` to the nearest integer, halves
/// away from zero — bit-identical to `x.round() as u64` on that domain.
///
/// `f64::round` lowers to a libm call on baseline x86-64 (no SSE4.1
/// `roundsd`), and it sat at ~5% of the DES hot loop via
/// [`SimDuration::from_secs_f64`]. Truncation (`as u64`) is a single
/// instruction, and for `0 <= x < 2^64` the fractional part `x - trunc(x)`
/// is computed exactly (Sterbenz: `trunc(x) <= x <= 2*trunc(x)` whenever
/// `x >= 1`, and the subtraction is trivially exact below 1), so comparing
/// it against 0.5 reproduces round-half-away exactly.
#[inline(always)]
pub fn round_nonneg(x: f64) -> u64 {
    let t = x as u64; // trunc toward zero; exact on the documented domain
    t + ((x - t as f64) >= 0.5) as u64
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MICROS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Raw microseconds since simulation start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting only — never for ordering).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MILLI)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond. Negative or NaN inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        // NaN and non-positive inputs clamp to zero.
        if s.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return SimDuration::ZERO;
        }
        let us = s * MICROS_PER_SEC as f64;
        if us >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(round_nonneg(us))
        }
    }

    /// Construct from fractional milliseconds (common for service times).
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1_000.0)
    }

    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MILLI as f64
    }

    #[inline]
    pub(crate) const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating sum.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Scale by a non-negative factor, rounding to the nearest microsecond.
    /// Used for slow-down multipliers (e.g. memory-pressure penalties).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        // NaN and non-positive factors clamp to zero.
        if factor.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return SimDuration::ZERO;
        }
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(round_nonneg(v))
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        self.0 = self.0.saturating_add(other.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 = self.0.saturating_sub(other.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < MICROS_PER_MILLI {
            write!(f, "{}us", self.0)
        } else if self.0 < MICROS_PER_SEC {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000));
        assert_eq!(SimTime::from_secs(1).as_micros(), MICROS_PER_SEC);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        assert_eq!(
            SimDuration::from_millis_f64(1.5),
            SimDuration::from_micros(1_500)
        );
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(late.since(early), SimDuration::from_secs(4));
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn round_nonneg_matches_round_exactly() {
        // Adversarial cases: just-below-half ulp neighbours, exact halves,
        // integers, huge integer-valued floats, and a pseudorandom sweep.
        let cases = [
            0.0,
            0.499_999_999_999_999_94, // largest f64 below 0.5
            0.5,
            0.999_999_999_999_999_9,
            1.5,
            2.5,
            1e15 + 0.5,
            (1u64 << 52) as f64,
            (1u64 << 53) as f64,
            1.844_674_4e19, // near 2^64, integer-valued
        ];
        for &x in &cases {
            assert_eq!(round_nonneg(x), x.round() as u64, "x = {x:e}");
        }
        let mut state = 0x1234_5678u64;
        for _ in 0..100_000 {
            // xorshift sweep over mixed magnitudes.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = (state >> 11) as f64 / (1u64 << 20) as f64;
            assert_eq!(round_nonneg(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_micros(150));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(-2.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_micros(17)), "17us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_secs(1)),
            SimDuration::MAX
        );
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::MAX),
            None.or(Some(SimTime::MAX))
        );
        assert_eq!(SimTime::from_micros(1).checked_add(SimDuration::MAX), None);
    }
}
