//! Streaming statistics used by the simulator and the experiment harness.
//!
//! Everything here is single-pass and allocation-free in steady state,
//! following the HPC guidance to keep hot-loop bookkeeping cheap.

use crate::time::{SimDuration, SimTime};

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal (queue lengths,
/// busy-server counts). Integrates `value * dt` between updates.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    area: f64,
    start: SimTime,
}

impl TimeWeighted {
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: initial,
            area: 0.0,
            start,
        }
    }

    /// Record that the signal changed to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.since(self.last_time).as_secs_f64();
        self.area += self.last_value * dt;
        self.last_time = now;
        self.last_value = value;
    }

    /// Time-average over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = now.since(self.start).as_secs_f64();
        if span <= 0.0 {
            return self.last_value;
        }
        let pending = self.last_value * now.since(self.last_time).as_secs_f64();
        (self.area + pending) / span
    }

    /// Restart the averaging window at `now`, keeping the current value.
    pub(crate) fn reset_window(&mut self, now: SimTime) {
        let v = self.last_value;
        *self = TimeWeighted::new(now, v);
    }
}

/// Busy-time tracker for a resource with a fixed capacity: utilization is
/// (integral of busy servers) / (capacity * window).
#[derive(Debug, Clone)]
pub(crate) struct UtilizationTracker {
    busy: TimeWeighted,
    capacity: f64,
}

impl UtilizationTracker {
    pub(crate) fn new(start: SimTime, capacity: f64) -> Self {
        UtilizationTracker {
            busy: TimeWeighted::new(start, 0.0),
            capacity: capacity.max(1e-9),
        }
    }

    pub(crate) fn set_busy(&mut self, now: SimTime, busy: f64) {
        self.busy.set(now, busy);
    }

    /// Utilization in [0, ~1] over the current window.
    pub(crate) fn utilization(&self, now: SimTime) -> f64 {
        (self.busy.average(now) / self.capacity).max(0.0)
    }

    pub(crate) fn reset_window(&mut self, now: SimTime) {
        self.busy.reset_window(now);
    }
}

/// Fixed-bin histogram over durations, with approximate percentile queries.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    bin_width: SimDuration,
    bins: Vec<u64>,
    count: u64,
}

impl DurationHistogram {
    /// `bin_width` granularity, `num_bins` regular bins plus one overflow.
    pub fn new(bin_width: SimDuration, num_bins: usize) -> Self {
        assert!(!bin_width.is_zero() && num_bins > 0);
        DurationHistogram {
            bin_width,
            bins: vec![0; num_bins],
            count: 0,
        }
    }

    pub fn record(&mut self, d: SimDuration) {
        let idx = (d.as_micros() / self.bin_width.as_micros()) as usize;
        if let Some(bin) = self.bins.get_mut(idx) {
            *bin += 1;
        }
        self.count += 1;
    }

    /// Approximate percentile (`q` in `[0, 1]`): upper edge of the bin holding
    /// the q-quantile observation. Overflowed observations report the
    /// histogram's upper bound.
    pub fn percentile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_micros(self.bin_width.as_micros() * (i as u64 + 1));
            }
        }
        SimDuration::from_micros(self.bin_width.as_micros() * self.bins.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.record(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut whole = Welford::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut a = Welford::new();
        let mut b = Welford::new();
        xs[..37].iter().for_each(|&x| a.record(x));
        xs[37..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 4.0); // 0 for 10s
        tw.set(SimTime::from_secs(20), 2.0); // 4 for 10s
                                             // 2 for 10s -> query at t=30
        let avg = tw.average(SimTime::from_secs(30));
        assert!((avg - (0.0 * 10.0 + 4.0 * 10.0 + 2.0 * 10.0) / 30.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_window_reset() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.set(SimTime::from_secs(5), 3.0);
        tw.reset_window(SimTime::from_secs(10));
        let avg = tw.average(SimTime::from_secs(20));
        assert!((avg - 3.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_tracker_basic() {
        let mut u = UtilizationTracker::new(SimTime::ZERO, 2.0);
        u.set_busy(SimTime::ZERO, 2.0); // both servers busy from t=0
        u.set_busy(SimTime::from_secs(5), 1.0); // one frees at t=5
        let util = u.utilization(SimTime::from_secs(10));
        // busy-integral = 2*5 + 1*5 = 15; capacity*window = 20.
        assert!((util - 0.75).abs() < 1e-9);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = DurationHistogram::new(SimDuration::from_millis(1), 100);
        for ms in 1..=100u64 {
            h.record(SimDuration::from_millis(ms) - SimDuration::from_micros(1));
        }
        let p50 = h.percentile(0.5);
        assert_eq!(p50, SimDuration::from_millis(50));
        let p99 = h.percentile(0.99);
        assert_eq!(p99, SimDuration::from_millis(99));
    }

    #[test]
    fn histogram_overflow_reports_upper_bound() {
        let mut h = DurationHistogram::new(SimDuration::from_millis(1), 10);
        assert_eq!(h.percentile(0.5), SimDuration::ZERO);
        h.record(SimDuration::from_secs(5));
        assert_eq!(h.percentile(0.5), SimDuration::from_millis(10));
    }
}
