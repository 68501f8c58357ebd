//! Log-bucketed histogram with a lock-free hot path.
//!
//! Values land in one of [`BUCKETS`] power-of-two buckets keyed by the
//! IEEE-754 exponent of the sample, so `record` is a handful of atomic
//! ops and no floating-point log. Bucket 0 collects non-positive and
//! subnormal samples; bucket `i` (for `i >= 1`) covers
//! `[2^(i - 1 - ZERO_BUCKET), 2^(i - ZERO_BUCKET))`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets (1 underflow + 63 exponent ranges, covering
/// roughly `2^-31 .. 2^32` — queue depths, seconds, WIPS all fit).
pub(crate) const BUCKETS: usize = 64;

/// Bucket index whose range starts at `2^0 = 1.0`.
const ZERO_BUCKET: i64 = 32;

struct Core {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// f64 bits, updated with a CAS loop.
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Cloneable handle to a shared histogram.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<Core>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Map a sample to its bucket index.
fn bucket_of(v: f64) -> usize {
    if v.is_nan() || v <= 0.0 {
        return 0;
    }
    if !v.is_finite() {
        return BUCKETS - 1;
    }
    let exp = ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    let idx = exp + ZERO_BUCKET;
    idx.clamp(0, BUCKETS as i64 - 1) as usize
}

/// Lower bound of bucket `i` (`0.0` for the underflow bucket).
pub(crate) fn bucket_lower(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        (2.0f64).powi((i as i64 - ZERO_BUCKET) as i32)
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram {
            core: Arc::new(Core {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0f64.to_bits()),
                min: AtomicU64::new(f64::INFINITY.to_bits()),
                max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            }),
        }
    }

    /// Record one sample. Lock-free; safe from any thread.
    pub fn record(&self, v: f64) {
        let c = &self.core;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        cas_f64(&c.sum, |s| s + v);
        cas_f64(&c.min, |m| m.min(v));
        cas_f64(&c.max, |m| m.max(v));
    }

    /// Copy out the current state.
    pub(crate) fn snapshot(&self) -> HistSnapshot {
        let c = &self.core;
        HistSnapshot {
            buckets: std::array::from_fn(|i| c.buckets[i].load(Ordering::Relaxed)),
            count: c.count.load(Ordering::Relaxed),
            sum: f64::from_bits(c.sum.load(Ordering::Relaxed)),
            min: f64::from_bits(c.min.load(Ordering::Relaxed)),
            max: f64::from_bits(c.max.load(Ordering::Relaxed)),
        }
    }
}

fn cas_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Plain-data copy of a histogram; mergeable across registries.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    pub(crate) buckets: [u64; BUCKETS],
    pub count: u64,
    pub(crate) sum: f64,
    pub(crate) min: f64,
    pub(crate) max: f64,
}

impl HistSnapshot {
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile (`0.0 ..= 1.0`) from the bucket counts: walks
    /// to the bucket holding the target rank and returns its geometric
    /// interior. Exact `min`/`max` are used at the extremes.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = bucket_lower(i).max(self.min.max(0.0));
                let hi = if i + 1 < BUCKETS {
                    bucket_lower(i + 1)
                } else {
                    self.max
                }
                .min(self.max);
                // Geometric midpoint where defined, else arithmetic.
                return if lo > 0.0 && hi > lo {
                    (lo * hi).sqrt()
                } else {
                    (lo + hi) / 2.0
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_powers_of_two() {
        // 1.0 lives in the bucket starting at 2^0.
        assert_eq!(bucket_of(1.0), ZERO_BUCKET as usize);
        assert_eq!(bucket_of(1.5), ZERO_BUCKET as usize);
        assert_eq!(bucket_of(2.0), ZERO_BUCKET as usize + 1);
        assert_eq!(bucket_of(0.5), ZERO_BUCKET as usize - 1);
        assert_eq!(bucket_of(0.75), ZERO_BUCKET as usize - 1);
    }

    #[test]
    fn bucketing_edge_cases() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-3.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(f64::INFINITY), BUCKETS - 1);
        assert_eq!(bucket_of(1e300), BUCKETS - 1);
        assert_eq!(bucket_of(1e-300), 0);
    }

    #[test]
    fn bucket_bounds_bracket_samples() {
        for &v in &[0.001, 0.1, 0.5, 1.0, 3.0, 17.0, 1000.0, 123456.0] {
            let i = bucket_of(v);
            assert!(v >= bucket_lower(i), "{v} < lower of bucket {i}");
            if i + 1 < BUCKETS {
                assert!(v < bucket_lower(i + 1), "{v} >= upper of bucket {i}");
            }
        }
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 10.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn quantile_is_order_of_magnitude_right() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        assert!((250.0..=1000.0).contains(&p50), "p50 = {p50}");
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 1000.0);
    }

    #[test]
    fn concurrent_recording() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(1.0 + (i % 7) as f64);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
    }
}
