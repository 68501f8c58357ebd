//! Deterministic pseudo-random number generation for simulations.
//!
//! The hot simulation loop uses a from-scratch xoshiro256** generator seeded
//! through SplitMix64. Rolling our own (rather than pulling `rand` into the
//! engine) keeps the event loop dependency-light and guarantees that a seed
//! produces the identical event sequence forever, independent of external
//! crate version bumps.
//!
//! Streams: [`SimRng::substream`] derives statistically independent child
//! generators from a parent seed, so each model component (browsers, proxy,
//! database, ...) can own its own stream and event interleaving does not
//! perturb per-component draws.

use crate::time::SimDuration;

/// SplitMix64 step: used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Precomputed lognormal shape parameters for a fixed coefficient of
/// variation.
///
/// [`SimRng::lognormal_mean_cv`] re-derives `ln(1 + cv^2)` and its square
/// root on every draw even though every hot call site passes a constant
/// `cv`. Hoisting the derivation preserves bit-equality: the stored values
/// are exactly the ones the per-draw path would compute, and
/// [`SimRng::lognormal_shaped`] performs the identical arithmetic on them
/// in the identical order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LognormalShape {
    sigma2: f64,
    sigma: f64,
}

impl LognormalShape {
    /// Derive the shape for a coefficient of variation. `cv` must be
    /// positive: the `cv == 0` degenerate case of `lognormal_mean_cv`
    /// returns the mean *without consuming a draw*, which a shaped sample
    /// cannot reproduce.
    pub fn from_cv(cv: f64) -> Self {
        debug_assert!(cv > 0.0, "use the mean directly when cv == 0");
        let sigma2 = (1.0 + cv * cv).ln();
        LognormalShape {
            sigma2,
            sigma: sigma2.sqrt(),
        }
    }
}

/// A deterministic xoshiro256** pseudo-random generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; the internal state is expanded through SplitMix64 so it is
    /// never all-zero.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child stream. Children with distinct `stream`
    /// ids (under the same parent) are decorrelated; the parent state is not
    /// advanced.
    pub fn substream(&self, stream: u64) -> SimRng {
        // Mix the parent's state with the stream id through SplitMix64.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// The raw xoshiro256** state, for checkpointing. Restoring via
    /// [`SimRng::from_state`] resumes the exact draw sequence.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a previously captured [`SimRng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        SimRng { s }
    }

    /// Next raw 64 random bits (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in [0, 1) with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    /// Uses Lemire's multiply-shift rejection method (unbiased).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below bound must be > 0");
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn uniform_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi as i128 - lo as i128 + 1) as u128;
        if span > u64::MAX as u128 {
            // Full-range: just take raw bits.
            return self.next_u64() as i64;
        }
        lo.wrapping_add(self.next_below(span as u64) as i64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Guard against ln(0): next_f64 is in [0,1), so 1-u is in (0,1].
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64().max(1e-12)))
    }

    /// Standard normal via Box–Muller (one value per call; simple and
    /// branch-free enough for our volumes).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Lognormal parameterised by the mean and coefficient of variation of
    /// the *resulting* distribution (convenient for service times).
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        debug_assert!(mean > 0.0 && cv >= 0.0);
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.standard_normal()).exp()
    }

    /// Sample from a precomputed [`LognormalShape`] — bit-identical to
    /// [`SimRng::lognormal_mean_cv`] with the shape's `cv`, minus the
    /// per-draw `ln`/`sqrt` parameter derivation.
    #[inline]
    pub fn lognormal_shaped(&mut self, shape: LognormalShape, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let mu = mean.ln() - shape.sigma2 / 2.0;
        (mu + shape.sigma * self.standard_normal()).exp()
    }

    /// Sample an index from non-negative weights (at least one positive).
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        debug_assert!(total > 0.0, "weighted_index needs a positive total weight");
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        // Floating-point slack: fall back to the last positive weight
        // (index 0 if every weight is zero, which the debug_assert above
        // rejects in test builds).
        weights.iter().rposition(|&w| w > 0.0).unwrap_or(0)
    }

    /// Zipf-like sample over `[0, n)` with skew `theta` in `[0, 1)`.
    /// theta = 0 is uniform; larger theta concentrates probability on low
    /// ranks. Used for object popularity (cache working sets).
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        debug_assert!(n > 0);
        if theta <= 0.0 {
            return self.next_below(n);
        }
        // Inverse-CDF approximation for the continuous analogue
        // ("independent reference model" style): rank ~ n * u^(1/(1-theta)).
        let u = self.next_f64();
        let r = (n as f64) * u.powf(1.0 / (1.0 - theta.min(0.999)));
        (r as u64).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_roundtrip_resumes_exact_sequence() {
        let mut r = SimRng::new(99);
        for _ in 0..17 {
            r.next_u64();
        }
        let mut resumed = SimRng::from_state(r.state());
        for _ in 0..100 {
            assert_eq!(r.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn substreams_are_decorrelated_and_stable() {
        let parent = SimRng::new(7);
        let mut c1 = parent.substream(0);
        let mut c2 = parent.substream(1);
        let mut c1_again = parent.substream(0);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c} out of tolerance");
        }
    }

    #[test]
    fn uniform_i64_bounds() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let v = r.uniform_i64(-3, 9);
            assert!((-3..=9).contains(&v));
        }
        // Degenerate range.
        assert_eq!(r.uniform_i64(4, 4), 4);
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exponential(7.0)).sum();
        let mean = sum / n as f64;
        assert!((6.8..7.2).contains(&mean), "mean {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::new(17);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((9.9..10.1).contains(&mean), "mean {mean}");
        assert!((3.8..4.2).contains(&var), "var {var}");
    }

    #[test]
    fn lognormal_mean_cv_matches_target() {
        let mut r = SimRng::new(19);
        let n = 300_000;
        let xs: Vec<f64> = (0..n).map(|_| r.lognormal_mean_cv(5.0, 0.5)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((4.9..5.1).contains(&mean), "mean {mean}");
        assert_eq!(r.lognormal_mean_cv(5.0, 0.0), 5.0);
    }

    #[test]
    fn lognormal_shaped_is_bit_identical_to_mean_cv() {
        for cv in [0.3, 0.6, 0.7, 1.2] {
            let shape = LognormalShape::from_cv(cv);
            let mut a = SimRng::new(77);
            let mut b = SimRng::new(77);
            for i in 0..10_000 {
                let mean = 0.05 + (i % 50) as f64 * 3.17;
                let x = a.lognormal_mean_cv(mean, cv);
                let y = b.lognormal_shaped(shape, mean);
                assert_eq!(x.to_bits(), y.to_bits(), "cv={cv} i={i}");
            }
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut r = SimRng::new(23);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zipf_skews_low_ranks() {
        let mut r = SimRng::new(29);
        let n = 1000u64;
        let mut low = 0usize;
        let trials = 50_000;
        for _ in 0..trials {
            if r.zipf(n, 0.8) < 100 {
                low += 1;
            }
        }
        // With theta=0.8 the low 10% of ranks should collect far more than
        // 10% of the mass.
        assert!(low as f64 / trials as f64 > 0.5, "low fraction {low}");
        // theta=0 falls back to uniform.
        let mut low_u = 0usize;
        for _ in 0..trials {
            if r.zipf(n, 0.0) < 100 {
                low_u += 1;
            }
        }
        let frac = low_u as f64 / trials as f64;
        assert!((0.08..0.12).contains(&frac), "uniform fraction {frac}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(31);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn exp_duration_positive_mean() {
        let mut r = SimRng::new(37);
        let mean = SimDuration::from_secs(7);
        let n = 50_000u64;
        let total: u64 = (0..n).map(|_| r.exp_duration(mean).as_micros()).sum();
        let avg_secs = total as f64 / n as f64 / 1e6;
        assert!((6.7..7.3).contains(&avg_secs), "avg {avg_secs}");
    }
}
