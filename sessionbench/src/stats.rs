//! Nearest-rank order statistics for benchmark samples.
//!
//! Every percentile is one of the measured samples (no interpolation),
//! so a median or quartile always reads as a number some run actually
//! produced.

/// The `q`-quantile (`0 < q <= 1`) of `samples` by the nearest-rank
/// method: the smallest sample with at least `q·n` samples at or below
/// it. `None` for an empty input; NaNs sort last.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Mean of the samples above the nearest-rank `q`-quantile: the
/// largest `n - ceil(q·n)` of them, at least one. `None` for an empty
/// input.
pub fn tail_mean(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let below = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    let tail = &sorted[below.min(n - 1)..];
    Some(tail.iter().sum::<f64>() / tail.len() as f64)
}

/// First quartile, median and third quartile (nearest rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(samples: &[f64]) -> Option<Quartiles> {
        Some(Quartiles {
            q1: percentile(samples, 0.25)?,
            median: percentile(samples, 0.5)?,
            q3: percentile(samples, 0.75)?,
            n: samples.len(),
        })
    }

    /// Inter-quartile distance as a share of the median (`inf` when the
    /// median is zero and the quartiles differ).
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 0.05), Some(15.0));
        assert_eq!(percentile(&xs, 0.30), Some(20.0));
        assert_eq!(percentile(&xs, 0.40), Some(20.0));
        assert_eq!(percentile(&xs, 0.50), Some(35.0));
        assert_eq!(percentile(&xs, 1.0), Some(50.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn order_of_input_does_not_matter() {
        let xs = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        assert_eq!(percentile(&xs, 0.9), Some(9.0));
        assert_eq!(percentile(&xs, 0.5), Some(5.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
    }

    #[test]
    fn tail_mean_averages_the_samples_beyond_the_percentile() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // ceil(0.9 * 40) = 36 samples at or below p90; the mean of 37..=40.
        assert_eq!(tail_mean(&xs, 0.9), Some(38.5));
        // Thirty samples leave three beyond p90.
        let ys: Vec<f64> = (1..=30).rev().map(f64::from).collect();
        assert_eq!(tail_mean(&ys, 0.9), Some(29.0));
        // Never an empty tail.
        assert_eq!(tail_mean(&[3.0, 1.0, 2.0], 1.0), Some(3.0));
        assert_eq!(tail_mean(&[], 0.9), None);
    }

    #[test]
    fn quartiles_and_spread() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.0, 2.0, 3.0, 4));
        assert_eq!(q.spread(), 1.0);
        let flat = Quartiles::of(&[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(flat.spread(), 0.0);
        assert_eq!(Quartiles::of(&[]), None);
    }
}
