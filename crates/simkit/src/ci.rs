//! Confidence intervals for simulation output analysis.
//!
//! Student-t confidence intervals over independent replications (seeds).

use crate::stats::Welford;

/// Two-sided Student-t critical value for the given degrees of freedom at
/// 95% confidence (table for small df, normal approximation beyond).
pub(crate) fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// A mean with its 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    pub mean: f64,
    pub half_width: f64,
    pub samples: u64,
}

impl ConfidenceInterval {
    /// Relative half-width (precision of the estimate).
    ///
    /// A near-zero mean is degenerate for a *relative* measure, so it is
    /// resolved by the half-width alone: a degenerate-but-tight interval
    /// (every replication measured ~0, e.g. a crashed configuration's
    /// WIPS) reports `0.0` — perfectly precise, sequential sampling must
    /// stop — while a degenerate wide or undefined (NaN) interval
    /// reports `INFINITY`, never a negative value and never NaN.
    pub fn relative_precision(&self) -> f64 {
        const EPS: f64 = 1e-12;
        if self.half_width.is_nan() || self.mean.is_nan() {
            return f64::INFINITY;
        }
        if self.mean.abs() < EPS {
            return if self.half_width.abs() < EPS {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.half_width / self.mean.abs()).abs()
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2}", self.mean, self.half_width)
    }
}

/// 95% CI over independent replications.
pub fn replication_ci(samples: &[f64]) -> ConfidenceInterval {
    let mut w = Welford::new();
    samples.iter().for_each(|&x| w.record(x));
    let n = w.count();
    let half_width = if n < 2 {
        f64::INFINITY
    } else {
        t_critical_95(n - 1) * w.std_dev() / (n as f64).sqrt()
    };
    ConfidenceInterval {
        mean: w.mean(),
        half_width,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_table_known_values() {
        assert_eq!(t_critical_95(1), 12.706);
        assert_eq!(t_critical_95(10), 2.228);
        assert_eq!(t_critical_95(30), 2.042);
        assert_eq!(t_critical_95(1_000), 1.960);
        assert!(t_critical_95(0).is_infinite());
        // Monotone decreasing.
        let mut last = f64::INFINITY;
        for df in 1..200 {
            let t = t_critical_95(df);
            assert!(t <= last + 1e-12, "df {df}");
            last = t;
        }
    }

    #[test]
    fn replication_ci_hand_computed() {
        // Samples 1..5: mean 3, sd sqrt(2.5), n=5, t(4)=2.776.
        let ci = replication_ci(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((ci.mean - 3.0).abs() < 1e-12);
        let expected = 2.776 * (2.5f64).sqrt() / (5f64).sqrt();
        assert!((ci.half_width - expected).abs() < 1e-9);
    }

    #[test]
    fn single_sample_is_unbounded() {
        let ci = replication_ci(&[7.0]);
        assert_eq!(ci.mean, 7.0);
        assert!(ci.half_width.is_infinite());
    }

    #[test]
    fn display_and_precision() {
        let ci = ConfidenceInterval {
            mean: 100.0,
            half_width: 5.0,
            samples: 10,
        };
        assert_eq!(format!("{ci}"), "100.00 ± 5.00");
        assert!((ci.relative_precision() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_mean_precision_resolves_by_half_width() {
        // Regression: an all-zeros sample (a crashed configuration
        // measured over replications) used to report INFINITY, so
        // sequential sampling burnt its whole replication budget on a
        // sample that could not get any more precise.
        let dead = replication_ci(&[0.0, 0.0, 0.0]);
        assert_eq!(dead.mean, 0.0);
        assert_eq!(dead.half_width, 0.0);
        assert_eq!(dead.relative_precision(), 0.0);
        // A zero mean with genuine spread is still unbounded: the
        // relative measure is undefined, not satisfied.
        let mixed = replication_ci(&[-5.0, 5.0]);
        assert!(mixed.mean.abs() < 1e-12);
        assert!(mixed.relative_precision().is_infinite());
        // NaN anywhere never reports precise.
        let nan = ConfidenceInterval {
            mean: f64::NAN,
            half_width: 1.0,
            samples: 3,
        };
        assert!(nan.relative_precision().is_infinite());
        let nan_hw = ConfidenceInterval {
            mean: 4.0,
            half_width: f64::NAN,
            samples: 3,
        };
        assert!(nan_hw.relative_precision().is_infinite());
    }
}
