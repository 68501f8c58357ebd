//! Tunable-parameter definitions.
//!
//! Active Harmony treats each tunable parameter as one dimension of a
//! bounded integer search space. Applications register parameters with a
//! name, an inclusive `[min, max]` range, and a default (starting) value.

use std::fmt;

/// One tunable parameter: a bounded integer dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDef {
    /// Human-readable name, e.g. `"proxy0.cache_mem"`.
    pub name: String,
    /// Inclusive lower bound.
    pub min: i64,
    /// Inclusive upper bound.
    pub max: i64,
    /// Starting value (the system's default configuration).
    pub(crate) default: i64,
}

impl ParamDef {
    /// Create a definition; panics if the range is empty or the default
    /// falls outside it (programming error, not runtime input).
    pub fn new(name: impl Into<String>, min: i64, max: i64, default: i64) -> Self {
        let name = name.into();
        assert!(min <= max, "{name}: empty range [{min}, {max}]");
        assert!(
            (min..=max).contains(&default),
            "{name}: default {default} outside [{min}, {max}]"
        );
        ParamDef {
            name,
            min,
            max,
            default,
        }
    }

    /// Width of the range (number of representable steps).
    pub fn span(&self) -> i64 {
        self.max - self.min
    }

    /// Clamp a raw value into range.
    pub(crate) fn clamp(&self, v: i64) -> i64 {
        v.clamp(self.min, self.max)
    }

    /// Clamp a continuous value and round to the nearest integer in range.
    /// This is the paper's adaptation of Nelder–Mead to a discrete space:
    /// "using the resulting values from the nearest integer point".
    pub(crate) fn project(&self, v: f64) -> i64 {
        if v.is_nan() {
            return self.default;
        }
        let r = v.round();
        if r <= self.min as f64 {
            self.min
        } else if r >= self.max as f64 {
            self.max
        } else {
            r as i64
        }
    }

    /// True if `v` lies in range.
    pub(crate) fn contains(&self, v: i64) -> bool {
        (self.min..=self.max).contains(&v)
    }
}

impl fmt::Display for ParamDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ∈ [{}, {}] (default {})",
            self.name, self.min, self.max, self.default
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let p = ParamDef::new("cache_mem", 1, 64, 8);
        assert_eq!(p.span(), 63);
        assert!(p.contains(1) && p.contains(64) && !p.contains(0));
        assert_eq!(format!("{p}"), "cache_mem ∈ [1, 64] (default 8)");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        ParamDef::new("x", 5, 4, 5);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn default_out_of_range_panics() {
        ParamDef::new("x", 0, 10, 11);
    }

    #[test]
    fn clamp_and_project() {
        let p = ParamDef::new("x", -10, 10, 0);
        assert_eq!(p.clamp(-100), -10);
        assert_eq!(p.clamp(100), 10);
        assert_eq!(p.project(3.4), 3);
        assert_eq!(p.project(3.6), 4);
        assert_eq!(p.project(-3.5), -4); // f64::round: away from zero
        assert_eq!(p.project(1e18), 10);
        assert_eq!(p.project(-1e18), -10);
        assert_eq!(p.project(f64::NAN), 0);
    }

    #[test]
    fn degenerate_single_point_range() {
        let p = ParamDef::new("fixed", 7, 7, 7);
        assert_eq!(p.span(), 0);
        assert_eq!(p.project(123.0), 7);
    }
}
