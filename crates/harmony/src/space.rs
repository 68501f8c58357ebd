//! The tuning search space and points within it.

use crate::param::ParamDef;
use std::fmt;
use std::sync::Arc;

/// A bounded integer search space: one [`ParamDef`] per dimension.
///
/// Cheap to clone (the definitions are shared behind an `Arc`).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpace {
    defs: Arc<Vec<ParamDef>>,
}

impl ParamSpace {
    pub fn new(defs: Vec<ParamDef>) -> Self {
        assert!(
            !defs.is_empty(),
            "a search space needs at least one dimension"
        );
        ParamSpace {
            defs: Arc::new(defs),
        }
    }

    pub fn dims(&self) -> usize {
        self.defs.len()
    }

    pub fn defs(&self) -> &[ParamDef] {
        &self.defs
    }

    pub fn def(&self, i: usize) -> &ParamDef {
        &self.defs[i]
    }

    /// The default configuration (every parameter at its default).
    pub fn default_config(&self) -> Configuration {
        Configuration {
            values: self.defs.iter().map(|d| d.default).collect(),
        }
    }

    /// Clamp-and-round a continuous point into a valid configuration.
    pub fn project(&self, point: &[f64]) -> Configuration {
        debug_assert_eq!(point.len(), self.dims());
        Configuration {
            values: self
                .defs
                .iter()
                .zip(point)
                .map(|(d, &v)| d.project(v))
                .collect(),
        }
    }

    /// Validate an integer configuration against the bounds.
    pub fn validate(&self, config: &Configuration) -> Result<(), SpaceError> {
        if config.values.len() != self.dims() {
            return Err(SpaceError::Arity(self.dims(), config.values.len()));
        }
        for (i, (d, v)) in self.defs.iter().zip(&config.values).enumerate() {
            if !d.contains(*v) {
                return Err(SpaceError::OutOfBounds(i, *v));
            }
        }
        Ok(())
    }

    /// Clamp an arbitrary integer vector into a valid configuration.
    pub(crate) fn clamp(&self, values: &[i64]) -> Configuration {
        debug_assert_eq!(values.len(), self.dims());
        Configuration {
            values: self
                .defs
                .iter()
                .zip(values)
                .map(|(d, &v)| d.clamp(v))
                .collect(),
        }
    }

    /// Fraction of parameters sitting on a range boundary — the paper's
    /// "extreme values" diagnostic.
    pub fn extremeness(&self, config: &Configuration) -> f64 {
        let on_edge = self
            .defs
            .iter()
            .zip(&config.values)
            .filter(|(d, &v)| d.span() > 0 && (v == d.min || v == d.max))
            .count();
        on_edge as f64 / self.dims() as f64
    }
}

/// A point in a [`ParamSpace`]: one integer value per dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    values: Vec<i64>,
}

impl Configuration {
    /// Build from raw values (validated lazily by the space).
    pub fn from_values(values: Vec<i64>) -> Self {
        Configuration { values }
    }

    pub fn values(&self) -> &[i64] {
        &self.values
    }

    pub fn get(&self, i: usize) -> i64 {
        self.values[i]
    }

    pub fn set(&mut self, i: usize, v: i64) {
        self.values[i] = v;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Continuous view for simplex arithmetic.
    pub fn as_f64(&self) -> Vec<f64> {
        self.values.iter().map(|&v| v as f64).collect()
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Space validation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceError {
    Arity(usize, usize),
    OutOfBounds(usize, i64),
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::Arity(want, got) => write!(f, "expected {want} values, got {got}"),
            SpaceError::OutOfBounds(dim, v) => {
                write!(f, "dimension {dim}: value {v} out of bounds")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDef::new("a", 0, 100, 50),
            ParamDef::new("b", -10, 10, 0),
            ParamDef::new("c", 1, 1, 1),
        ])
    }

    #[test]
    fn default_config() {
        let s = space();
        let c = s.default_config();
        assert_eq!(c.values(), &[50, 0, 1]);
        assert!(s.validate(&c).is_ok());
    }

    #[test]
    fn project_rounds_and_clamps() {
        let s = space();
        let c = s.project(&[49.6, -20.0, 5.0]);
        assert_eq!(c.values(), &[50, -10, 1]);
    }

    #[test]
    fn validate_catches_errors() {
        let s = space();
        assert_eq!(
            s.validate(&Configuration::from_values(vec![0, 0])),
            Err(SpaceError::Arity(3, 2))
        );
        assert_eq!(
            s.validate(&Configuration::from_values(vec![101, 0, 1])),
            Err(SpaceError::OutOfBounds(0, 101))
        );
    }

    #[test]
    fn extremeness_counts_boundary_params() {
        let s = space();
        // Zero-span dim `c` never counts as extreme.
        assert_eq!(
            s.extremeness(&Configuration::from_values(vec![0, 10, 1])),
            2.0 / 3.0
        );
        assert_eq!(s.extremeness(&s.default_config()), 0.0);
    }

    #[test]
    fn clamp_fixes_out_of_range() {
        let s = space();
        let c = s.clamp(&[-5, 99, 42]);
        assert_eq!(c.values(), &[0, 10, 1]);
        assert!(s.validate(&c).is_ok());
    }

    #[test]
    fn roundtrip_f64() {
        let s = space();
        let c = s.default_config();
        let back = s.project(&c.as_f64());
        assert_eq!(c, back);
    }

    #[test]
    fn display_is_compact() {
        let c = Configuration::from_values(vec![1, 2, 3]);
        assert_eq!(format!("{c}"), "[1, 2, 3]");
    }
}
