//! Noise-spike re-measurement gate.

/// Rejects samples whose confidence interval exploded (a noise spike or a
/// mid-measurement fault): the sample is re-measured instead of being fed
/// to the tuner, up to `max_remeasures` times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierGate {
    /// Maximum acceptable `ci_half / wips` ratio.
    pub(crate) max_rel_half_width: f64,
    /// Re-measurement budget per sample.
    pub max_remeasures: u32,
}

impl Default for OutlierGate {
    fn default() -> Self {
        OutlierGate {
            max_rel_half_width: 0.25,
            max_remeasures: 2,
        }
    }
}

impl OutlierGate {
    /// Does the sample's confidence interval pass the gate?
    pub fn accepts(&self, wips: f64, ci_half: f64) -> bool {
        if wips <= 0.0 {
            return ci_half <= 0.0;
        }
        ci_half / wips <= self.max_rel_half_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outlier_gate_rejects_wide_intervals() {
        let g = OutlierGate::default();
        assert!(g.accepts(100.0, 10.0));
        assert!(!g.accepts(100.0, 40.0));
        assert!(g.accepts(0.0, 0.0), "dead-but-certain sample passes");
        assert!(!g.accepts(0.0, 5.0));
    }
}
