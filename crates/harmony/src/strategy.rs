//! Cluster tuning methods (§III.B).
//!
//! The method names follow Table 4:
//!
//! * **None** — the untuned default configuration (baseline row).
//! * **Default method** — one Harmony server tunes every parameter of
//!   every node (n grows with the cluster; slow but fully general).
//! * **Parameter duplication** — one server per *tier* tunes a single
//!   node's parameters and the values are replicated across the tier.
//!   Assumes homogeneous nodes and evenly-balanced load.
//! * **Parameter partitioning** — one server per *work line* (see
//!   [`crate::workline`]), each fed by its own line's throughput.
//! * **Hybrid** — the paper's future-work idea: duplication first for
//!   fast coarse convergence, then per-line servers for fine tuning.
//!
//! The actual wiring of spaces to cluster nodes lives in the orchestrator
//! crate; this module defines the method vocabulary shared by reports.

use std::fmt;

/// A cluster tuning method from Table 4 (plus the future-work hybrid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuningMethod {
    /// No tuning: defaults throughout.
    None,
    /// Single Harmony server for all parameters of all nodes.
    Default,
    /// Tune one node per tier; replicate values across the tier.
    Duplication,
    /// Independent server per work line.
    Partitioning,
    /// Duplication for the first phase, then partitioning.
    Hybrid,
}

impl TuningMethod {
    pub const ALL: [TuningMethod; 5] = [
        TuningMethod::None,
        TuningMethod::Default,
        TuningMethod::Duplication,
        TuningMethod::Partitioning,
        TuningMethod::Hybrid,
    ];

    /// Table 4 row label.
    pub fn label(self) -> &'static str {
        match self {
            TuningMethod::None => "None (No Tuning)",
            TuningMethod::Default => "Default method",
            TuningMethod::Duplication => "Parameter duplication",
            TuningMethod::Partitioning => "Parameter partitioning",
            TuningMethod::Hybrid => "Hybrid (duplication + partitioning)",
        }
    }
}

impl fmt::Display for TuningMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_table4() {
        assert_eq!(TuningMethod::None.label(), "None (No Tuning)");
        assert_eq!(TuningMethod::Default.label(), "Default method");
        assert_eq!(TuningMethod::Duplication.label(), "Parameter duplication");
        assert_eq!(TuningMethod::Partitioning.label(), "Parameter partitioning");
    }
}
