//! Per-node health state.

/// Service-time multipliers applied by a degraded node, all ≥ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slowdown {
    pub cpu: f64,
    pub disk: f64,
    pub nic: f64,
}

impl Slowdown {
    /// No slowdown on any resource.
    pub(crate) const NONE: Slowdown = Slowdown {
        cpu: 1.0,
        disk: 1.0,
        nic: 1.0,
    };
}

impl Default for Slowdown {
    fn default() -> Self {
        Slowdown::NONE
    }
}

/// The health of one cluster node.
///
/// `Down` nodes refuse new work (in-flight requests drain); `Degraded`
/// nodes serve but with their service times scaled by the slowdown
/// factors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Health {
    #[default]
    Up,
    Degraded(Slowdown),
    Down,
}

impl Health {
    pub fn is_down(&self) -> bool {
        matches!(self, Health::Down)
    }

    pub(crate) fn is_up(&self) -> bool {
        matches!(self, Health::Up)
    }

    /// CPU service-time multiplier (1.0 unless degraded).
    pub fn cpu_factor(&self) -> f64 {
        match self {
            Health::Degraded(s) => s.cpu,
            _ => 1.0,
        }
    }

    /// Disk service-time multiplier (1.0 unless degraded).
    pub fn disk_factor(&self) -> f64 {
        match self {
            Health::Degraded(s) => s.disk,
            _ => 1.0,
        }
    }

    /// NIC transfer-time multiplier (1.0 unless degraded).
    pub fn nic_factor(&self) -> f64 {
        match self {
            Health::Degraded(s) => s.nic,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_healthy() {
        assert_eq!(Health::default(), Health::Up);
        assert_eq!(Slowdown::default(), Slowdown::NONE);
        assert!(Health::Up.is_up());
        assert!(!Health::Up.is_down());
    }

    #[test]
    fn factors_reflect_slowdown() {
        let h = Health::Degraded(Slowdown {
            cpu: 2.0,
            disk: 3.0,
            nic: 4.0,
        });
        assert_eq!(h.cpu_factor(), 2.0);
        assert_eq!(h.disk_factor(), 3.0);
        assert_eq!(h.nic_factor(), 4.0);
        assert_eq!(Health::Up.cpu_factor(), 1.0);
        assert_eq!(Health::Down.nic_factor(), 1.0);
    }
}
