//! Resource-utilization monitoring (input to the reconfiguration
//! algorithm).
//!
//! The Active Harmony system monitors CPU load, memory usage, network
//! bandwidth and disk I/O on every node (§IV). Since reconfiguration
//! reacts to longer-term trends, the monitor aggregates per-iteration
//! snapshots with an exponential moving average before the algorithm reads
//! them.

/// The four monitored resources, in urgency order (most urgent first by
/// default — an overloaded CPU hurts more than a busy NIC; §IV footnote 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Resource {
    Cpu,
    Disk,
    Net,
    Mem,
}

impl Resource {
    pub(crate) const ALL: [Resource; 4] =
        [Resource::Cpu, Resource::Disk, Resource::Net, Resource::Mem];

    /// Default urgency weight (higher = relieved first).
    pub(crate) fn urgency_weight(self) -> f64 {
        match self {
            Resource::Cpu => 4.0,
            Resource::Disk => 3.0,
            Resource::Mem => 2.0,
            Resource::Net => 1.0,
        }
    }
}

/// One node's utilization snapshot: `R_ij` for the four resources.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilizationSnapshot {
    pub cpu: f64,
    pub disk: f64,
    pub net: f64,
    pub mem: f64,
}

impl UtilizationSnapshot {
    pub(crate) fn get(&self, r: Resource) -> f64 {
        match r {
            Resource::Cpu => self.cpu,
            Resource::Disk => self.disk,
            Resource::Net => self.net,
            Resource::Mem => self.mem,
        }
    }

    pub(crate) fn set(&mut self, r: Resource, v: f64) {
        match r {
            Resource::Cpu => self.cpu = v,
            Resource::Disk => self.disk = v,
            Resource::Net => self.net = v,
            Resource::Mem => self.mem = v,
        }
    }
}

/// Exponential-moving-average monitor over all nodes.
#[derive(Debug, Clone)]
pub struct UtilizationMonitor {
    alpha: f64,
    nodes: Vec<UtilizationSnapshot>,
    samples: u64,
}

impl UtilizationMonitor {
    /// `alpha` is the EMA weight of the newest sample (0 < alpha <= 1).
    pub fn new(node_count: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        UtilizationMonitor {
            alpha,
            nodes: vec![UtilizationSnapshot::default(); node_count],
            samples: 0,
        }
    }

    /// Feed one iteration's snapshots (one per node, aligned by index).
    pub fn observe(&mut self, snapshots: &[UtilizationSnapshot]) {
        assert_eq!(snapshots.len(), self.nodes.len(), "node count changed");
        let a = if self.samples == 0 { 1.0 } else { self.alpha };
        for (ema, s) in self.nodes.iter_mut().zip(snapshots) {
            for r in Resource::ALL {
                let v = (1.0 - a) * ema.get(r) + a * s.get(r);
                ema.set(r, v);
            }
        }
        self.samples += 1;
    }

    /// Current smoothed view of every node.
    pub fn smoothed(&self) -> &[UtilizationSnapshot] {
        &self.nodes
    }

    /// Reset after a reconfiguration (old trends no longer apply).
    pub fn reset(&mut self, node_count: usize) {
        self.nodes = vec![UtilizationSnapshot::default(); node_count];
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cpu: f64) -> UtilizationSnapshot {
        UtilizationSnapshot {
            cpu,
            disk: 0.1,
            net: 0.1,
            mem: 0.1,
        }
    }

    #[test]
    fn first_sample_initialises_directly() {
        let mut m = UtilizationMonitor::new(2, 0.3);
        m.observe(&[snap(0.8), snap(0.2)]);
        assert_eq!(m.smoothed()[0].cpu, 0.8);
        assert_eq!(m.smoothed()[1].cpu, 0.2);
    }

    #[test]
    fn ema_converges_toward_steady_signal() {
        let mut m = UtilizationMonitor::new(1, 0.3);
        m.observe(&[snap(0.0)]);
        for _ in 0..50 {
            m.observe(&[snap(1.0)]);
        }
        assert!(m.smoothed()[0].cpu > 0.99);
    }

    #[test]
    fn ema_smooths_spikes() {
        let mut m = UtilizationMonitor::new(1, 0.2);
        m.observe(&[snap(0.5)]);
        m.observe(&[snap(1.0)]); // single spike
        let v = m.smoothed()[0].cpu;
        assert!((0.59..0.61).contains(&v), "v = {v}");
    }

    #[test]
    fn reset_clears_state() {
        let mut m = UtilizationMonitor::new(1, 0.5);
        m.observe(&[snap(0.9)]);
        m.reset(3);
        assert_eq!(m.smoothed().len(), 3);
        assert_eq!(m.samples, 0);
        assert_eq!(m.smoothed()[0].cpu, 0.0);
    }

    #[test]
    fn snapshot_accessors_roundtrip() {
        let mut s = UtilizationSnapshot::default();
        for (i, r) in Resource::ALL.iter().enumerate() {
            s.set(*r, i as f64 * 0.1);
        }
        for (i, r) in Resource::ALL.iter().enumerate() {
            assert_eq!(s.get(*r), i as f64 * 0.1);
        }
    }

    #[test]
    fn urgency_order_cpu_first() {
        assert!(Resource::Cpu.urgency_weight() > Resource::Disk.urgency_weight());
        assert!(Resource::Disk.urgency_weight() > Resource::Net.urgency_weight());
    }

    #[test]
    #[should_panic(expected = "node count changed")]
    fn observe_with_wrong_arity_panics() {
        let mut m = UtilizationMonitor::new(2, 0.5);
        m.observe(&[snap(0.5)]);
    }
}
