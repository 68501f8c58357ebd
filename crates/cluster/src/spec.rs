//! Hardware specification of cluster nodes (Table 2 of the paper).

use simkit::time::SimDuration;

/// Hardware of one cluster machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Number of processors (paper: dual Athlon).
    pub cores: u32,
    /// Relative CPU speed multiplier (1.0 = the paper's 1.67 GHz Athlon).
    /// Service demands in the workload profiles are expressed at 1.0.
    pub cpu_scale: f64,
    /// Physical memory in MB (paper: 1 GByte).
    pub memory_mb: f64,
    /// Average disk positioning time per random I/O.
    pub disk_seek: SimDuration,
    /// Sequential disk transfer rate, MB/s.
    pub disk_mb_per_s: f64,
    /// Network interface rate, Mbit/s (paper: 100 Mbps Ethernet).
    pub nic_mbps: f64,
}

impl NodeSpec {
    /// The paper's machines: dual 1.67 GHz, 1 GB, 100 Mbps.
    pub fn hpdc04() -> Self {
        NodeSpec {
            cores: 2,
            cpu_scale: 1.0,
            memory_mb: 1024.0,
            // 2002-era IDE disk: ~9 ms average positioning (seek +
            // rotational latency), ~40 MB/s sequential.
            disk_seek: SimDuration::from_millis_f64(9.0),
            disk_mb_per_s: 40.0,
            nic_mbps: 100.0,
        }
    }

    /// Time to move `bytes` over the NIC (transfer only, no queueing).
    pub(crate) fn nic_transfer(&self, bytes: u64) -> SimDuration {
        let secs = bytes as f64 * 8.0 / (self.nic_mbps * 1e6);
        SimDuration::from_secs_f64(secs)
    }

    /// Time for one random disk I/O of `bytes`.
    pub(crate) fn disk_io(&self, bytes: u64) -> SimDuration {
        let xfer = bytes as f64 / (self.disk_mb_per_s * 1e6);
        self.disk_seek + SimDuration::from_secs_f64(xfer)
    }

    /// Time for a sequential append of `bytes` (log flushes): transfer plus
    /// a small fixed latency, no positioning cost.
    pub(crate) fn disk_seq_write(&self, bytes: u64) -> SimDuration {
        let xfer = bytes as f64 / (self.disk_mb_per_s * 1e6);
        SimDuration::from_micros(300) + SimDuration::from_secs_f64(xfer)
    }

    /// Scale a CPU demand expressed at reference speed to this node.
    pub(crate) fn cpu_time(&self, demand: SimDuration) -> SimDuration {
        demand.mul_f64(1.0 / self.cpu_scale.max(1e-9))
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("node needs at least one core".into());
        }
        if self.cpu_scale <= 0.0 {
            return Err("cpu_scale must be positive".into());
        }
        if self.memory_mb <= 0.0 {
            return Err("memory must be positive".into());
        }
        if self.disk_mb_per_s <= 0.0 || self.nic_mbps <= 0.0 {
            return Err("disk/NIC rates must be positive".into());
        }
        Ok(())
    }
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec::hpdc04()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpdc04_matches_table2() {
        let s = NodeSpec::hpdc04();
        assert_eq!(s.cores, 2);
        assert_eq!(s.memory_mb, 1024.0);
        assert_eq!(s.nic_mbps, 100.0);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn nic_transfer_scales_linearly() {
        let s = NodeSpec::hpdc04();
        // 100 Mbps = 12.5 MB/s; 12_500 bytes take 1 ms.
        assert_eq!(s.nic_transfer(12_500), SimDuration::from_millis(1));
        assert_eq!(s.nic_transfer(0), SimDuration::ZERO);
    }

    #[test]
    fn disk_io_includes_seek() {
        let s = NodeSpec::hpdc04();
        let t = s.disk_io(40_000); // 1 ms transfer at 40 MB/s + 9 ms seek
        assert_eq!(t, SimDuration::from_millis(10));
    }

    #[test]
    fn seq_write_has_no_seek() {
        let s = NodeSpec::hpdc04();
        let seq = s.disk_seq_write(40_000);
        let rand = s.disk_io(40_000);
        assert!(seq < rand);
        assert_eq!(seq, SimDuration::from_micros(1_300));
    }

    #[test]
    fn cpu_time_scales_inversely_with_speed() {
        let mut s = NodeSpec::hpdc04();
        s.cpu_scale = 2.0;
        assert_eq!(
            s.cpu_time(SimDuration::from_millis(10)),
            SimDuration::from_millis(5)
        );
    }

    #[test]
    fn validate_rejects_nonsense() {
        let mut s = NodeSpec::hpdc04();
        s.cores = 0;
        assert!(s.validate().is_err());
        let mut s = NodeSpec::hpdc04();
        s.cpu_scale = 0.0;
        assert!(s.validate().is_err());
        let mut s = NodeSpec::hpdc04();
        s.memory_mb = -5.0;
        assert!(s.validate().is_err());
    }
}
