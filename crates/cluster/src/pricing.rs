//! System pricing: the TPC-W Dollars/WIPS metric.
//!
//! TPC-W's two primary metrics are WIPS and a price/performance ratio,
//! Dollars/WIPS (§II.C of the paper). This module prices a cluster the
//! TPC way — total cost of ownership of every component — so experiments
//! can report both metrics and capacity planning can trade throughput
//! against cost.

use crate::config::{Role, Topology};

/// Component prices in dollars (2002-era defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceList {
    /// One commodity dual-CPU server.
    pub(crate) server: f64,
    /// Per-machine share of the switch/network infrastructure.
    pub(crate) network_per_node: f64,
    /// Software licensing per node of each tier (open-source = 0, but
    /// support contracts are real).
    pub(crate) proxy_software: f64,
    pub(crate) app_software: f64,
    pub(crate) db_software: f64,
    /// Fixed costs: racks, console, installation.
    pub(crate) fixed: f64,
}

impl PriceList {
    /// Defaults matching the paper's environment: commodity dual-Athlon
    /// boxes (~$2,500 in 2002), cheap 100 Mbps switching, open-source
    /// software with modest support pricing.
    pub fn hpdc04() -> Self {
        PriceList {
            server: 2_500.0,
            network_per_node: 150.0,
            proxy_software: 0.0,
            app_software: 250.0,
            db_software: 500.0,
            fixed: 2_000.0,
        }
    }

    fn software_for(&self, role: Role) -> f64 {
        match role {
            Role::Proxy => self.proxy_software,
            Role::App => self.app_software,
            Role::Db => self.db_software,
        }
    }

    /// Total system cost of a topology (plus `extra_nodes` non-serving
    /// machines, e.g. the load generators, which TPC-W prices too).
    pub fn system_cost(&self, topology: &Topology, extra_nodes: usize) -> f64 {
        let servers = topology.len() + extra_nodes;
        let hardware = servers as f64 * (self.server + self.network_per_node);
        let software: f64 = topology.roles().iter().map(|r| self.software_for(*r)).sum();
        self.fixed + hardware + software
    }

    /// The TPC-W price/performance metric.
    pub fn dollars_per_wips(&self, topology: &Topology, extra_nodes: usize, wips: f64) -> f64 {
        if wips <= 0.0 {
            f64::INFINITY
        } else {
            self.system_cost(topology, extra_nodes) / wips
        }
    }
}

impl Default for PriceList {
    fn default() -> Self {
        PriceList::hpdc04()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_cost() {
        let prices = PriceList::hpdc04();
        let t = Topology::tiers(1, 1, 1).unwrap();
        // 3 servers + 1 EB machine, software 0 + 250 + 500, fixed 2000.
        let expected = 2_000.0 + 4.0 * (2_500.0 + 150.0) + 750.0;
        assert!((prices.system_cost(&t, 1) - expected).abs() < 1e-9);
    }

    #[test]
    fn dollars_per_wips_scales() {
        let prices = PriceList::hpdc04();
        let t = Topology::tiers(1, 1, 1).unwrap();
        let at_100 = prices.dollars_per_wips(&t, 1, 100.0);
        let at_200 = prices.dollars_per_wips(&t, 1, 200.0);
        assert!((at_100 / at_200 - 2.0).abs() < 1e-9);
        assert!(prices.dollars_per_wips(&t, 1, 0.0).is_infinite());
    }

    #[test]
    fn bigger_cluster_costs_more() {
        let prices = PriceList::hpdc04();
        let small = Topology::tiers(1, 1, 1).unwrap();
        let big = Topology::tiers(3, 3, 2).unwrap();
        assert!(prices.system_cost(&big, 1) > prices.system_cost(&small, 1));
    }

    #[test]
    fn reconfiguration_does_not_change_hardware_cost() {
        // Moving a node between tiers changes only software licensing.
        let prices = PriceList::hpdc04();
        let before = Topology::tiers(4, 2, 1).unwrap();
        let after = before.reassign(0, Role::App).unwrap();
        let delta = prices.system_cost(&after, 0) - prices.system_cost(&before, 0);
        assert!(
            (delta - (prices.app_software - prices.proxy_software)).abs() < 1e-9,
            "delta {delta}"
        );
    }
}
