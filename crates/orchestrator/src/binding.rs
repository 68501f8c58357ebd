//! Mapping between cluster configurations and Harmony search spaces.
//!
//! Three layouts, one per §III tuning method:
//!
//! * **full** — every tunable of every node is its own dimension
//!   (the paper's "default method": one server, `n` grows with the
//!   cluster);
//! * **tier** — one 23-dimensional space covering one proxy + one web +
//!   one database server; values are *duplicated* across each tier
//!   (parameter duplication) or across one work line's tiers (parameter
//!   partitioning, one such space per line).

use cluster::config::{ClusterConfig, NodeId, NodeParams, Role, Topology};
use cluster::params::{
    DbParams, ProxyParams, WebParams, DB_TUNABLES, PROXY_TUNABLES, WEB_TUNABLES,
};
use harmony::param::ParamDef;
use harmony::space::{Configuration, ParamSpace};

fn defs_for_role(role: Role) -> &'static [cluster::params::TunableDef] {
    match role {
        Role::Proxy => &PROXY_TUNABLES,
        Role::App => &WEB_TUNABLES,
        Role::Db => &DB_TUNABLES,
    }
}

/// Number of tunables a node of `role` contributes.
pub(crate) fn dims_for_role(role: Role) -> usize {
    defs_for_role(role).len()
}

/// The full per-node space for `topology` (default method).
/// Dimension names are `"<role><node>.<param>"`.
pub fn full_space(topology: &Topology) -> ParamSpace {
    let mut defs = Vec::new();
    for (node, role) in topology.roles().iter().enumerate() {
        for t in defs_for_role(*role) {
            defs.push(ParamDef::new(
                format!("{}{}.{}", role.name(), node, t.name),
                t.min,
                t.max,
                t.default,
            ));
        }
    }
    ParamSpace::new(defs)
}

/// Translate a full-space configuration into a [`ClusterConfig`].
pub fn config_from_full(topology: &Topology, c: &Configuration) -> ClusterConfig {
    let mut node_params = Vec::with_capacity(topology.len());
    let mut cursor = 0;
    for role in topology.roles() {
        let n = dims_for_role(*role);
        let slice = &c.values()[cursor..cursor + n];
        node_params.push(params_from_slice(*role, slice));
        cursor += n;
    }
    debug_assert_eq!(cursor, c.len());
    #[allow(clippy::expect_used)]
    ClusterConfig::new(topology, node_params).expect("roles align by construction")
}

/// The 23-dimensional one-node-per-tier space (duplication/partitioning).
/// Dimension names are `"proxy.<p>" / "web.<p>" / "db.<p>"`.
pub fn tier_space() -> ParamSpace {
    let mut defs = Vec::new();
    for (prefix, tunables) in [
        ("proxy", &PROXY_TUNABLES[..]),
        ("web", &WEB_TUNABLES[..]),
        ("db", &DB_TUNABLES[..]),
    ] {
        for t in tunables {
            defs.push(ParamDef::new(
                format!("{prefix}.{}", t.name),
                t.min,
                t.max,
                t.default,
            ));
        }
    }
    ParamSpace::new(defs)
}

/// The per-tier sub-space (for one tuning server per tier, as parameter
/// duplication uses).
pub fn role_space(role: Role) -> ParamSpace {
    let prefix = match role {
        Role::Proxy => "proxy",
        Role::App => "web",
        Role::Db => "db",
    };
    ParamSpace::new(
        defs_for_role(role)
            .iter()
            .map(|t| ParamDef::new(format!("{prefix}.{}", t.name), t.min, t.max, t.default))
            .collect(),
    )
}

/// Split a 23-value tier configuration into typed parameter structs.
// Space bounds guarantee every slice parses; a mismatch is a programmer
// error worth a panic, not a recoverable condition.
#[allow(clippy::expect_used)]
pub(crate) fn split_tier_config(c: &Configuration) -> (ProxyParams, WebParams, DbParams) {
    let v = c.values();
    assert_eq!(v.len(), 23, "tier config must have 23 values");
    let proxy = ProxyParams::from_values(&v[0..7]).expect("bounds enforced by space");
    let web = WebParams::from_values(&v[7..14]).expect("bounds enforced by space");
    let db = DbParams::from_values(&v[14..23]).expect("bounds enforced by space");
    (proxy, web, db)
}

/// Build typed params for one node from its tunable-value slice.
#[allow(clippy::expect_used)]
pub(crate) fn params_from_slice(role: Role, values: &[i64]) -> NodeParams {
    match role {
        Role::Proxy => {
            NodeParams::Proxy(ProxyParams::from_values(values).expect("bounds enforced by space"))
        }
        Role::App => {
            NodeParams::App(WebParams::from_values(values).expect("bounds enforced by space"))
        }
        Role::Db => {
            NodeParams::Db(DbParams::from_values(values).expect("bounds enforced by space"))
        }
    }
}

/// Duplication with per-tier servers: combine one configuration per role.
#[allow(clippy::expect_used)]
pub fn config_from_roles(
    topology: &Topology,
    proxy_c: &Configuration,
    web_c: &Configuration,
    db_c: &Configuration,
) -> ClusterConfig {
    let proxy = ProxyParams::from_values(proxy_c.values()).expect("bounds enforced");
    let web = WebParams::from_values(web_c.values()).expect("bounds enforced");
    let db = DbParams::from_values(db_c.values()).expect("bounds enforced");
    ClusterConfig::uniform(topology, proxy, web, db)
}

/// Partitioning: overwrite the nodes of one work line with the line's
/// tier configuration (duplicated within the line's tiers).
pub fn apply_line_config(
    config: &mut ClusterConfig,
    topology: &Topology,
    line_nodes: &[NodeId],
    c: &Configuration,
) {
    let (proxy, web, db) = split_tier_config(c);
    for &node in line_nodes {
        *config.node_mut(node) = match topology.role(node) {
            Role::Proxy => NodeParams::Proxy(proxy),
            Role::App => NodeParams::App(web),
            Role::Db => NodeParams::Db(db),
        };
    }
}

/// Extract the tier configuration (23 values) that `node_source` nodes of
/// a config currently hold — used to seed partitioned tuning from a
/// duplication result (the hybrid method).
pub(crate) fn tier_config_from(
    config: &ClusterConfig,
    topology: &Topology,
) -> Option<Configuration> {
    let proxy = topology.nodes_in(Role::Proxy).first().copied()?;
    let app = topology.nodes_in(Role::App).first().copied()?;
    let db = topology.nodes_in(Role::Db).first().copied()?;
    let mut values = Vec::with_capacity(23);
    values.extend_from_slice(&config.node(proxy).as_proxy()?.to_values());
    values.extend_from_slice(&config.node(app).as_app()?.to_values());
    values.extend_from_slice(&config.node(db).as_db()?.to_values());
    Some(Configuration::from_values(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_space_dimension_count() {
        let t = Topology::tiers(2, 2, 2).unwrap();
        let s = full_space(&t);
        assert_eq!(s.dims(), 2 * 7 + 2 * 7 + 2 * 9);
        assert_eq!(s.def(0).name, "proxy0.cache_mem");
        assert_eq!(s.def(14).name, "app2.minProcessors");
    }

    #[test]
    fn full_space_default_is_cluster_default() {
        let t = Topology::tiers(1, 2, 1).unwrap();
        let s = full_space(&t);
        let cfg = config_from_full(&t, &s.default_config());
        assert_eq!(cfg, ClusterConfig::defaults(&t));
    }

    #[test]
    fn tier_space_has_23_dims_and_roundtrips() {
        let s = tier_space();
        assert_eq!(s.dims(), 23);
        let (p, w, d) = split_tier_config(&s.default_config());
        assert_eq!(p, ProxyParams::default_config());
        assert_eq!(w, WebParams::default_config());
        assert_eq!(d, DbParams::default_config());
    }

    #[test]
    fn role_spaces_cover_the_tier_space() {
        let p = role_space(Role::Proxy);
        let w = role_space(Role::App);
        let d = role_space(Role::Db);
        assert_eq!(p.dims() + w.dims() + d.dims(), 23);
        let cfg = config_from_roles(
            &Topology::single(),
            &p.default_config(),
            &w.default_config(),
            &d.default_config(),
        );
        assert_eq!(cfg, ClusterConfig::defaults(&Topology::single()));
    }

    #[test]
    fn apply_line_config_touches_only_line_nodes() {
        let t = Topology::tiers(2, 2, 2).unwrap();
        let mut cfg = ClusterConfig::defaults(&t);
        let s = tier_space();
        let mut c = s.default_config();
        c.set(0, 60); // proxy.cache_mem
        apply_line_config(&mut cfg, &t, &[0, 2, 4], &c);
        assert_eq!(cfg.node(0).as_proxy().unwrap().cache_mem, 60);
        assert_eq!(
            cfg.node(1).as_proxy().unwrap().cache_mem,
            8,
            "other line untouched"
        );
        assert_eq!(cfg.node(2).as_app().unwrap().max_processors, 20);
    }

    #[test]
    fn tier_config_from_extracts_first_nodes() {
        let t = Topology::tiers(2, 1, 1).unwrap();
        let mut cfg = ClusterConfig::defaults(&t);
        if let NodeParams::Proxy(p) = cfg.node_mut(0) {
            p.cache_mem = 21;
        }
        let c = tier_config_from(&cfg, &t).unwrap();
        assert_eq!(c.get(0), 21);
        assert_eq!(c.len(), 23);
    }

    #[test]
    fn full_space_roundtrip_preserves_custom_values() {
        let t = Topology::tiers(1, 1, 1).unwrap();
        let s = full_space(&t);
        let mut c = s.default_config();
        // web0.maxProcessors is dim 7 + 1.
        c.set(8, 100);
        let cfg = config_from_full(&t, &c);
        assert_eq!(cfg.node(1).as_app().unwrap().max_processors, 100);
    }
}
