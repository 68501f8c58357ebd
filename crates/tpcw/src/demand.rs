//! Per-interaction resource-demand profiles.
//!
//! The paper ran real Squid/Tomcat/MySQL servers; the *reason* each
//! workload stresses the cluster differently is the per-page resource
//! profile: browsing pages are mostly cacheable static content, ordering
//! pages hold an application thread across several database round-trips and
//! write to the transaction log. This module encodes those profiles as
//! calibration constants for the simulated tiers.
//!
//! Calibration rationale (per interaction):
//! * `cacheable` — fraction of requests a warm proxy could serve without
//!   touching the app tier. High for catalogue pages, zero for anything
//!   carrying per-customer state (cart, buy, order display).
//! * `object_kb` — mean response size; drives cache capacity pressure and
//!   NIC transfer time. Catalogue pages with cover images are the largest.
//! * `app_cpu_ms` — servlet CPU on the application server.
//! * `db_queries` — round-trips to the database when the page is dynamic.
//! * `db_cpu_ms` — CPU per query; `join_heavy` queries (best-sellers,
//!   search) touch multiple tables and benefit from a (small) join buffer.
//! * `db_write` — page performs an INSERT/UPDATE inside a transaction and
//!   pays a binlog flush unless the binlog cache absorbs it.

use crate::interaction::Interaction;

/// Static demand profile of one interaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandProfile {
    /// Probability the response is static/cacheable content.
    pub cacheable: f64,
    /// Mean response object size in KB (lognormal, cv ~0.8 at sampling).
    pub object_kb: f64,
    /// Mean application-server CPU per request, milliseconds.
    pub app_cpu_ms: f64,
    /// Number of database queries when served dynamically.
    pub db_queries: u32,
    /// Mean database CPU per query, milliseconds.
    pub db_cpu_ms: f64,
    /// Probability each query needs a disk read on a cold buffer.
    pub db_io_prob: f64,
    /// Query touches multiple tables (join buffer relevant).
    pub join_heavy: bool,
    /// Page writes to the database (binlog/transaction cost).
    pub db_write: bool,
    /// Mean transaction-log volume of the write, KB (0 for read-only
    /// pages). Drives `binlog_cache_size`: logs larger than the cache
    /// spill to a temporary disk file.
    pub write_log_kb: f64,
}

/// Coefficient of variation used when sampling object sizes.
pub const OBJECT_SIZE_CV: f64 = 0.8;

/// Coefficient of variation used when sampling CPU demands.
pub const CPU_DEMAND_CV: f64 = 0.3;

/// Demand profile for each interaction (see module docs for rationale).
pub fn profile(ix: Interaction) -> DemandProfile {
    use Interaction::*;
    match ix {
        Home => DemandProfile {
            cacheable: 0.90,
            object_kb: 8.0,
            app_cpu_ms: 3.0,
            db_queries: 1,
            db_cpu_ms: 2.0,
            db_io_prob: 0.06,
            join_heavy: false,
            db_write: false,
            write_log_kb: 0.0,
        },
        NewProducts => DemandProfile {
            cacheable: 0.80,
            object_kb: 14.0,
            app_cpu_ms: 5.0,
            db_queries: 2,
            db_cpu_ms: 4.0,
            db_io_prob: 0.12,
            join_heavy: false,
            db_write: false,
            write_log_kb: 0.0,
        },
        BestSellers => DemandProfile {
            cacheable: 0.70,
            object_kb: 14.0,
            app_cpu_ms: 6.0,
            db_queries: 2,
            db_cpu_ms: 8.0,
            db_io_prob: 0.15,
            join_heavy: true,
            db_write: false,
            write_log_kb: 0.0,
        },
        ProductDetail => DemandProfile {
            cacheable: 0.85,
            object_kb: 12.0,
            app_cpu_ms: 4.0,
            db_queries: 1,
            db_cpu_ms: 3.0,
            db_io_prob: 0.10,
            join_heavy: false,
            db_write: false,
            write_log_kb: 0.0,
        },
        SearchRequest => DemandProfile {
            cacheable: 0.95,
            object_kb: 4.0,
            app_cpu_ms: 2.0,
            db_queries: 0,
            db_cpu_ms: 0.0,
            db_io_prob: 0.0,
            join_heavy: false,
            db_write: false,
            write_log_kb: 0.0,
        },
        SearchResults => DemandProfile {
            cacheable: 0.10,
            object_kb: 10.0,
            app_cpu_ms: 8.0,
            db_queries: 2,
            db_cpu_ms: 7.0,
            db_io_prob: 0.18,
            join_heavy: true,
            db_write: false,
            write_log_kb: 0.0,
        },
        ShoppingCart => DemandProfile {
            cacheable: 0.0,
            object_kb: 8.0,
            app_cpu_ms: 7.0,
            db_queries: 2,
            db_cpu_ms: 5.0,
            db_io_prob: 0.08,
            join_heavy: false,
            db_write: true,
            write_log_kb: 24.0,
        },
        CustomerRegistration => DemandProfile {
            cacheable: 0.30,
            object_kb: 6.0,
            app_cpu_ms: 4.0,
            db_queries: 1,
            db_cpu_ms: 4.0,
            db_io_prob: 0.08,
            join_heavy: false,
            db_write: true,
            write_log_kb: 16.0,
        },
        BuyRequest => DemandProfile {
            cacheable: 0.0,
            object_kb: 8.0,
            app_cpu_ms: 8.0,
            db_queries: 3,
            db_cpu_ms: 6.0,
            db_io_prob: 0.12,
            join_heavy: false,
            db_write: true,
            write_log_kb: 48.0,
        },
        BuyConfirm => DemandProfile {
            cacheable: 0.0,
            object_kb: 9.0,
            app_cpu_ms: 10.0,
            db_queries: 4,
            db_cpu_ms: 7.0,
            db_io_prob: 0.15,
            join_heavy: false,
            db_write: true,
            write_log_kb: 120.0,
        },
        OrderInquiry => DemandProfile {
            cacheable: 0.60,
            object_kb: 5.0,
            app_cpu_ms: 3.0,
            db_queries: 1,
            db_cpu_ms: 3.0,
            db_io_prob: 0.08,
            join_heavy: false,
            db_write: false,
            write_log_kb: 0.0,
        },
        OrderDisplay => DemandProfile {
            cacheable: 0.0,
            object_kb: 9.0,
            app_cpu_ms: 6.0,
            db_queries: 2,
            db_cpu_ms: 5.0,
            db_io_prob: 0.14,
            join_heavy: true,
            db_write: false,
            write_log_kb: 0.0,
        },
        AdminRequest => DemandProfile {
            cacheable: 0.20,
            object_kb: 7.0,
            app_cpu_ms: 5.0,
            db_queries: 1,
            db_cpu_ms: 4.0,
            db_io_prob: 0.10,
            join_heavy: false,
            db_write: false,
            write_log_kb: 0.0,
        },
        AdminConfirm => DemandProfile {
            cacheable: 0.0,
            object_kb: 7.0,
            app_cpu_ms: 8.0,
            db_queries: 2,
            db_cpu_ms: 7.0,
            db_io_prob: 0.12,
            join_heavy: false,
            db_write: true,
            write_log_kb: 64.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::Workload;

    /// Mix-weighted expectation of a profile field over a workload mix.
    fn weighted_mean(mix: &crate::mix::Mix, f: impl Fn(&DemandProfile) -> f64) -> f64 {
        Interaction::ALL
            .iter()
            .map(|&ix| mix.probability(ix) * f(&profile(ix)))
            .sum()
    }

    #[test]
    fn profiles_are_sane() {
        for ix in Interaction::ALL {
            let p = profile(ix);
            assert!((0.0..=1.0).contains(&p.cacheable), "{ix}: cacheable");
            assert!(p.object_kb > 0.0, "{ix}: size");
            assert!(p.app_cpu_ms > 0.0, "{ix}: app cpu");
            assert!((0.0..=1.0).contains(&p.db_io_prob), "{ix}: io prob");
            if p.db_queries == 0 {
                assert_eq!(p.db_cpu_ms, 0.0, "{ix}: no queries but cpu");
            } else {
                assert!(p.db_cpu_ms > 0.0, "{ix}: queries but no cpu");
            }
        }
    }

    #[test]
    fn browsing_is_more_cacheable_than_ordering() {
        let cache_b = weighted_mean(Workload::Browsing.mix(), |p| p.cacheable);
        let cache_s = weighted_mean(Workload::Shopping.mix(), |p| p.cacheable);
        let cache_o = weighted_mean(Workload::Ordering.mix(), |p| p.cacheable);
        assert!(
            cache_b > cache_s && cache_s > cache_o,
            "cacheability should fall monotonically: {cache_b:.2} {cache_s:.2} {cache_o:.2}"
        );
        assert!(cache_b > 0.6, "browsing should be largely cacheable");
        assert!(cache_o < 0.45, "ordering should be mostly dynamic");
    }

    #[test]
    fn ordering_is_more_db_and_write_heavy() {
        let q_b = weighted_mean(Workload::Browsing.mix(), |p| p.db_queries as f64);
        let q_o = weighted_mean(Workload::Ordering.mix(), |p| p.db_queries as f64);
        assert!(
            q_o > q_b,
            "ordering does more DB work: {q_o:.2} vs {q_b:.2}"
        );

        let w_b = weighted_mean(Workload::Browsing.mix(), |p| p.db_write as u8 as f64);
        let w_o = weighted_mean(Workload::Ordering.mix(), |p| p.db_write as u8 as f64);
        assert!(
            w_o > 5.0 * w_b,
            "ordering writes far more: {w_o:.2} vs {w_b:.2}"
        );
    }

    #[test]
    fn write_pages_are_order_class() {
        for ix in Interaction::ALL {
            if profile(ix).db_write {
                assert_eq!(
                    ix.class(),
                    crate::interaction::InteractionClass::Order,
                    "{ix} writes but is Browse-class"
                );
            }
        }
    }
}
