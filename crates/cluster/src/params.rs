//! The 23 tunable parameters of Table 3, with their defaults and tuning
//! ranges.
//!
//! Parameter names, defaults and units follow the paper exactly. The
//! tuning ranges are chosen so every tuned value the paper reports is
//! reachable with headroom on both sides. Internal consistency (for
//! example `minProcessors <= maxProcessors`) is *not* enforced at
//! construction — the tuner explores freely, and [`WebParams::http_pool`]
//! resolves conflicts the way the real servers do (the max acts as a cap).

/// Metadata of one tunable parameter: what the tuner needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunableDef {
    /// Paper's parameter name.
    pub name: &'static str,
    /// Lower bound (inclusive).
    pub min: i64,
    /// Upper bound (inclusive).
    pub max: i64,
    /// The default configuration value (Table 3 "Default config." column).
    pub default: i64,
}

impl TunableDef {
    /// True if `v` lies within the bounds.
    pub(crate) fn contains(&self, v: i64) -> bool {
        (self.min..=self.max).contains(&v)
    }
}

// ---------------------------------------------------------------------------
// Proxy server (Squid) — 7 parameters
// ---------------------------------------------------------------------------

/// Squid proxy tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProxyParams {
    /// `cache_mem`: memory cache size, MB.
    pub cache_mem: i64,
    /// `cache_swap_low`: disk-store eviction low watermark, percent.
    pub(crate) cache_swap_low: i64,
    /// `cache_swap_high`: disk-store eviction high watermark, percent.
    pub(crate) cache_swap_high: i64,
    /// `maximum_object_size`: largest object cached at all, KB.
    pub(crate) maximum_object_size: i64,
    /// `minimum_object_size`: smallest object cached, KB (0 = no minimum).
    pub(crate) minimum_object_size: i64,
    /// `maximum_object_size_in_memory`: largest object held in the memory
    /// store, KB.
    pub maximum_object_size_in_memory: i64,
    /// `store_objects_per_bucket`: hash-table occupancy target.
    pub(crate) store_objects_per_bucket: i64,
}

/// Tunable metadata for the proxy, in Table 3 order.
pub const PROXY_TUNABLES: [TunableDef; 7] = [
    TunableDef {
        name: "cache_mem",
        min: 1,
        max: 64,
        default: 8,
    },
    TunableDef {
        name: "cache_swap_low",
        min: 50,
        max: 97,
        default: 90,
    },
    TunableDef {
        name: "cache_swap_high",
        min: 55,
        max: 99,
        default: 95,
    },
    TunableDef {
        name: "maximum_object_size",
        min: 256,
        max: 16_384,
        default: 4_096,
    },
    TunableDef {
        name: "minimum_object_size",
        min: 0,
        max: 2_048,
        default: 0,
    },
    TunableDef {
        name: "maximum_object_size_in_memory",
        min: 1,
        max: 4_096,
        default: 8,
    },
    TunableDef {
        name: "store_objects_per_bucket",
        min: 5,
        max: 500,
        default: 20,
    },
];

impl ProxyParams {
    /// Table 3 defaults.
    // Each tunable's default lies inside its own [min, max] by
    // construction of the table; covered by `defaults_are_valid` tests.
    #[allow(clippy::expect_used)]
    pub fn default_config() -> Self {
        Self::from_values(&PROXY_TUNABLES.map(|t| t.default)).expect("defaults valid")
    }

    /// Build from a value vector in [`PROXY_TUNABLES`] order.
    pub fn from_values(v: &[i64]) -> Result<Self, ParamError> {
        check_values(v, &PROXY_TUNABLES)?;
        Ok(ProxyParams {
            cache_mem: v[0],
            cache_swap_low: v[1],
            cache_swap_high: v[2],
            maximum_object_size: v[3],
            minimum_object_size: v[4],
            maximum_object_size_in_memory: v[5],
            store_objects_per_bucket: v[6],
        })
    }

    /// Export as a value vector in [`PROXY_TUNABLES`] order.
    pub fn to_values(&self) -> [i64; 7] {
        [
            self.cache_mem,
            self.cache_swap_low,
            self.cache_swap_high,
            self.maximum_object_size,
            self.minimum_object_size,
            self.maximum_object_size_in_memory,
            self.store_objects_per_bucket,
        ]
    }

    /// Resolve inconsistent watermarks the way Squid does (high >= low).
    pub fn effective_swap_watermarks(&self) -> (i64, i64) {
        let low = self.cache_swap_low;
        let high = self.cache_swap_high.max(low + 1).min(100);
        (low, high)
    }

    /// Memory-store capacity in bytes.
    pub(crate) fn cache_mem_bytes(&self) -> u64 {
        (self.cache_mem.max(0) as u64) * 1024 * 1024
    }
}

// ---------------------------------------------------------------------------
// Web / application server (Tomcat) — 7 parameters
// ---------------------------------------------------------------------------

/// Tomcat HTTP + AJP connector tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WebParams {
    /// `minProcessors`: threads kept warm in the HTTP pool.
    pub min_processors: i64,
    /// `maxProcessors`: maximum HTTP pool size.
    pub max_processors: i64,
    /// `acceptCount`: HTTP accept-queue length.
    pub accept_count: i64,
    /// `bufferSize`: per-connection I/O buffer, bytes.
    pub buffer_size: i64,
    /// `AJPminProcessors`: warm AJP worker threads.
    pub(crate) ajp_min_processors: i64,
    /// `AJPmaxProcessors`: maximum AJP pool size.
    pub ajp_max_processors: i64,
    /// `AJPacceptCount`: AJP accept-queue length.
    pub ajp_accept_count: i64,
}

/// Tunable metadata for the web server, in Table 3 order.
pub const WEB_TUNABLES: [TunableDef; 7] = [
    TunableDef {
        name: "minProcessors",
        min: 1,
        max: 512,
        default: 5,
    },
    TunableDef {
        name: "maxProcessors",
        min: 1,
        max: 512,
        default: 20,
    },
    TunableDef {
        name: "acceptCount",
        min: 1,
        max: 1_024,
        default: 10,
    },
    TunableDef {
        name: "bufferSize",
        min: 512,
        max: 16_384,
        default: 2_048,
    },
    TunableDef {
        name: "AJPminProcessors",
        min: 1,
        max: 512,
        default: 5,
    },
    TunableDef {
        name: "AJPmaxProcessors",
        min: 1,
        max: 512,
        default: 20,
    },
    TunableDef {
        name: "AJPacceptCount",
        min: 1,
        max: 1_024,
        default: 10,
    },
];

/// Effective (conflict-resolved) thread-pool sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EffectivePool {
    pub min: u32,
    pub max: u32,
    pub(crate) accept: u32,
}

impl WebParams {
    /// Table 3 defaults.
    // Each tunable's default lies inside its own [min, max] by
    // construction of the table; covered by `defaults_are_valid` tests.
    #[allow(clippy::expect_used)]
    pub fn default_config() -> Self {
        Self::from_values(&WEB_TUNABLES.map(|t| t.default)).expect("defaults valid")
    }

    pub fn from_values(v: &[i64]) -> Result<Self, ParamError> {
        check_values(v, &WEB_TUNABLES)?;
        Ok(WebParams {
            min_processors: v[0],
            max_processors: v[1],
            accept_count: v[2],
            buffer_size: v[3],
            ajp_min_processors: v[4],
            ajp_max_processors: v[5],
            ajp_accept_count: v[6],
        })
    }

    pub fn to_values(&self) -> [i64; 7] {
        [
            self.min_processors,
            self.max_processors,
            self.accept_count,
            self.buffer_size,
            self.ajp_min_processors,
            self.ajp_max_processors,
            self.ajp_accept_count,
        ]
    }

    /// Effective HTTP pool: min never exceeds max (max acts as the cap,
    /// mirroring Tomcat's behaviour when misconfigured).
    pub fn http_pool(&self) -> EffectivePool {
        let max = self.max_processors.max(1) as u32;
        EffectivePool {
            min: (self.min_processors.max(1) as u32).min(max),
            max,
            accept: self.accept_count.max(1) as u32,
        }
    }

    /// Effective AJP pool.
    pub(crate) fn ajp_pool(&self) -> EffectivePool {
        let max = self.ajp_max_processors.max(1) as u32;
        EffectivePool {
            min: (self.ajp_min_processors.max(1) as u32).min(max),
            max,
            accept: self.ajp_accept_count.max(1) as u32,
        }
    }
}

// ---------------------------------------------------------------------------
// Database server (MySQL) — 9 parameters
// ---------------------------------------------------------------------------

/// MySQL tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbParams {
    /// `binlog_cache_size`: per-transaction binary-log cache, bytes.
    pub binlog_cache_size: i64,
    /// `delayed_insert_limit`: rows handed over per delayed-insert batch.
    pub(crate) delayed_insert_limit: i64,
    /// `max_connections`: concurrent client connections.
    pub max_connections: i64,
    /// `delayed_queue_size`: queued rows for delayed inserts.
    pub(crate) delayed_queue_size: i64,
    /// `join_buffer_size`: per-join buffer, bytes.
    pub join_buffer_size: i64,
    /// `net_buffer_length`: result-set network chunk, bytes.
    pub(crate) net_buffer_length: i64,
    /// `table_cache`: open table descriptors kept cached.
    pub table_cache: i64,
    /// `thread_concurrency` (`thread_con`): desired concurrently-running
    /// threads inside the server.
    pub thread_concurrency: i64,
    /// `thread_stack`: per-thread stack, bytes.
    pub(crate) thread_stack: i64,
}

/// Tunable metadata for the database, in Table 3 order.
pub const DB_TUNABLES: [TunableDef; 9] = [
    TunableDef {
        name: "binlog_cache_size",
        min: 4_096,
        max: 1_048_576,
        default: 32_768,
    },
    TunableDef {
        name: "delayed_insert_limit",
        min: 10,
        max: 1_000,
        default: 100,
    },
    TunableDef {
        name: "max_connections",
        min: 10,
        max: 1_000,
        default: 100,
    },
    TunableDef {
        name: "delayed_queue_size",
        min: 100,
        max: 20_000,
        default: 1_000,
    },
    TunableDef {
        name: "join_buffer_size",
        min: 131_072,
        max: 16_777_216,
        default: 8_388_600,
    },
    TunableDef {
        name: "net_buffer_length",
        min: 1_024,
        max: 65_536,
        default: 16_384,
    },
    TunableDef {
        name: "table_cache",
        min: 16,
        max: 2_048,
        default: 64,
    },
    TunableDef {
        name: "thread_con",
        min: 1,
        max: 512,
        default: 10,
    },
    TunableDef {
        name: "thread_stack",
        min: 32_768,
        max: 2_097_152,
        default: 65_535,
    },
];

impl DbParams {
    /// Table 3 defaults.
    // Each tunable's default lies inside its own [min, max] by
    // construction of the table; covered by `defaults_are_valid` tests.
    #[allow(clippy::expect_used)]
    pub fn default_config() -> Self {
        Self::from_values(&DB_TUNABLES.map(|t| t.default)).expect("defaults valid")
    }

    pub fn from_values(v: &[i64]) -> Result<Self, ParamError> {
        check_values(v, &DB_TUNABLES)?;
        Ok(DbParams {
            binlog_cache_size: v[0],
            delayed_insert_limit: v[1],
            max_connections: v[2],
            delayed_queue_size: v[3],
            join_buffer_size: v[4],
            net_buffer_length: v[5],
            table_cache: v[6],
            thread_concurrency: v[7],
            thread_stack: v[8],
        })
    }

    pub fn to_values(&self) -> [i64; 9] {
        [
            self.binlog_cache_size,
            self.delayed_insert_limit,
            self.max_connections,
            self.delayed_queue_size,
            self.join_buffer_size,
            self.net_buffer_length,
            self.table_cache,
            self.thread_concurrency,
            self.thread_stack,
        ]
    }
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// Validation failure when building params from a value vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamError {
    /// Wrong number of values (expected, got).
    Arity(usize, usize),
    /// A value fell outside its bounds (name, value).
    OutOfBounds(&'static str, i64),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::Arity(want, got) => write!(f, "expected {want} values, got {got}"),
            ParamError::OutOfBounds(name, v) => write!(f, "{name} = {v} out of bounds"),
        }
    }
}

impl std::error::Error for ParamError {}

fn check_values(v: &[i64], defs: &[TunableDef]) -> Result<(), ParamError> {
    if v.len() != defs.len() {
        return Err(ParamError::Arity(defs.len(), v.len()));
    }
    for (x, d) in v.iter().zip(defs) {
        if !d.contains(*x) {
            return Err(ParamError::OutOfBounds(d.name, *x));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_23_parameters() {
        assert_eq!(
            PROXY_TUNABLES.len() + WEB_TUNABLES.len() + DB_TUNABLES.len(),
            23
        );
    }

    #[test]
    fn defaults_match_table3() {
        let p = ProxyParams::default_config();
        assert_eq!(p.cache_mem, 8);
        assert_eq!(p.cache_swap_low, 90);
        assert_eq!(p.cache_swap_high, 95);
        assert_eq!(p.maximum_object_size, 4_096);
        assert_eq!(p.minimum_object_size, 0);
        assert_eq!(p.maximum_object_size_in_memory, 8);
        assert_eq!(p.store_objects_per_bucket, 20);

        let w = WebParams::default_config();
        assert_eq!(w.min_processors, 5);
        assert_eq!(w.max_processors, 20);
        assert_eq!(w.accept_count, 10);
        assert_eq!(w.buffer_size, 2_048);
        assert_eq!(w.ajp_max_processors, 20);

        let d = DbParams::default_config();
        assert_eq!(d.binlog_cache_size, 32_768);
        assert_eq!(d.max_connections, 100);
        assert_eq!(d.join_buffer_size, 8_388_600);
        assert_eq!(d.table_cache, 64);
        assert_eq!(d.thread_concurrency, 10);
        assert_eq!(d.thread_stack, 65_535);
    }

    #[test]
    fn paper_tuned_values_are_within_bounds() {
        // Every tuned value from Table 3 must be reachable.
        let tuned_proxy = [
            [13, 91, 96, 4_096, 0, 6, 15],
            [17, 86, 96, 4_096, 50, 256, 25],
            [21, 91, 96, 5_888, 306, 2_560, 105],
        ];
        for cfg in tuned_proxy {
            assert!(ProxyParams::from_values(&cfg).is_ok(), "{cfg:?}");
        }
        let tuned_web = [
            [1, 11, 6, 2_049, 6, 86, 76],
            [16, 16, 21, 3_585, 26, 296, 306],
            [102, 131, 136, 6_657, 136, 161, 671],
        ];
        for cfg in tuned_web {
            assert!(WebParams::from_values(&cfg).is_ok(), "{cfg:?}");
        }
        let tuned_db = [
            [63_488, 200, 201, 2_600, 407_552, 31_744, 873, 81, 102_400],
            [
                153_600, 400, 451, 9_100, 407_552, 38_912, 905, 91, 1_018_880,
            ],
            [284_672, 700, 701, 7_100, 407_552, 34_816, 761, 76, 773_120],
        ];
        for cfg in tuned_db {
            assert!(DbParams::from_values(&cfg).is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn value_vector_roundtrip() {
        let p = ProxyParams::default_config();
        assert_eq!(ProxyParams::from_values(&p.to_values()).unwrap(), p);
        let w = WebParams::default_config();
        assert_eq!(WebParams::from_values(&w.to_values()).unwrap(), w);
        let d = DbParams::default_config();
        assert_eq!(DbParams::from_values(&d.to_values()).unwrap(), d);
    }

    #[test]
    fn from_values_validates() {
        assert!(matches!(
            ProxyParams::from_values(&[1, 2]),
            Err(ParamError::Arity(7, 2))
        ));
        let mut v = PROXY_TUNABLES.map(|t| t.default);
        v[0] = 10_000; // cache_mem out of range
        assert!(matches!(
            ProxyParams::from_values(&v),
            Err(ParamError::OutOfBounds("cache_mem", 10_000))
        ));
    }

    #[test]
    fn http_pool_resolves_min_above_max() {
        let mut w = WebParams::default_config();
        w.min_processors = 100;
        w.max_processors = 20;
        let pool = w.http_pool();
        assert_eq!(pool.min, 20);
        assert_eq!(pool.max, 20);
    }

    #[test]
    fn swap_watermarks_resolve_inversion() {
        let mut p = ProxyParams::default_config();
        p.cache_swap_low = 95;
        p.cache_swap_high = 60;
        let (low, high) = p.effective_swap_watermarks();
        assert!(high > low);
        assert!(high <= 100);
    }

    #[test]
    fn clamp_and_contains() {
        let d = TunableDef {
            name: "x",
            min: 10,
            max: 20,
            default: 15,
        };
        assert!(d.contains(10) && d.contains(20) && !d.contains(9));
    }
}
