//! The MySQL-like database tier model.
//!
//! A query's path: acquire a **connection** (`max_connections`, waiters
//! queue), acquire a **run slot** (`thread_concurrency` — MySQL 3.23's
//! hint for how many threads execute concurrently), then execute: CPU
//! (inflated by table-cache misses, join-buffer shortfall, result-set
//! chunking through `net_buffer_length`, and context switching when the
//! run queue is long), possibly a data-page disk read, and for writes a
//! binlog flush that spills to disk when the transaction log exceeds
//! `binlog_cache_size`.

use crate::params::DbParams;
use crate::request::ReqId;
use simkit::resource::MultiServer;
use simkit::rng::{LognormalShape, SimRng};
use simkit::time::{SimDuration, SimTime};

/// Table-open penalty on a table-cache miss: descriptor setup CPU.
const TABLE_OPEN_CPU: SimDuration = SimDuration::from_micros(800);
/// Probability a table-cache miss also needs a disk read (.frm/.MYI).
const TABLE_OPEN_IO_PROB: f64 = 0.15;
/// Join working-set the TPC-W queries actually need (bytes) — anything
/// above this in `join_buffer_size` is pure memory waste, which is exactly
/// what the paper found.
const JOIN_NEEDED_BYTES: i64 = 256 * 1024;
/// CPU per result-set network chunk.
const NET_CHUNK_CPU: SimDuration = SimDuration::from_micros(30);
/// Bytes of result set per query (mean; modulates net chunking).
const RESULT_BYTES_MEAN: f64 = 24.0 * 1024.0;
/// Disk page read size for a data miss.
pub(crate) const DATA_PAGE_BYTES: u64 = 16 * 1024;

/// Per-node database state.
#[derive(Debug, Clone)]
pub(crate) struct DbState {
    pub(crate) params: DbParams,
    /// Connection slots (semaphore usage).
    pub(crate) conn_pool: MultiServer<ReqId>,
    /// Run slots implementing `thread_concurrency`.
    pub(crate) run_slots: MultiServer<ReqId>,
    /// Hot table descriptors the workload needs (from the catalogue scale).
    hot_table_slots: u64,
    /// Precomputed lognormal shapes for the per-query draws (fixed CVs;
    /// hoisting the `ln`/`sqrt` derivation off the hot path is
    /// bit-identical — see `LognormalShape`).
    cpu_shape: LognormalShape,
    result_shape: LognormalShape,
    binlog_shape: LognormalShape,
}

/// The execution cost of one query, decided at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueryCost {
    /// CPU demand (before node-level pressure scaling).
    pub(crate) cpu: SimDuration,
    /// Whether a data-page disk read is needed.
    pub(crate) disk_read: bool,
    /// Whether the binlog spilled and needs a disk flush.
    pub(crate) binlog_spill: bool,
}

impl DbState {
    pub(crate) fn new(params: DbParams, start: SimTime, hot_table_slots: u64) -> Self {
        DbState {
            params,
            conn_pool: MultiServer::new(start, params.max_connections.max(1) as u32, None),
            run_slots: MultiServer::new(start, params.thread_concurrency.max(1) as u32, None),
            hot_table_slots: hot_table_slots.max(1),
            cpu_shape: LognormalShape::from_cv(0.3),
            result_shape: LognormalShape::from_cv(0.6),
            binlog_shape: LognormalShape::from_cv(0.7),
        }
    }

    /// Probability a query misses the table cache.
    pub(crate) fn table_miss_prob(&self) -> f64 {
        let cache = self.params.table_cache.max(0) as f64;
        (1.0 - cache / self.hot_table_slots as f64).max(0.0)
    }

    /// Join-buffer inflation factor: a buffer smaller than the working set
    /// forces multi-pass joins.
    pub(crate) fn join_factor(&self) -> f64 {
        let buf = self.params.join_buffer_size.max(1);
        if buf >= JOIN_NEEDED_BYTES {
            1.0
        } else {
            // Passes scale with the shortfall; 128 KB => 2 passes.
            JOIN_NEEDED_BYTES as f64 / buf as f64
        }
    }

    /// Context-switch inflation from running more threads than cores.
    pub(crate) fn scheduling_factor(&self, cores: u32) -> f64 {
        let runnable = self.run_slots.busy();
        if runnable > cores {
            1.0 + 0.0015 * (runnable - cores) as f64
        } else {
            1.0
        }
    }

    /// Serialization loss when `thread_concurrency` is below the core
    /// count: the run-slot semaphore itself then throttles below hardware
    /// capacity, which the queueing model captures naturally — no extra
    /// factor needed here.
    ///
    /// Compute the full cost of one query.
    ///
    /// * `base_cpu_ms` / `io_prob` / `join_heavy` / `write_log_kb` come
    ///   from the interaction's demand profile.
    pub(crate) fn query_cost(
        &self,
        rng: &mut SimRng,
        base_cpu_ms: f64,
        io_prob: f64,
        join_heavy: bool,
        write_log_kb: f64,
        cores: u32,
    ) -> QueryCost {
        let mut cpu_ms = rng.lognormal_shaped(self.cpu_shape, base_cpu_ms.max(0.05));
        if join_heavy {
            cpu_ms *= self.join_factor();
        }

        // Table-cache miss: open-table CPU and maybe metadata I/O.
        let mut disk_read = rng.chance(io_prob);
        let mut cpu = SimDuration::from_millis_f64(cpu_ms);
        if rng.chance(self.table_miss_prob()) {
            cpu += TABLE_OPEN_CPU;
            if rng.chance(TABLE_OPEN_IO_PROB) {
                disk_read = true;
            }
        }

        // Result-set chunking through net_buffer_length.
        let result_bytes = rng.lognormal_shaped(self.result_shape, RESULT_BYTES_MEAN);
        let chunks = (result_bytes / self.params.net_buffer_length.max(1024) as f64)
            .ceil()
            .max(1.0) as u64;
        cpu += SimDuration::from_micros(NET_CHUNK_CPU.as_micros() * chunks);

        // Scheduling overhead at dispatch time.
        cpu = cpu.mul_f64(self.scheduling_factor(cores));

        // Binlog: transaction log bigger than the cache spills to disk.
        let binlog_spill = if write_log_kb > 0.0 {
            let log_bytes = rng.lognormal_shaped(self.binlog_shape, write_log_kb * 1024.0);
            log_bytes > self.params.binlog_cache_size.max(0) as f64
        } else {
            false
        };

        QueryCost {
            cpu,
            disk_read,
            binlog_spill,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(params: DbParams) -> DbState {
        DbState::new(params, SimTime::ZERO, 640)
    }

    fn default_db() -> DbState {
        db(DbParams::default_config())
    }

    #[test]
    fn pools_sized_from_params() {
        let d = default_db();
        assert_eq!(d.conn_pool.servers(), 100);
        assert_eq!(d.run_slots.servers(), 10);
    }

    #[test]
    fn table_miss_prob_falls_with_cache() {
        let small = default_db(); // table_cache = 64, hot = 640
        assert!((small.table_miss_prob() - 0.9).abs() < 1e-9);
        let mut p = DbParams::default_config();
        p.table_cache = 640;
        assert_eq!(db(p).table_miss_prob(), 0.0);
        p.table_cache = 2_048;
        assert_eq!(db(p).table_miss_prob(), 0.0);
    }

    #[test]
    fn join_factor_saturates_at_needed_size() {
        let mut p = DbParams::default_config(); // 8 MB default
        assert_eq!(db(p).join_factor(), 1.0);
        p.join_buffer_size = 407_552; // paper's tuned value
        assert_eq!(
            db(p).join_factor(),
            1.0,
            "tuned-down buffer must cost nothing"
        );
        p.join_buffer_size = 131_072; // half the working set
        assert!((db(p).join_factor() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn binlog_spill_depends_on_cache_size() {
        let mut rng = SimRng::new(7);
        let small = default_db(); // 32 KB cache
        let spills = (0..2_000)
            .filter(|_| {
                small
                    .query_cost(&mut rng, 5.0, 0.0, false, 120.0, 2)
                    .binlog_spill
            })
            .count();
        // 120 KB mean log vs 32 KB cache: nearly always spills.
        assert!(spills > 1_800, "spills {spills}");

        let mut p = DbParams::default_config();
        p.binlog_cache_size = 1_048_576;
        let big = db(p);
        let spills_big = (0..2_000)
            .filter(|_| {
                big.query_cost(&mut rng, 5.0, 0.0, false, 120.0, 2)
                    .binlog_spill
            })
            .count();
        assert!(spills_big < 200, "spills_big {spills_big}");
    }

    #[test]
    fn read_only_queries_never_spill() {
        let mut rng = SimRng::new(9);
        let d = default_db();
        for _ in 0..500 {
            assert!(!d.query_cost(&mut rng, 3.0, 0.5, false, 0.0, 2).binlog_spill);
        }
    }

    #[test]
    fn net_buffer_reduces_cpu() {
        let mut rng_a = SimRng::new(11);
        let mut rng_b = SimRng::new(11);
        let mut small = DbParams::default_config();
        small.net_buffer_length = 1_024;
        let mut big = DbParams::default_config();
        big.net_buffer_length = 65_536;
        let n = 2_000;
        let cpu_small: u64 = (0..n)
            .map(|_| {
                db(small)
                    .query_cost(&mut rng_a, 5.0, 0.0, false, 0.0, 2)
                    .cpu
                    .as_micros()
            })
            .sum();
        let cpu_big: u64 = (0..n)
            .map(|_| {
                db(big)
                    .query_cost(&mut rng_b, 5.0, 0.0, false, 0.0, 2)
                    .cpu
                    .as_micros()
            })
            .sum();
        assert!(cpu_small > cpu_big, "{cpu_small} vs {cpu_big}");
    }

    #[test]
    fn scheduling_factor_grows_with_runnable_threads() {
        let mut p = DbParams::default_config();
        p.thread_concurrency = 100;
        let mut d = db(p);
        assert_eq!(d.scheduling_factor(2), 1.0);
        for r in 0..60 {
            d.run_slots.offer(SimTime::ZERO, r, SimDuration::ZERO);
        }
        let f = d.scheduling_factor(2);
        assert!(f > 1.05 && f < 1.15, "factor {f}");
    }

    #[test]
    fn disk_read_probability_respected() {
        let mut rng = SimRng::new(13);
        let mut p = DbParams::default_config();
        p.table_cache = 2_048; // no table-cache noise
        let d = db(p);
        let n = 5_000;
        let reads = (0..n)
            .filter(|_| d.query_cost(&mut rng, 3.0, 0.4, false, 0.0, 2).disk_read)
            .count();
        let frac = reads as f64 / n as f64;
        assert!((0.35..0.45).contains(&frac), "frac {frac}");
    }
}
