//! The Squid-like proxy tier model.
//!
//! A proxy node holds two LRU stores: a small memory store (`cache_mem`,
//! objects up to `maximum_object_size_in_memory`) and a large disk store
//! (objects between `minimum_object_size` and `maximum_object_size`).
//! Lookups cost CPU proportional to the hash-chain length
//! (`store_objects_per_bucket`); a memory hit is served straight from RAM,
//! a disk hit pays one disk I/O, a miss is forwarded to the application
//! tier and the response is admitted on the way back.
//!
//! `cache_swap_low/high` steer background disk-store eviction batching —
//! Squid semantics, with (per the paper's empirical finding) no measurable
//! performance effect in this throughput regime.

use crate::cache::{LruCache, ObjectId};
use crate::params::ProxyParams;
use simkit::time::SimDuration;

/// Fixed disk-store capacity (not a Table 3 tunable): 10 GB, effectively
/// "everything cacheable fits" at the paper's scale.
const DISK_STORE_BYTES: u64 = 10 * 1024 * 1024 * 1024;

/// Where a cacheable request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheOutcome {
    /// Served from the memory store.
    MemHit,
    /// Served from the disk store (one disk I/O).
    DiskHit,
    /// Not cached; forwarded to the application tier.
    Miss,
}

/// Per-node proxy state.
#[derive(Debug, Clone)]
pub(crate) struct ProxyState {
    pub(crate) params: ProxyParams,
    mem_store: LruCache,
    disk_store: LruCache,
    forwards: u64,
}

impl ProxyState {
    pub(crate) fn new(params: ProxyParams) -> Self {
        ProxyState {
            params,
            mem_store: LruCache::new(params.cache_mem_bytes()),
            disk_store: LruCache::new(DISK_STORE_BYTES),
            forwards: 0,
        }
    }

    /// The in-memory object store (hit/miss statistics live here).
    pub(crate) fn mem_store(&self) -> &LruCache {
        &self.mem_store
    }

    /// The on-disk object store.
    pub(crate) fn disk_store(&self) -> &LruCache {
        &self.disk_store
    }

    /// CPU cost of one cache lookup + request handling. The hash chain is
    /// `store_objects_per_bucket` long on average; each link costs a couple
    /// of microseconds of pointer chasing.
    pub(crate) fn lookup_cpu(&self) -> SimDuration {
        let chain = self.params.store_objects_per_bucket.max(1) as u64;
        SimDuration::from_micros(300 + 2 * chain)
    }

    /// Look up a cacheable object. Updates store recency and statistics.
    pub(crate) fn lookup(&mut self, object: ObjectId) -> CacheOutcome {
        if self.mem_store.get(object) {
            CacheOutcome::MemHit
        } else if self.disk_store.get(object) {
            // Squid promotes disk hits into the memory store when they fit.
            let bytes = crate::object::object_size_bytes(object);
            if self.mem_admissible(bytes) {
                self.mem_store.insert(object, bytes);
            }
            CacheOutcome::DiskHit
        } else {
            self.forwards += 1;
            CacheOutcome::Miss
        }
    }

    fn mem_admissible(&self, bytes: u64) -> bool {
        bytes <= (self.params.maximum_object_size_in_memory.max(0) as u64) * 1024
    }

    fn disk_admissible(&self, bytes: u64) -> bool {
        let min = (self.params.minimum_object_size.max(0) as u64) * 1024;
        let max = (self.params.maximum_object_size.max(0) as u64) * 1024;
        bytes >= min && bytes <= max
    }

    /// Admit a fetched object on the response path.
    pub(crate) fn admit(&mut self, object: ObjectId, bytes: u64) {
        if self.disk_admissible(bytes) {
            self.disk_store.insert(object, bytes);
        }
        if self.mem_admissible(bytes) {
            self.mem_store.insert(object, bytes);
        }
    }

    pub(crate) fn forwards(&self) -> u64 {
        self.forwards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::object_size_bytes;

    fn proxy() -> ProxyState {
        ProxyState::new(ProxyParams::default_config())
    }

    /// Find an object id whose size satisfies `pred`.
    fn find_object(pred: impl Fn(u64) -> bool) -> ObjectId {
        (0..100_000)
            .find(|&id| pred(object_size_bytes(id)))
            .expect("object exists")
    }

    #[test]
    fn cold_lookup_misses_then_hits_after_admit() {
        let mut p = proxy();
        let obj = find_object(|s| s <= 8 * 1024);
        assert_eq!(p.lookup(obj), CacheOutcome::Miss);
        p.admit(obj, object_size_bytes(obj));
        // Small object: admitted to both stores, so next lookup is MemHit.
        assert_eq!(p.lookup(obj), CacheOutcome::MemHit);
    }

    #[test]
    fn large_object_only_disk_cached_by_default() {
        let mut p = proxy();
        // Default maximum_object_size_in_memory = 8 KB.
        let obj = find_object(|s| s > 8 * 1024 && s <= 4 * 1024 * 1024);
        assert_eq!(p.lookup(obj), CacheOutcome::Miss);
        p.admit(obj, object_size_bytes(obj));
        assert_eq!(p.lookup(obj), CacheOutcome::DiskHit);
    }

    #[test]
    fn raising_in_memory_cap_turns_disk_hits_into_mem_hits() {
        let mut params = ProxyParams::default_config();
        params.maximum_object_size_in_memory = 2_048; // 2 MB
        params.cache_mem = 64;
        let mut p = ProxyState::new(params);
        let obj = find_object(|s| s > 8 * 1024 && s <= 512 * 1024);
        p.admit(obj, object_size_bytes(obj));
        assert_eq!(p.lookup(obj), CacheOutcome::MemHit);
    }

    #[test]
    fn disk_hit_promotes_when_admissible() {
        let mut params = ProxyParams::default_config();
        params.maximum_object_size_in_memory = 64;
        let mut p = ProxyState::new(params);
        let obj = find_object(|s| (9 * 1024..48 * 1024).contains(&s));
        // Admit while in-memory cap was lower: simulate by inserting only
        // to disk via a temporary state.
        p.disk_store.insert(obj, object_size_bytes(obj));
        assert_eq!(p.lookup(obj), CacheOutcome::DiskHit);
        // Promotion: second lookup is a memory hit.
        assert_eq!(p.lookup(obj), CacheOutcome::MemHit);
    }

    #[test]
    fn minimum_object_size_excludes_small_objects_from_disk() {
        let mut params = ProxyParams::default_config();
        params.minimum_object_size = 16; // 16 KB minimum
        params.maximum_object_size_in_memory = 1; // nothing in memory
        let mut p = ProxyState::new(params);
        let small = find_object(|s| s < 8 * 1024);
        p.admit(small, object_size_bytes(small));
        assert_eq!(p.lookup(small), CacheOutcome::Miss);
        let big = find_object(|s| (32 * 1024..256 * 1024).contains(&s));
        p.admit(big, object_size_bytes(big));
        assert_eq!(p.lookup(big), CacheOutcome::DiskHit);
    }

    #[test]
    fn maximum_object_size_excludes_huge_objects() {
        let mut params = ProxyParams::default_config();
        params.maximum_object_size = 256; // 256 KB
        let mut p = ProxyState::new(params);
        let huge = find_object(|s| s > 512 * 1024);
        p.admit(huge, object_size_bytes(huge));
        assert_eq!(p.lookup(huge), CacheOutcome::Miss);
    }

    #[test]
    fn lookup_cpu_scales_with_bucket_occupancy() {
        let mut a = ProxyParams::default_config();
        a.store_objects_per_bucket = 5;
        let mut b = ProxyParams::default_config();
        b.store_objects_per_bucket = 500;
        let fast = ProxyState::new(a).lookup_cpu();
        let slow = ProxyState::new(b).lookup_cpu();
        assert!(slow > fast);
        // But the effect is mild (sub-millisecond): this is a weak knob.
        assert!(slow < SimDuration::from_millis(2));
    }

    #[test]
    fn small_memory_cache_evicts_under_churn() {
        let mut params = ProxyParams::default_config();
        params.cache_mem = 1; // 1 MB
        let mut p = ProxyState::new(params);
        let mut admitted = Vec::new();
        for id in 0..5_000u64 {
            let bytes = object_size_bytes(id);
            if bytes <= 8 * 1024 {
                p.admit(id, bytes);
                admitted.push(id);
            }
        }
        assert!(p.mem_store.used_bytes() <= 1024 * 1024);
        // The earliest admitted small objects must have been evicted.
        let first = admitted[0];
        let outcome = p.lookup(first);
        assert_ne!(outcome, CacheOutcome::MemHit);
    }
}
