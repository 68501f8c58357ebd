//! Byte-capacity LRU object cache — the substrate of the Squid model's
//! memory and disk stores.
//!
//! Implemented as a slab-backed doubly-linked list plus a hash index:
//! O(1) lookup, touch, insert, and evict, with no per-operation allocation
//! once warm (freed slots are reused). The index hashes with
//! [`simkit::hash::FxHasher64`] — the cache sits on the per-event hot path
//! and SipHash was a measurable slice of the lookup cost; bucket placement
//! never feeds back into simulation outputs, so the swap is
//! trace-invariant.

use simkit::hash::FxHashMap;

/// Cache object key (object id in the simulated catalogue).
pub(crate) type ObjectId = u64;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Entry {
    key: ObjectId,
    bytes: u64,
    prev: usize,
    next: usize,
}

/// An LRU cache bounded by total bytes.
#[derive(Debug, Clone)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    map: FxHashMap<ObjectId, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruCache {
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`; on a hit the entry becomes most-recently-used.
    pub fn get(&mut self, key: ObjectId) -> bool {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.move_to_front(idx);
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Peek without updating recency or hit statistics.
    pub fn contains(&self, key: ObjectId) -> bool {
        self.map.contains_key(&key)
    }

    /// Insert `key` with `bytes`, evicting LRU entries as needed. Objects
    /// larger than the whole capacity are not admitted. If the key is
    /// already present it is refreshed (size updated, moved to front).
    /// Returns true if the object resides in the cache afterwards.
    pub fn insert(&mut self, key: ObjectId, bytes: u64) -> bool {
        if bytes > self.capacity_bytes || bytes == 0 {
            return false;
        }
        if let Some(idx) = self.map.get(&key).copied() {
            // Refresh: adjust accounting for a size change.
            self.used_bytes = self.used_bytes - self.slab[idx].bytes + bytes;
            self.slab[idx].bytes = bytes;
            self.move_to_front(idx);
            self.evict_to_capacity();
            return self.map.contains_key(&key);
        }
        self.evict_until_fits(bytes);
        let entry = Entry {
            key,
            bytes,
            prev: NIL,
            next: self.head,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        self.map.insert(key, idx);
        self.used_bytes += bytes;
        true
    }

    /// Remove a specific key.
    pub fn remove(&mut self, key: ObjectId) -> bool {
        match self.map.remove(&key) {
            Some(idx) => {
                self.unlink(idx);
                self.used_bytes -= self.slab[idx].bytes;
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Evict LRU entries until `used + incoming <= capacity`.
    fn evict_until_fits(&mut self, incoming: u64) {
        while self.used_bytes + incoming > self.capacity_bytes && self.tail != NIL {
            self.evict_lru();
        }
    }

    fn evict_to_capacity(&mut self) {
        while self.used_bytes > self.capacity_bytes && self.tail != NIL {
            self.evict_lru();
        }
    }

    fn evict_lru(&mut self) {
        let idx = self.tail;
        debug_assert!(idx != NIL);
        let key = self.slab[idx].key;
        self.map.remove(&key);
        self.unlink(idx);
        self.used_bytes -= self.slab[idx].bytes;
        self.free.push(idx);
        self.evictions += 1;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit ratio of lookups so far (0 when no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut c = LruCache::new(1000);
        assert!(c.insert(1, 100));
        assert!(c.get(1));
        assert!(!c.get(2));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn evicts_lru_order() {
        let mut c = LruCache::new(300);
        c.insert(1, 100);
        c.insert(2, 100);
        c.insert(3, 100);
        // Touch 1 so 2 becomes LRU.
        assert!(c.get(1));
        c.insert(4, 100);
        assert!(c.contains(1));
        assert!(!c.contains(2), "2 was LRU and must be evicted");
        assert!(c.contains(3));
        assert!(c.contains(4));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn big_object_evicts_many() {
        let mut c = LruCache::new(300);
        c.insert(1, 100);
        c.insert(2, 100);
        c.insert(3, 100);
        assert!(c.insert(4, 250));
        assert_eq!(c.map.len(), 1);
        assert!(c.contains(4));
        assert_eq!(c.used_bytes(), 250);
    }

    #[test]
    fn oversized_object_rejected() {
        let mut c = LruCache::new(100);
        c.insert(1, 50);
        assert!(!c.insert(2, 150));
        assert!(c.contains(1), "rejection must not disturb residents");
        assert!(!c.insert(3, 0), "zero-size objects are not cacheable");
    }

    #[test]
    fn refresh_updates_size_and_recency() {
        let mut c = LruCache::new(300);
        c.insert(1, 100);
        c.insert(2, 100);
        assert!(c.insert(1, 200)); // refresh 1 bigger; 1 becomes MRU
        assert_eq!(c.used_bytes(), 300);
        c.insert(3, 100); // must evict 2 (LRU), not 1
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn remove_frees_space() {
        let mut c = LruCache::new(200);
        c.insert(1, 150);
        assert!(c.remove(1));
        assert!(!c.remove(1));
        assert_eq!(c.used_bytes(), 0);
        assert!(c.insert(2, 200));
    }

    #[test]
    fn slot_reuse_does_not_leak() {
        let mut c = LruCache::new(1000);
        for round in 0..50u64 {
            for k in 0..10u64 {
                c.insert(round * 10 + k, 100);
            }
        }
        // Slab should be bounded by the max resident count, not total
        // inserts.
        assert!(c.slab.len() <= 11, "slab grew to {}", c.slab.len());
        assert_eq!(c.map.len(), 10);
    }

    #[test]
    fn hit_ratio_tracks() {
        let mut c = LruCache::new(1000);
        c.insert(1, 10);
        c.get(1);
        c.get(1);
        c.get(99);
        assert!((c.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_churn_consistency() {
        // Invariant check under a mixed op sequence.
        let mut c = LruCache::new(5_000);
        let mut model: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let k = i % 97;
            let size = 40 + (i % 13) * 17;
            if i % 3 == 0 {
                c.insert(k, size);
            } else if i % 3 == 1 {
                c.get(k);
            } else if i % 7 == 0 {
                c.remove(k);
            }
            model.clear();
        }
        // Accounting invariant: used == sum of resident sizes <= capacity.
        assert!(c.used_bytes() <= c.capacity_bytes);
        let resident: u64 = c.map.values().map(|&idx| c.slab[idx].bytes).sum();
        assert_eq!(resident, c.used_bytes());
    }
}
