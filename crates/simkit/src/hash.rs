//! A fast, deterministic hasher for simulation-internal maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs ~10x more than the
//! simulator needs for its integer-keyed index maps (the LRU caches hash
//! one `u64` per lookup on the event hot path). [`FxHasher64`] is the
//! multiply-xor scheme used by rustc's `FxHashMap`: one wrapping multiply
//! per word, zero setup.
//!
//! Determinism note: hashers only affect *bucket placement*, never the
//! contents of a map, so swapping one in cannot change simulation outputs
//! — unless code iterates a map in storage order. Nothing in the hot path
//! does (and the seeded golden-trace tests would catch it if it crept in).
//! Unlike `RandomState`, this hasher is also stable across processes,
//! which removes a source of run-to-run allocation jitter in benchmarks.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FxHasher64`]; plug into `HashMap::with_hasher`.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher64>;

/// A `HashMap` using [`FxHasher64`] (drop-in alias).
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (rustc's FxHash, 64-bit variant).
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline(always)]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(w) | ((rem.len() as u64) << 56));
        }
    }

    #[inline(always)]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline(always)]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline(always)]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline(always)]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline(always)]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline(always)]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = FxHasher64::default();
        let mut b = FxHasher64::default();
        a.write_u64(0xdead_beef);
        b.write_u64(0xdead_beef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinct_keys_usually_distinct() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for k in 0..10_000u64 {
            let mut h = FxHasher64::default();
            h.write_u64(k);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "no collisions on sequential keys");
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..1_000u64 {
            m.insert(k, k * 3);
        }
        for k in 0..1_000u64 {
            assert_eq!(m.get(&k), Some(&(k * 3)));
        }
        assert_eq!(m.len(), 1_000);
    }

    #[test]
    fn byte_stream_tail_lengths_differ() {
        // "ab" must not collide with "ab\0" (tail length is mixed in).
        let mut a = FxHasher64::default();
        let mut b = FxHasher64::default();
        a.write(b"ab");
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }
}
