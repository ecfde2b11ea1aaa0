//! A fast, non-cryptographic hasher for integer-keyed hot maps.
//!
//! The workspace's hottest hash maps are keyed by small integers (atom ids,
//! constant ids, tuples of constants). The standard library's SipHash 1-3 is
//! DoS-resistant but slow for these keys; the offline dependency set does not
//! include `rustc-hash`, so this module re-implements the same multiply-xor
//! scheme (the "Fx" hash used throughout rustc). None of the inputs hashed
//! with it are attacker-controlled.
//!
//! [`FxHasher::finish`] folds the state's high half into its low half.
//! std's `HashMap` takes a key's bucket from the *low* bits of the hash,
//! and a multiply carries entropy only upward. A `[u32]` key is written
//! as raw bytes, 8 per word, so every odd element (the second argument
//! of a binary atom, the second column of a row) enters a word's high
//! half. Without the fold those elements never reach the bucket index,
//! and every atom that shares a first argument probes one cluster.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash (64-bit golden
/// ratio approximation).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An `FxHash`-style streaming hasher: per word, `hash = (hash.rotl(5) ^ word) * SEED`.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the product's high half into the low bits the table
        // indexes by. An xor-shift is a bijection, and it maps the 4 096
        // keys `[a, 0..4096]` onto 4 096 distinct 12-bit buckets (a
        // rotation by 26, as in rustc-hash 2, reaches only ≈ 2 000).
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Convenience constructor mirroring `HashMap::with_capacity`.
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

/// Convenience constructor mirroring `HashSet::with_capacity`.
pub fn set_with_capacity<K>(cap: usize) -> FxHashSet<K> {
    FxHashSet::with_capacity_and_hasher(cap, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_integers_hash_distinctly() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        // Fx is not collision-free, but over a small dense range it is.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, String> = map_with_capacity(4);
        m.insert(7, "seven".into());
        m.insert(11, "eleven".into());
        assert_eq!(m.get(&7).map(String::as_str), Some("seven"));
        assert_eq!(m.get(&11).map(String::as_str), Some("eleven"));
        assert_eq!(m.get(&13), None);
    }

    #[test]
    fn slice_keys_spread_over_low_bits() {
        // 4 096 binary atoms sharing their first argument must land in
        // (nearly) 4 096 different buckets of a 4 096-bucket table.
        let low: std::collections::HashSet<u64> = (0u32..4096)
            .map(|i| {
                let mut h = FxHasher::default();
                std::hash::Hash::hash(&[7u32, i][..], &mut h);
                h.finish() & 0xfff
            })
            .collect();
        assert!(low.len() >= 4000, "only {} distinct buckets", low.len());
    }

    #[test]
    fn byte_stream_equivalent_chunking() {
        // Hashing the same bytes must yield the same value regardless of
        // how the caller splits `write` calls at 8-byte boundaries.
        let bytes: Vec<u8> = (0u8..32).collect();
        let mut a = FxHasher::default();
        a.write(&bytes);
        let mut b = FxHasher::default();
        b.write(&bytes[..16]);
        b.write(&bytes[16..]);
        assert_eq!(a.finish(), b.finish());
    }
}
