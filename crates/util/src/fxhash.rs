//! FxHash-style fast hashing for the detector's hot tables.
//!
//! Shadow-memory lookups happen on *every* instrumented shared-memory access
//! (over 10^9 of them at paper scale), so the default SipHash tables are far
//! too slow. This is the multiply-rotate hash used by rustc (`FxHasher`),
//! reimplemented here because no fast-hash crate is on the approved
//! dependency list. Keys are small dense integers (task/location ids), for
//! which Fx is close to optimal.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with `FxHasher`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with `FxHasher`.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc multiply-rotate hasher. Not DoS-resistant; do not use on
/// attacker-controlled keys. All futrace keys are internally generated ids.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
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
    fn write_u16(&mut self, i: u16) {
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(42u64), hash_one(42u64));
        assert_eq!(hash_one("task"), hash_one("task"));
    }

    #[test]
    fn distinguishes_small_keys() {
        let hashes: Vec<u64> = (0u32..1000).map(hash_one).collect();
        let unique: FxHashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(unique.len(), 1000, "no collisions on dense small ints");
    }

    #[test]
    fn byte_tail_handling() {
        // Exercise the chunks_exact remainder path with 1..16 byte inputs.
        let mut seen = FxHashSet::default();
        for len in 1..16usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            assert!(seen.insert(h.finish()), "len {len} collided");
        }
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m[&1], "one");
        let s: FxHashSet<u32> = [1, 2, 2, 3].into_iter().collect();
        assert_eq!(s.len(), 3);
    }
}
