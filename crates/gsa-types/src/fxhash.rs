//! A fast, non-cryptographic hasher for hot-path maps.
//!
//! The simulation's per-message maps — flood dedup sets, directory
//! caches, timer tombstones — are keyed by short strings or small
//! integers and probed on every routed message. SipHash's DoS
//! resistance buys nothing there (keys are generated by the simulation
//! itself, never by an adversary) and costs a measurable slice of the
//! hot loop, so those maps use this multiply-xor hash instead: the
//! same construction rustc and Firefox use for their internal tables.
//!
//! Do NOT use this for anything fed by external input, and do not rely
//! on iteration order anywhere the hasher choice could leak into
//! observable behaviour — a table that is only ever probed (insert /
//! contains / remove by key) is hasher-order-free by construction.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Multiplier from the 64-bit Fx construction: a rotate, an xor and one
/// multiplication per word folds each input chunk into the state.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The hasher state. Create through [`FxBuildHasher`].
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            let (chunk, tail) = rest.split_at(8);
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
            rest = tail;
        }
        if rest.len() >= 4 {
            let (chunk, tail) = rest.split_at(4);
            self.add(u64::from(u32::from_le_bytes(chunk.try_into().expect("4 bytes"))));
            rest = tail;
        }
        if rest.len() >= 2 {
            let (chunk, tail) = rest.split_at(2);
            self.add(u64::from(u16::from_le_bytes(chunk.try_into().expect("2 bytes"))));
            rest = tail;
        }
        if let Some(&byte) = rest.first() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s; plugs into `HashMap`/`HashSet` as the `S`
/// parameter. Stateless, so every table hashes identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher.hash_one(value)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&"Hamilton"), hash_of(&"Hamilton"));
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(&"gds-1"), hash_of(&"gds-2"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&("Hamilton", 1u64)), hash_of(&("Hamilton", 2u64)));
    }

    #[test]
    fn handles_all_tail_lengths() {
        // 8-byte chunks plus every remainder width (4, 2, 1).
        let keys = ["", "a", "ab", "abc", "abcd", "abcdefg", "abcdefgh", "abcdefghi"];
        let hashes: Vec<u64> = keys.iter().map(hash_of).collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut map: FxHashMap<String, u32> = FxHashMap::default();
        map.insert("k".into(), 1);
        assert_eq!(map.get("k"), Some(&1));
        let mut set: std::collections::HashSet<u64, FxBuildHasher> = Default::default();
        assert!(set.insert(7));
        assert!(set.contains(&7));
    }
}
