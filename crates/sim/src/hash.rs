//! A small deterministic hasher for the simulator's per-event hash maps.
//!
//! `std`'s default `HashMap` hashes with SipHash-1-3 under a per-process
//! random key. That is a defence against adversarial keys the simulator
//! never sees, and it costs on every lookup: the orchestrator probes maps
//! on DMA completions, deliveries and protocol packets. [`FxHasher`] is the
//! multiply-rotate word hash used by rustc (`rustc-hash`), reimplemented
//! here so the workspace stays dependency-free: a handful of instructions
//! per integer key, and the same value in every process.
//!
//! Fixed hashing does not make iteration order an output: every map on the
//! hot path either is never iterated or has its iteration sorted before it
//! reaches a report (see DESIGN §5c).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Multiplicative constant of the 64-bit Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Deterministic, unkeyed word hasher (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
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
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn fixed_inputs_hash_to_fixed_values() {
        // Pinned values: a change here changes every FxHashMap's layout
        // and must be deliberate. Determinism across processes follows
        // from the hasher having no key.
        assert_eq!(fx(&0u64), 0);
        assert_eq!(fx(&1u64), SEED);
        assert_eq!(fx(&(7u16, 42u64)), 0x0886_8cd7_5bf4_98d1);
        assert_eq!(fx(&"omx"), 0xea6d_782d_ee9f_ace3);
    }
}
