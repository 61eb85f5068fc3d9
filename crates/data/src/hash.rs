//! Fast deterministic hashing for embedding keys.
//!
//! The engine's per-sample hot paths — gradient aggregation, batch
//! deduplication, cache index lookups — all key hash tables by a [`Key`]
//! (`u64`). `std`'s default SipHash is DoS-resistant but costs tens of
//! nanoseconds per probe, which at ~10k probes per step across 8 trainers
//! is a measurable slice of the step budget on a commodity host. Keys here
//! are row indices from a trusted trace, not attacker-controlled input, so
//! the tables use a splitmix64-finalizer hash instead: three multiplies and
//! three shifts, with full avalanche so both hashbrown's group-index (low)
//! bits and control (high) bits are well distributed.
//!
//! The hash is a pure function of the key — no per-process random state —
//! so iteration-order-sensitive bugs reproduce across runs (the schedule
//! explorer relies on runs being replayable).
//!
//! The same finalizer, [`fmix64`], is the workload's one counter hash: trace
//! seeds, latent weights, initial embedding rows and the stand-in model's
//! targets are all `fmix64` of a linear combination of their inputs, and
//! [`counter_row`] computes a whole row of such values in one loop the
//! compiler can vectorize.

use crate::trace::Key;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`Hasher`] for `u64` keys: the splitmix64 finalizer.
///
/// Only `write_u64`/`write_usize` are on the hot path; other inputs fold
/// bytes through the same mixer so composite keys still hash correctly.
#[derive(Debug, Default, Clone)]
pub struct KeyHasher(u64);

/// The splitmix64 finalizer: a bijection on `u64` with full avalanche.
#[inline(always)]
pub fn fmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fills `out` with the counter hashes of `base`, mapped into
/// `[-0.5, 0.5]`: `out[d] = (fmix64(base + d·0xBF58_476D_1CE4_E5B9) as f64
/// / u64::MAX as f64) as f32 − 0.5`, wrapping arithmetic.
///
/// Each element depends on `base` and `d` alone, so the loop has no carried
/// state: compiled for a wider instruction set it runs several lanes at
/// once, and every lane computes exactly the scalar value.
#[inline(always)]
pub fn counter_row(base: u64, out: &mut [f32]) {
    for (d, o) in out.iter_mut().enumerate() {
        let z = fmix64(base.wrapping_add((d as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)));
        *o = (z as f64 / u64::MAX as f64) as f32 - 0.5;
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = fmix64(self.0.wrapping_add(n).wrapping_add(0x9E37_79B9_7F4A_7C15));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }
}

/// The [`std::hash::BuildHasher`] for [`KeyHasher`] tables.
pub type KeyBuildHasher = BuildHasherDefault<KeyHasher>;

/// A `HashMap` keyed by [`Key`] with the fast deterministic hasher.
pub type KeyHashMap<V> = HashMap<Key, V, KeyBuildHasher>;

/// A `HashSet` of [`Key`]s with the fast deterministic hasher.
pub type KeyHashSet = HashSet<Key, KeyBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_set_roundtrip() {
        let mut m: KeyHashMap<usize> = KeyHashMap::default();
        let mut s: KeyHashSet = KeyHashSet::default();
        for k in 0..10_000u64 {
            m.insert(k, k as usize * 3);
            s.insert(k * 7);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&1234), Some(&3702));
        assert!(s.contains(&(9999 * 7)));
        assert!(!s.contains(&3));
    }

    #[test]
    fn hash_is_deterministic_and_avalanches() {
        let h = |k: u64| {
            let mut hasher = KeyHasher::default();
            hasher.write_u64(k);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        // Sequential keys must not produce sequential hashes (low bits
        // index hashbrown groups; a weak mixer would cluster them).
        let lows: std::collections::HashSet<u64> = (0..1024).map(|k| h(k) & 0x7F).collect();
        assert!(lows.len() > 100, "low bits collapsed: {}", lows.len());
        let highs: std::collections::HashSet<u64> = (0..1024).map(|k| h(k) >> 57).collect();
        assert!(highs.len() > 100, "high bits collapsed: {}", highs.len());
    }

    #[test]
    fn byte_writes_fold_to_same_width() {
        // Hashing via `write` must be a valid hash too (composite keys).
        let mut a = KeyHasher::default();
        a.write(&123u64.to_le_bytes());
        let mut b = KeyHasher::default();
        b.write_u64(123);
        assert_eq!(a.finish(), b.finish());
    }
}
