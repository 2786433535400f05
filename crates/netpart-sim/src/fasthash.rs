//! A fast non-cryptographic hasher for the hot-path maps above the
//! simulator.
//!
//! The message layer hits hash maps keyed by small integer ids (message
//! ids, node pairs) once or more per simulated frame. SipHash's
//! per-lookup cost is measurable there and buys nothing: keys are
//! program-generated sequence numbers, so HashDoS resistance is
//! irrelevant. This is the multiply-rotate construction popularized by
//! rustc's FxHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` with the fast hasher.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_set_work() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k, (k * 2) as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&500), Some(&1000));
    }

    #[test]
    fn sequential_keys_spread() {
        // The whole point: sequential ids must not collide into the same
        // few buckets. Check the low bits of the hash vary.
        use std::hash::Hash;
        let mut low_bits = std::collections::HashSet::new();
        for k in 0..64u64 {
            let mut h = FastHasher::default();
            k.hash(&mut h);
            low_bits.insert(h.finish() & 0x3f);
        }
        assert!(low_bits.len() > 32, "only {} distinct", low_bits.len());
    }
}
