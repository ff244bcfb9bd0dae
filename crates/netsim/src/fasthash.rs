//! A small multiplicative hasher for the recorder's and replayer's
//! integer-keyed tables.
//!
//! Every key these maps see is a handful of machine integers produced by
//! the simulator itself (channel `(comm, tag)` pairs, payload sizes,
//! rendezvous ids), so SipHash's flood resistance buys nothing and costs
//! a measurable share of recording time. This is the rotate-xor-multiply
//! step of rustc's `FxHasher`, finished with a rotation so the
//! well-mixed high product bits land in the low bits the table indexes
//! by (sizes are mostly multiples of 8, whose low product bits are zero).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed through [`MulHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// Rotate-xor-multiply hasher over 64-bit words.
#[derive(Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
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
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_keys_spread_over_low_bits() {
        // Payload sizes are multiples of 8: their hashes must still
        // differ in the low bits a table masks with.
        let low: std::collections::HashSet<u64> = (1..=64u64)
            .map(|i| {
                let mut h = MulHasher::default();
                h.write_u64(i * 4096);
                h.finish() & 63
            })
            .collect();
        assert!(
            low.len() > 32,
            "only {} distinct low-bit buckets",
            low.len()
        );
    }
}
