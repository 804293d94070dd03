//! A fixed multiply-shift hasher for tables keyed by the simulator's own
//! integers.
//!
//! `std`'s default `RandomState` runs SipHash-1-3 with a per-process random
//! key, which buys resistance to keys an adversary chooses. The tables that
//! use [`FastHash`] are keyed by values a run makes itself (a sender's
//! sequence numbers, `(node, entry)` pairs of ids that frame validation
//! bounds), so a peer cannot flood one bucket, and one folded 64×64-bit
//! multiply per word does the job. Hashing is fixed, not keyed per process;
//! no table built on it is ever iterated in an order that leaves it, so
//! determinism does not depend on it either way.

use std::hash::{BuildHasherDefault, Hasher};

/// The `BuildHasher` of [`MulHasher`]: use as the `S` of a `HashMap` or
/// `HashSet` and build the table with `default()`.
pub type FastHash = BuildHasherDefault<MulHasher>;

/// Odd 64-bit multiplier (the golden-ratio constant).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds each word in with one full-width multiply whose high and low
/// halves are XORed, so both ends of the hash depend on every input bit:
/// hashbrown takes its bucket from the low bits and its tag from the top
/// seven.
#[derive(Debug, Clone, Copy)]
pub struct MulHasher(u64);

impl Default for MulHasher {
    fn default() -> Self {
        // A non-zero start, so a leading zero word still moves the state.
        MulHasher(K)
    }
}

#[inline]
fn fold_mul(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

impl Hasher for MulHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = fold_mul(self.0 ^ word, K);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    fn hash<T: std::hash::Hash>(value: T) -> u64 {
        FastHash::default().hash_one(value)
    }

    #[test]
    fn sequential_keys_spread_over_low_bits_and_top_tags() {
        // A sender's sequence numbers: its id in the high word, a counter
        // in the low one. 4096 of them must fill most of 4096 buckets and
        // most of the 128 seven-bit tags.
        let seqs = (0..4096u64).map(|c| 7 << 32 | c);
        let buckets: HashSet<u64> = seqs.clone().map(|s| hash(s) & 4095).collect();
        let tags: HashSet<u64> = seqs.map(|s| hash(s) >> 57).collect();
        assert!(buckets.len() > 2400, "{} buckets", buckets.len());
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn pairs_are_ordered_and_a_leading_zero_counts() {
        assert_ne!(hash((1u32, 2u32)), hash((2u32, 1u32)));
        assert_ne!(hash((0u32, 5u32)), hash(5u32));
        assert_eq!(hash((3u32, 4u32)), hash((3u32, 4u32)));
    }
}
