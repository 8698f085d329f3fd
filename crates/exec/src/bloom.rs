//! A Bloom filter backing the engine's bitmap semi-join filters (§4.3,
//! Figure 6).
//!
//! SQL Server's "Bitmap" operators are probabilistic: probe-side rows whose
//! join key cannot possibly match the build side are dropped during the
//! scan, but false positives pass through and are eliminated at the join.
//! Modelling that (rather than an exact set) keeps the probe-side scan's
//! output cardinality realistically *above* the join output, like the real
//! engine.

use lqs_storage::Value;
use std::hash::{Hash, Hasher};

/// A fixed-size Bloom filter over composite key values.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    hashes: u32,
    items: usize,
}

impl BloomFilter {
    /// Create a filter sized for roughly `expected_items` with ~1% false
    /// positive rate (10 bits/key, 4 hash functions).
    pub fn with_capacity(expected_items: usize) -> Self {
        let bits_needed = (expected_items.max(64) * 10).next_power_of_two();
        BloomFilter {
            bits: vec![0u64; bits_needed / 64],
            mask: (bits_needed - 1) as u64,
            hashes: 4,
            items: 0,
        }
    }

    /// Values are folded one after another with no length prefix, so a
    /// key hashes the same whether it arrives as a slice or as columns
    /// picked out of a row.
    fn key_hash<'k>(key: impl IntoIterator<Item = &'k Value>, seed: u64) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        seed.hash(&mut h);
        for v in key {
            v.hash(&mut h);
        }
        h.finish()
    }

    /// Insert a composite key, given as its values in order (a `&[Value]`,
    /// or a row's key columns read in place).
    pub fn insert<'k>(&mut self, key: impl IntoIterator<Item = &'k Value> + Clone) {
        for s in 0..self.hashes {
            let bit = Self::key_hash(key.clone(), s as u64) & self.mask;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.items += 1;
    }

    /// Whether the key *may* have been inserted (false positives possible,
    /// false negatives impossible).
    pub fn may_contain<'k>(&self, key: impl IntoIterator<Item = &'k Value> + Clone) -> bool {
        (0..self.hashes).all(|s| {
            let bit = Self::key_hash(key.clone(), s as u64) & self.mask;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Number of keys inserted.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True if nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: i64) -> Vec<Value> {
        vec![Value::Int(v)]
    }

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::with_capacity(10_000);
        for i in 0..10_000 {
            f.insert(&key(i));
        }
        for i in 0..10_000 {
            assert!(f.may_contain(&key(i)), "false negative for {i}");
        }
    }

    #[test]
    fn false_positive_rate_reasonable() {
        let mut f = BloomFilter::with_capacity(10_000);
        for i in 0..10_000 {
            f.insert(&key(i));
        }
        let fps = (10_000..110_000)
            .filter(|&i| f.may_contain(&key(i)))
            .count();
        let rate = fps as f64 / 100_000.0;
        assert!(rate < 0.05, "false positive rate {rate}");
    }

    #[test]
    fn composite_keys() {
        let mut f = BloomFilter::with_capacity(100);
        f.insert(&[Value::Int(1), Value::str("a")]);
        assert!(f.may_contain(&[Value::Int(1), Value::str("a")]));
        assert!(!f.may_contain(&[Value::Int(1), Value::str("b")]));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_capacity(100);
        assert!(f.is_empty());
        assert!(!f.may_contain(&key(1)));
    }
}
