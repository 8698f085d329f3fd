//! A paged B+tree used for clustered and nonclustered indexes, kept as the
//! sorted array an immutable bulk-loaded tree is.
//!
//! The index stores `(key, RowId)` pairs, where the key is a tuple of
//! [`Value`]s drawn from the indexed columns. It is bulk-loaded once and
//! never changes (the simulator's tables are immutable once generated; there
//! is no `insert`), so no node ever splits and nothing needs nodes to exist:
//! the entries sit in key order in one `keys` column and one `rids` column,
//! and the page structure the logical-read accounting of Index Seek / Index
//! Scan rests on is arithmetic on the entry count and the two fanouts —
//!
//! * a **leaf** is a run of [`LEAF_FANOUT`] consecutive entries: position `p`
//!   is on leaf `p / LEAF_FANOUT`, and there are `⌈len / LEAF_FANOUT⌉` of
//!   them (one, empty, for an empty index);
//! * the **height** is the number of levels a tree packed bottom-up at
//!   `INTERNAL_FANOUT` children per node would have over those leaves.
//!
//! A seek charges `height` reads for the descent plus one per further leaf
//! its forward run crosses; a full scan charges one per leaf. The descent
//! itself is a single binary search over contiguous memory — over plain
//! `i64`s when the index has one key column and every key is an `Int`,
//! which is every primary key the REAL workloads seek, and there it first
//! tries the position an evenly spaced column would put the key at (exact
//! for consecutive keys). A property test holds `seek_range` to a
//! sorted-vector model, rids and reads both.

use crate::table::{Row, RowId};
use crate::value::Value;
use std::cmp::Ordering;

/// Maximum entries per leaf node (tuned small so scaled-down tables still
/// produce multi-level trees).
pub const LEAF_FANOUT: usize = 64;

/// Maximum children per internal node.
pub(crate) const INTERNAL_FANOUT: usize = 64;

/// Every entry's key, in key order.
#[derive(Debug, Clone)]
enum Keys {
    /// One key column and every key a `Value::Int`: the payloads.
    Ints(Vec<i64>),
    /// Anything else, flattened: entry `i`'s key is
    /// `values[i * arity..(i + 1) * arity]`.
    Values(Vec<Value>),
}

/// Order of `key` — of its leading values only when `prefix` — against a
/// seek bound. A bound shorter than the key, compared whole, sorts below
/// every key that extends it.
fn cmp_bound(key: &[Value], bound: &[Value], prefix: bool) -> Ordering {
    let n = if prefix {
        bound.len().min(key.len())
    } else {
        key.len()
    };
    key[..n].cmp(bound)
}

/// The first position in `from..to` at which `below` is false; `below` must
/// be true for a prefix of the range and false for the rest. A `guess` that
/// turns out to be that position is taken on two probes.
fn partition_point(
    from: usize,
    to: usize,
    guess: Option<usize>,
    below: impl Fn(usize) -> bool,
) -> usize {
    if let Some(g) = guess.filter(|g| (from..to).contains(g)) {
        if !below(g) && (g == from || below(g - 1)) {
            return g;
        }
    }
    // The window `base..base + size` always holds the answer or ends just
    // before it. Halving it moves `base` by a select, not by a branch the
    // sought key decides: a random key mispredicts every other level.
    let (mut base, mut size) = (from, to - from);
    while size > 1 {
        let half = size / 2;
        if below(base + half - 1) {
            base += half;
        }
        size -= half;
    }
    base + usize::from(size == 1 && below(base))
}

/// A B+tree index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    name: String,
    /// Ordinals of the indexed columns in the base table schema. Their
    /// count is the key arity.
    key_columns: Vec<usize>,
    /// Whether the key is unique (PK indexes): an equality seek on the full
    /// key returns at most one row, which the planner exploits for bounds.
    unique: bool,
    keys: Keys,
    /// `rids[i]` is entry `i`'s row. Duplicate keys are in rid order.
    rids: Vec<RowId>,
}

impl BTreeIndex {
    /// Bulk-load an index over `key_columns` of a table's `rows` (in any
    /// order), whose positions are their rids. The keys are read where they
    /// lie: nothing is allocated per row, only the sorted columns.
    ///
    /// # Panics
    /// Panics if `key_columns` is empty or names a column a row lacks.
    pub(crate) fn bulk_load(
        name: impl Into<String>,
        key_columns: Vec<usize>,
        rows: &[Row],
    ) -> Self {
        let arity = key_columns.len();
        assert!(arity > 0, "an index needs at least one key column");
        let key = |rid: RowId| key_columns.iter().map(move |&c| &rows[rid][c]);
        let int_key = |rid: RowId| match rows[rid][key_columns[0]] {
            Value::Int(k) => Some(k),
            _ => None,
        };
        let (unique, keys, rids);
        if arity == 1 && (0..rows.len()).all(|rid| int_key(rid).is_some()) {
            let mut ints: Vec<(i64, RowId)> = (0..rows.len())
                .map(|rid| (int_key(rid).expect("checked above"), rid))
                .collect();
            ints.sort_unstable();
            unique = ints.windows(2).all(|w| w[0].0 != w[1].0);
            keys = Keys::Ints(ints.iter().map(|&(k, _)| k).collect());
            rids = ints.iter().map(|&(_, rid)| rid).collect();
        } else {
            let mut order: Vec<RowId> = (0..rows.len()).collect();
            order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)).then(a.cmp(&b)));
            unique = order.windows(2).all(|w| key(w[0]).ne(key(w[1])));
            // Exactly sized: `flat_map` has no size hint to collect by.
            let mut values = Vec::with_capacity(rows.len() * arity);
            for &rid in &order {
                values.extend(key(rid).cloned());
            }
            keys = Keys::Values(values);
            rids = order;
        }
        BTreeIndex {
            name: name.into(),
            key_columns,
            unique,
            keys,
            rids,
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Indexed column ordinals.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// Whether the key is unique (no duplicate key values at load time).
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rids.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.rids.is_empty()
    }

    /// Tree height (levels from root to leaf inclusive); seeks charge this
    /// many logical reads.
    pub fn height(&self) -> usize {
        let mut height = 1;
        let mut level = self.leaf_count();
        while level > 1 {
            level = level.div_ceil(INTERNAL_FANOUT);
            height += 1;
        }
        height
    }

    /// Number of leaf nodes; a full index scan charges this many reads.
    pub fn leaf_count(&self) -> usize {
        self.len().div_ceil(LEAF_FANOUT).max(1)
    }

    /// Every entry's rid, in key order. The entry at position `p` is on
    /// leaf `p / LEAF_FANOUT`, which is how a scan charges one read per
    /// leaf.
    pub fn rids(&self) -> &[RowId] {
        &self.rids
    }

    /// All `(key, rid)` entries whose key equals `key` exactly.
    ///
    /// Returns the matches plus the number of logical reads performed
    /// (`height` for the root-to-leaf walk, plus one per extra leaf walked
    /// through for duplicate runs).
    #[cfg(test)]
    pub(crate) fn seek(&self, key: &[Value]) -> (Vec<RowId>, usize) {
        self.seek_range(Some(key), true, Some(key), true)
    }

    /// Range seek: rids with `lo <(=) key <(=) hi`; `None` bound = unbounded.
    /// Returns matching rids in key order and the logical reads charged.
    #[cfg(test)]
    pub(crate) fn seek_range(
        &self,
        lo: Option<&[Value]>,
        lo_inclusive: bool,
        hi: Option<&[Value]>,
        hi_inclusive: bool,
    ) -> (Vec<RowId>, usize) {
        let mut out = Vec::new();
        let reads = self.seek_range_into(lo, lo_inclusive, hi, hi_inclusive, &mut out);
        (out, reads)
    }

    /// Range seek (`lo <(=) key <(=) hi`) into a caller-owned buffer:
    /// `out` is cleared, filled with the matching rids in key order, and
    /// the logical reads charged are returned. A correlated seek rebinds
    /// once per outer row; reusing one buffer spares it an allocation each
    /// time.
    ///
    /// A bound shorter than the key is a *prefix*: it is compared against
    /// the key's leading values only, so composite keys can be sought on
    /// their leading columns.
    pub fn seek_range_into(
        &self,
        lo: Option<&[Value]>,
        lo_inclusive: bool,
        hi: Option<&[Value]>,
        hi_inclusive: bool,
        out: &mut Vec<RowId>,
    ) -> usize {
        let lo = lo.map(|b| (b, lo_inclusive));
        let hi = hi.map(|b| (b, hi_inclusive));
        match &self.keys {
            Keys::Ints(ints) => {
                // Where an `Int` bound would sit if the keys were evenly
                // spaced, which consecutive primary keys are.
                let guess = |bound: &[Value]| match (bound, &ints[..]) {
                    ([Value::Int(b)], [first, .., last]) => {
                        let span = (*last as f64 - *first as f64).max(1.0);
                        let at = (*b as f64 - *first as f64) * (ints.len() - 1) as f64 / span;
                        Some(at as usize)
                    }
                    _ => None,
                };
                self.seek_by(lo, hi, out, guess, |i, bound, prefix| match bound {
                    [Value::Int(b)] => ints[i].cmp(b),
                    _ => cmp_bound(&[Value::Int(ints[i])], bound, prefix),
                })
            }
            Keys::Values(values) => {
                let arity = self.key_columns.len();
                let key = |i: usize| &values[i * arity..(i + 1) * arity];
                let cmp = |i: usize, bound: &[Value], prefix| cmp_bound(key(i), bound, prefix);
                self.seek_by(lo, hi, out, |_| None, cmp)
            }
        }
    }

    /// The seek proper, over whichever key column the index has:
    /// `cmp(i, bound, prefix)` orders entry `i`'s key against `bound` as
    /// [`cmp_bound`] does, and `guess(bound)` is where the column expects
    /// `bound` to sit, if it can say.
    ///
    /// The descent lands on the last leaf whose smallest key sorts below
    /// `lo` (a run of duplicates can start before the leaf a separator
    /// names), and the forward run ends on the leaf of the first entry at
    /// or above `lo` that fails `hi`, or on the last leaf.
    #[inline]
    fn seek_by(
        &self,
        lo: Option<(&[Value], bool)>,
        hi: Option<(&[Value], bool)>,
        out: &mut Vec<RowId>,
        guess: impl Fn(&[Value]) -> Option<usize>,
        cmp: impl Fn(usize, &[Value], bool) -> Ordering,
    ) -> usize {
        out.clear();
        let len = self.rids.len();
        let (mut pos, mut lo_leaf) = (0, 0);
        if let Some((lo, inclusive)) = lo {
            pos = partition_point(0, len, guess(lo), |i| cmp(i, lo, false).is_lt());
            lo_leaf = pos.saturating_sub(1) / LEAF_FANOUT;
            if !inclusive {
                // Compared whole, a key that extends an exclusive prefix
                // bound sorts above it; the prefix check below drops it.
                pos = partition_point(pos, len, None, |i| cmp(i, lo, false).is_le());
            }
        }
        let mut hi_leaf = self.leaf_count() - 1;
        while pos < len {
            if let Some((hi, inclusive)) = hi {
                let ord = cmp(pos, hi, true);
                if ord.is_gt() || (ord.is_eq() && !inclusive) {
                    hi_leaf = pos / LEAF_FANOUT;
                    break;
                }
            }
            if lo.is_none_or(|(lo, inclusive)| inclusive || cmp(pos, lo, true).is_gt()) {
                out.push(self.rids[pos]);
            }
            pos += 1;
        }
        self.height() + (hi_leaf - lo_leaf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row per key, holding just the key: row `i` is rid `i`.
    fn rows(keys: impl IntoIterator<Item = Vec<Value>>) -> Vec<Row> {
        keys.into_iter().map(Row::from).collect()
    }

    fn build(n: i64) -> BTreeIndex {
        let rows = rows((0..n).map(|i| vec![Value::Int(i)]));
        BTreeIndex::bulk_load("ix", vec![0], &rows)
    }

    #[test]
    fn empty_tree() {
        let t = build(0);
        assert!(t.is_empty());
        assert_eq!(t.seek(&[Value::Int(5)]).0, Vec::<RowId>::new());
        assert!(t.rids().is_empty());
        assert_eq!((t.height(), t.leaf_count()), (1, 1));
    }

    #[test]
    fn point_seek_finds_exact() {
        let t = build(1000);
        let (rids, reads) = t.seek(&[Value::Int(123)]);
        assert_eq!(rids, vec![123]);
        assert!(reads >= t.height());
    }

    #[test]
    fn point_seek_missing_key() {
        let t = build(100);
        let (rids, _) = t.seek(&[Value::Int(100)]);
        assert!(rids.is_empty());
    }

    #[test]
    fn duplicates_all_returned() {
        let rows = rows((0..500).map(|i| vec![Value::Int(i % 7)]));
        let t = BTreeIndex::bulk_load("ix", vec![0], &rows);
        let (rids, _) = t.seek(&[Value::Int(3)]);
        assert_eq!(rids.len(), 500 / 7 + usize::from(3 < 500 % 7));
        // All returned rids actually have key 3.
        for r in rids {
            assert_eq!(r % 7, 3);
        }
    }

    #[test]
    fn range_seek_inclusive_exclusive() {
        let t = build(100);
        let lo = [Value::Int(10)];
        let hi = [Value::Int(20)];
        let (rids, _) = t.seek_range(Some(&lo), true, Some(&hi), false);
        assert_eq!(rids, (10..20).map(|i| i as RowId).collect::<Vec<_>>());
        let (rids, _) = t.seek_range(Some(&lo), false, Some(&hi), true);
        assert_eq!(rids, (11..=20).map(|i| i as RowId).collect::<Vec<_>>());
    }

    #[test]
    fn unbounded_range_is_full_scan() {
        let t = build(321);
        let (rids, _) = t.seek_range(None, true, None, true);
        assert_eq!(rids.len(), 321);
    }

    #[test]
    fn scan_yields_sorted_and_charges_leaves() {
        // Loaded in reverse, so key order is not rid order.
        let rows = rows((0..1000).map(|i| vec![Value::Int(999 - i)]));
        let t = BTreeIndex::bulk_load("ix", vec![0], &rows);
        let want: Vec<RowId> = (0..1000).rev().collect();
        assert_eq!(t.rids(), want);
        let max_leaf = (t.rids().len() - 1) / LEAF_FANOUT;
        assert_eq!(max_leaf + 1, t.leaf_count());
    }

    /// `height` and `leaf_count` feed the planner's seek costs and the
    /// estimator's `total_pages`, so they are pinned at every boundary of
    /// the two fanouts, against the level-by-level packing a bulk load does:
    /// chunk the entries into leaves, then each level into parents, until
    /// one node is left.
    #[test]
    fn height_and_leaf_count_are_the_packed_trees() {
        for len in [0, 1, 64, 65, 4_096, 4_097, 262_144, 262_145] {
            let leaves = (0..len).step_by(LEAF_FANOUT).count().max(1);
            let (mut level, mut height) = (leaves, 1);
            while level > 1 {
                level = (0..level).step_by(INTERNAL_FANOUT).count();
                height += 1;
            }
            let t = build(len as i64);
            assert_eq!((t.leaf_count(), t.height()), (leaves, height), "len {len}");
        }
        let shape = |n| {
            let t = build(n);
            (t.leaf_count(), t.height())
        };
        assert_eq!(shape(64), (1, 1));
        assert_eq!(shape(65), (2, 2));
        assert_eq!(shape(4_096), (64, 2));
        assert_eq!(shape(4_097), (65, 3));
        assert_eq!(shape(262_144), (4_096, 3));
        assert_eq!(shape(262_145), (4_097, 4));
    }

    #[test]
    fn multi_level_height() {
        // 100k entries / 64 per leaf ≈ 1563 leaves / 64 ≈ 25 internals / root.
        let t = build(100_000);
        assert_eq!(t.height(), 3);
        assert!(t.leaf_count() >= 100_000 / LEAF_FANOUT);
    }

    #[test]
    fn composite_key_prefix_seek() {
        // Key (a, b); seek on prefix a=2 must return all b values.
        let rows = rows((0..100).map(|i| vec![Value::Int(i / 10), Value::Int(i % 10)]));
        let t = BTreeIndex::bulk_load("ix", vec![0, 1], &rows);
        let (rids, _) = t.seek(&[Value::Int(2)]);
        assert_eq!(rids, (20..30).map(|i| i as RowId).collect::<Vec<_>>());
    }

    // ---- seek_range against a sorted-vector model ----------------------

    type Bound = Option<(Vec<Value>, bool)>;

    /// Order of `key`'s leading values against a (possibly shorter) bound.
    fn cmp_prefix(key: &[Value], bound: &[Value]) -> std::cmp::Ordering {
        key[..bound.len().min(key.len())].cmp(bound)
    }

    /// What `seek_range` must return, worked out on a sorted `Vec` with no
    /// tree: the rids are a filter; the reads follow from cutting the
    /// vector into `LEAF_FANOUT`-entry leaves, starting at the last leaf
    /// whose smallest key sorts below `lo`, and walking right until an entry
    /// at or above `lo` fails `hi`.
    fn model(entries: &[(Vec<Value>, RowId)], lo: &Bound, hi: &Bound) -> (Vec<RowId>, usize) {
        let mut sorted = entries.to_vec();
        sorted.sort();
        let lo_ok = |k: &[Value]| match lo {
            None => true,
            Some((b, true)) => cmp_prefix(k, b).is_ge(),
            Some((b, false)) => cmp_prefix(k, b).is_gt(),
        };
        let hi_ok = |k: &[Value]| match hi {
            None => true,
            Some((b, true)) => cmp_prefix(k, b).is_le(),
            Some((b, false)) => cmp_prefix(k, b).is_lt(),
        };
        let rids = sorted
            .iter()
            .filter(|(k, _)| lo_ok(k) && hi_ok(k))
            .map(|&(_, rid)| rid)
            .collect();

        let leaves = sorted.len().div_ceil(LEAF_FANOUT).max(1);
        let mut height = 1;
        let mut level = leaves;
        while level > 1 {
            level = level.div_ceil(INTERNAL_FANOUT);
            height += 1;
        }
        let start = match lo {
            None => 0,
            Some((b, _)) => (1..leaves)
                .rev()
                .find(|&j| sorted[j * LEAF_FANOUT].0.as_slice() < b.as_slice())
                .unwrap_or(0),
        };
        // Whole-key order decides where the walk starts looking at `hi`.
        let at_or_above_lo = |k: &[Value]| match lo {
            None => true,
            Some((b, true)) => k >= b.as_slice(),
            Some((b, false)) => k > b.as_slice(),
        };
        let last = sorted
            .iter()
            .enumerate()
            .skip(start * LEAF_FANOUT)
            .find(|(_, (k, _))| at_or_above_lo(k) && !hi_ok(k))
            .map_or(leaves - 1, |(i, _)| i / LEAF_FANOUT);
        (rids, height + (last - start))
    }

    fn check_against_model(arity: usize, entries: &[(Vec<Value>, RowId)], lo: &Bound, hi: &Bound) {
        // An index is loaded over rows, so an entry's rid is its position.
        assert!(entries.iter().enumerate().all(|(i, (_, rid))| *rid == i));
        let rows = rows(entries.iter().map(|(k, _)| k.clone()));
        let tree = BTreeIndex::bulk_load("ix", (0..arity).collect(), &rows);
        let bound = |b: &Bound| b.as_ref().is_none_or(|(_, inc)| *inc);
        let got = tree.seek_range(
            lo.as_ref().map(|(k, _)| k.as_slice()),
            bound(lo),
            hi.as_ref().map(|(k, _)| k.as_slice()),
            bound(hi),
        );
        assert_eq!(
            got,
            model(entries, lo, hi),
            "arity {arity}, {} entries, lo {lo:?}, hi {hi:?}",
            entries.len()
        );
    }

    #[test]
    fn model_on_the_empty_tree() {
        let five: Bound = Some((vec![Value::Int(5)], true));
        for (lo, hi) in [
            (None, None),
            (five.clone(), None),
            (None, five.clone()),
            (five.clone(), five),
        ] {
            check_against_model(1, &[], &lo, &hi);
        }
        assert_eq!(build(0).seek_range(None, true, None, true), (vec![], 1));
    }

    /// Every pairing of `bounds` (each inclusive and exclusive, and the
    /// unbounded side) as `lo` and `hi` over `entries`.
    fn check_all_pairs(arity: usize, entries: &[(Vec<Value>, RowId)], bounds: &[Vec<Value>]) {
        let sides: Vec<Bound> = std::iter::once(None)
            .chain(
                bounds
                    .iter()
                    .flat_map(|b| [true, false].map(|inclusive| Some((b.clone(), inclusive)))),
            )
            .collect();
        for lo in &sides {
            for hi in &sides {
                check_against_model(arity, entries, lo, hi);
            }
        }
    }

    /// The `Ints` arm answers a bound that is not one `Int` through
    /// `Value::cmp`, and keys that are not all `Int`, or not alone, take the
    /// generic arm: the model holds rids and reads on all of them.
    #[test]
    fn typed_and_generic_keys_match_the_model() {
        // 600 entries over ten leaves, loaded out of key order.
        let ints = |key: fn(i64) -> Vec<Value>| -> Vec<(Vec<Value>, RowId)> {
            (0..600).map(|i| (key(i * 7 % 600), i as RowId)).collect()
        };
        let scalars = [
            Value::Null,
            Value::Float(-5.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(2.5),
            Value::Float(99.5),
            Value::Float(1e9),
            Value::Int(50),
            Value::Int(199),
            Value::Date(3),
        ];
        let single: Vec<Vec<Value>> = scalars.iter().map(|v| vec![v.clone()]).collect();
        check_all_pairs(1, &ints(|i| vec![Value::Int(i / 3)]), &single);
        // Evenly spaced keys, where the guessed position is the answer for
        // a bound on a key and one off for a bound between two.
        check_all_pairs(1, &ints(|i| vec![Value::Int(i)]), &single);
        check_all_pairs(1, &ints(|i| vec![Value::Int(3 * i - 100)]), &single);
        check_all_pairs(1, &ints(|i| vec![Value::Float(i as f64 / 4.0)]), &single);
        check_all_pairs(1, &ints(|i| vec![Value::Date((i / 2) as i32)]), &single);

        let mut composite = single[..8].to_vec();
        composite.extend([
            vec![],
            vec![Value::Int(7), Value::Int(2)],
            vec![Value::Float(7.0), Value::Float(1.5)],
            vec![Value::Int(19), Value::Null],
        ]);
        let pairs = ints(|i| vec![Value::Int(i / 30), Value::Int(i % 4)]);
        check_all_pairs(2, &pairs, &composite);
    }

    use proptest::prelude::*;

    /// A bound before it is cut to the case's arity and key domain:
    /// `(values kept, first value, second value, inclusive)`.
    fn raw_bound() -> impl Strategy<Value = Option<(usize, i64, i64, bool)>> {
        prop::option::weighted(0.85, (1usize..=2, 0i64..1_000, -1i64..5, any::<bool>()))
    }

    /// Raw `(first, second)` key values for three tree shapes: one or two
    /// leaves, several leaves, and enough leaves for a third level.
    fn raw_keys() -> impl Strategy<Value = Vec<(i64, i64)>> {
        let key = || (0i64..1_000, 0i64..4);
        prop_oneof![
            prop::collection::vec(key(), 0..200),
            prop::collection::vec(key(), 200..700),
            prop::collection::vec(key(), 4_000..4_600),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn seek_range_matches_sorted_vec_model(
            arity in 1usize..=2,
            // The first key column is folded into a domain this small, so
            // duplicate runs span several leaves.
            dom in 1i64..40,
            keys in raw_keys(),
            lo in raw_bound(),
            hi in raw_bound(),
        ) {
            let entries: Vec<(Vec<Value>, RowId)> = keys
                .iter()
                .enumerate()
                .map(|(rid, &(a, b))| {
                    let mut key = vec![Value::Int(a % dom), Value::Int(b)];
                    key.truncate(arity);
                    (key, rid)
                })
                .collect();
            // Bound values reach two past either end of the domain, so keys
            // missing below and above every entry are sought too.
            let bound = |raw: Option<(usize, i64, i64, bool)>| -> Bound {
                raw.map(|(len, a, b, inclusive)| {
                    let mut key = vec![Value::Int(a % (dom + 4) - 2), Value::Int(b)];
                    key.truncate(len.min(arity));
                    (key, inclusive)
                })
            };
            check_against_model(arity, &entries, &bound(lo), &bound(hi));
        }
    }
}
