//! A paged B+tree used for clustered and nonclustered indexes.
//!
//! The tree stores `(key, RowId)` pairs, where the key is a tuple of
//! [`Value`]s drawn from the indexed columns. Nodes have a fixed fanout so
//! that tree *height* and *leaf-page counts* are realistic, which in turn
//! makes the logical-read accounting of Index Seek / Index Scan operators
//! realistic — seeks charge `height` reads, range scans charge one read per
//! leaf visited.
//!
//! The tree is bulk-loaded once and never changes (the simulator's tables
//! are immutable once generated; there is no `insert`). That is what lets a
//! node keep its keys *flattened* — one contiguous `Vec<Value>` per node,
//! `key arity` values per entry — instead of one heap-allocated key per
//! entry: a seek's binary searches then walk adjacent memory rather than
//! chasing a pointer per comparison. A property test holds `seek_range` to
//! a sorted-vector model, rids and reads both.

use crate::table::RowId;
use crate::value::Value;
use std::sync::Arc;

/// Composite index key, as handed to [`BTreeIndex::bulk_load`].
pub type Key = Arc<[Value]>;

/// Maximum entries per leaf node (tuned small so scaled-down tables still
/// produce multi-level trees).
pub const LEAF_FANOUT: usize = 64;

/// Maximum children per internal node.
pub const INTERNAL_FANOUT: usize = 64;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// The entries' keys in sorted order, flattened: entry `i`'s key is
        /// `keys[i * arity..(i + 1) * arity]`. Duplicate keys allowed.
        keys: Vec<Value>,
        /// `rids[i]` is entry `i`'s row.
        rids: Vec<RowId>,
        /// Next-leaf link for range scans.
        next: Option<usize>,
    },
    Internal {
        /// Flattened like a leaf's keys: separator `i` is the smallest key
        /// in `children[i + 1]`.
        separators: Vec<Value>,
        children: Vec<usize>,
    },
}

/// Index of the first of the flattened `keys` (`arity` values each) for
/// which `below` is false; `below` must be true for a prefix of the keys
/// and false for the rest.
fn partition_point(keys: &[Value], arity: usize, below: impl Fn(&[Value]) -> bool) -> usize {
    let (mut lo, mut hi) = (0, keys.len() / arity);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(&keys[mid * arity..(mid + 1) * arity]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// All of the `keys`' values (`arity` each), one key after another, in an
/// allocation of exactly that size.
fn flatten<'k>(keys: impl ExactSizeIterator<Item = &'k Key>, arity: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity(keys.len() * arity);
    for key in keys {
        out.extend_from_slice(key);
    }
    out
}

/// A B+tree index over one or more columns of a table.
#[derive(Debug, Clone)]
pub struct BTreeIndex {
    name: String,
    /// Ordinals of the indexed columns in the base table schema. Their
    /// count is the key arity: the stride of every node's flattened keys.
    key_columns: Vec<usize>,
    /// Whether this is the clustered index (leaf = base rows, in our model
    /// the distinction only changes costing done by the planner).
    clustered: bool,
    /// Whether the key is unique (PK indexes): an equality seek on the full
    /// key returns at most one row, which the planner exploits for bounds.
    unique: bool,
    nodes: Vec<Node>,
    root: usize,
    height: usize,
    len: usize,
    first_leaf: usize,
}

impl BTreeIndex {
    /// Bulk-load an index from `(key, rid)` pairs (need not be pre-sorted).
    ///
    /// # Panics
    /// Panics if `key_columns` is empty or a key does not have one value per
    /// key column.
    pub fn bulk_load(
        name: impl Into<String>,
        key_columns: Vec<usize>,
        clustered: bool,
        mut entries: Vec<(Key, RowId)>,
    ) -> Self {
        let arity = key_columns.len();
        assert!(arity > 0, "an index needs at least one key column");
        assert!(
            entries.iter().all(|(k, _)| k.len() == arity),
            "every key must have one value per key column"
        );
        entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let unique = entries.windows(2).all(|w| w[0].0 != w[1].0);
        let len = entries.len();
        let mut nodes = Vec::new();

        // Build leaves.
        let mut level: Vec<(Key, usize)> = Vec::new(); // (min key, node id)
        for chunk in entries.chunks(LEAF_FANOUT) {
            level.push((chunk[0].0.clone(), nodes.len()));
            nodes.push(Node::Leaf {
                keys: flatten(chunk.iter().map(|(k, _)| k), arity),
                rids: chunk.iter().map(|&(_, rid)| rid).collect(),
                next: None,
            });
        }
        drop(entries);
        if nodes.is_empty() {
            level.push((Arc::from(Vec::new()), 0));
            nodes.push(Node::Leaf {
                keys: Vec::new(),
                rids: Vec::new(),
                next: None,
            });
        }
        // Wire the leaf chain: leaves were pushed in key order.
        let leaves = nodes.len();
        for (id, node) in nodes.iter_mut().enumerate().take(leaves - 1) {
            if let Node::Leaf { next, .. } = node {
                *next = Some(id + 1);
            }
        }
        let first_leaf = level[0].1;

        // Build internal levels bottom-up.
        let mut height = 1;
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for chunk in level.chunks(INTERNAL_FANOUT) {
                next_level.push((chunk[0].0.clone(), nodes.len()));
                nodes.push(Node::Internal {
                    separators: flatten(chunk[1..].iter().map(|(k, _)| k), arity),
                    children: chunk.iter().map(|(_, c)| *c).collect(),
                });
            }
            level = next_level;
            height += 1;
        }

        BTreeIndex {
            name: name.into(),
            key_columns,
            clustered,
            unique,
            root: level[0].1,
            nodes,
            height,
            len,
            first_leaf,
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

    /// Whether this is a clustered index.
    pub fn is_clustered(&self) -> bool {
        self.clustered
    }

    /// Whether the key is unique (no duplicate key values at load time).
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (levels from root to leaf inclusive); seeks charge this
    /// many logical reads.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of leaf nodes; a full index scan charges this many reads.
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    fn leaf_for(&self, key: &[Value]) -> usize {
        let arity = self.key_columns.len();
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Leaf { .. } => return node,
                Node::Internal {
                    separators,
                    children,
                } => {
                    // Descend to the leftmost child that may hold `key`: with
                    // duplicate keys a run can span several children, and the
                    // leaf chain walks rightward from wherever we land.
                    node = children[partition_point(separators, arity, |s| s < key)];
                }
            }
        }
    }

    /// All `(key, rid)` entries whose key equals `key` exactly.
    ///
    /// Returns the matches plus the number of logical reads performed
    /// (`height` for the root-to-leaf walk, plus one per extra leaf chained
    /// through for duplicate runs).
    pub fn seek(&self, key: &[Value]) -> (Vec<RowId>, usize) {
        self.seek_range(Some(key), true, Some(key), true)
    }

    /// Range seek: rids with `lo <(=) key <(=) hi`; `None` bound = unbounded.
    /// Returns matching rids in key order and the logical reads charged.
    pub fn seek_range(
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

    /// [`seek_range`](BTreeIndex::seek_range) into a caller-owned buffer:
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
        out.clear();
        let arity = self.key_columns.len();
        let mut reads = self.height;
        let mut leaf = match lo {
            Some(k) => self.leaf_for(k),
            None => self.first_leaf,
        };
        // Whether the walk has reached the first entry at or above `lo`;
        // from there on every entry is.
        let mut above_lo = lo.is_none();
        loop {
            let Node::Leaf { keys, rids, next } = &self.nodes[leaf] else {
                unreachable!("leaf_for returned internal node");
            };
            let mut start = 0;
            if let (false, Some(lo)) = (above_lo, lo) {
                // Compared whole, a key that extends an exclusive prefix
                // bound sorts above it; the prefix check below drops it.
                start =
                    partition_point(keys, arity, |k| if lo_inclusive { k < lo } else { k <= lo });
                above_lo = start < rids.len();
            }
            for (k, &rid) in keys[start * arity..]
                .chunks_exact(arity)
                .zip(&rids[start..])
            {
                if let Some(hi) = hi {
                    let kp = &k[..hi.len().min(arity)];
                    if !(if hi_inclusive { kp <= hi } else { kp < hi }) {
                        return reads;
                    }
                }
                let lo_ok = lo.is_none_or(|lo| {
                    let kp = &k[..lo.len().min(arity)];
                    if lo_inclusive {
                        kp >= lo
                    } else {
                        kp > lo
                    }
                });
                if lo_ok {
                    out.push(rid);
                }
            }
            match next {
                Some(n) => {
                    leaf = *n;
                    reads += 1;
                }
                None => return reads,
            }
        }
    }

    /// Iterate all entries in key order, yielding `(leaf_ordinal, key, rid)`.
    /// The leaf ordinal lets scan operators charge one read per leaf.
    pub fn scan(&self) -> impl Iterator<Item = (usize, &[Value], RowId)> + '_ {
        let arity = self.key_columns.len();
        let nodes = &self.nodes;
        let leaf = move |id: usize| match &nodes[id] {
            Node::Leaf { keys, rids, next } => (keys, rids, *next),
            Node::Internal { .. } => unreachable!("the leaf chain links only leaves"),
        };
        std::iter::successors(Some(self.first_leaf), move |&id| leaf(id).2)
            .enumerate()
            .flat_map(move |(ordinal, id)| {
                let (keys, rids, _) = leaf(id);
                keys.chunks_exact(arity)
                    .zip(rids)
                    .map(move |(k, &rid)| (ordinal, k, rid))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key1(v: i64) -> Key {
        vec![Value::Int(v)].into()
    }

    fn build(n: i64) -> BTreeIndex {
        let entries: Vec<(Key, RowId)> = (0..n).map(|i| (key1(i), i as RowId)).collect();
        BTreeIndex::bulk_load("ix", vec![0], false, entries)
    }

    #[test]
    fn empty_tree() {
        let t = BTreeIndex::bulk_load("ix", vec![0], false, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.seek(&[Value::Int(5)]).0, Vec::<RowId>::new());
        assert_eq!(t.scan().count(), 0);
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
        let entries: Vec<(Key, RowId)> = (0..500).map(|i| (key1(i % 7), i as RowId)).collect();
        let t = BTreeIndex::bulk_load("ix", vec![0], false, entries);
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
        let t = build(1000);
        let items: Vec<_> = t.scan().collect();
        assert_eq!(items.len(), 1000);
        for w in items.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let max_leaf = items.iter().map(|(l, _, _)| *l).max().unwrap();
        assert_eq!(max_leaf + 1, t.leaf_count());
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
        let entries: Vec<(Key, RowId)> = (0..100)
            .map(|i| {
                let k: Key = vec![Value::Int(i / 10), Value::Int(i % 10)].into();
                (k, i as RowId)
            })
            .collect();
        let t = BTreeIndex::bulk_load("ix", vec![0, 1], false, entries);
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
        let tree = BTreeIndex::bulk_load(
            "ix",
            (0..arity).collect(),
            false,
            entries
                .iter()
                .map(|(k, rid)| (Key::from(k.clone()), *rid))
                .collect(),
        );
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
        let t = BTreeIndex::bulk_load("ix", vec![0], false, vec![]);
        assert_eq!(t.seek_range(None, true, None, true), (vec![], 1));
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
