//! Keys in place: hash, compare and null-check a row's key columns without
//! materialising a `Vec<Value>`, and [`KeyTable`], the hash table the hash
//! join and hash aggregate index rows with.
//!
//! Equality and order are [`Value`]'s own (`Int(2) == Float(2.0)`,
//! `Null == Null`); whether a NULL key may match anything is the calling
//! operator's decision, made with [`cols_have_null`] before it hashes.

use lqs_storage::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// The key columns of `row`, in `cols` order.
pub(crate) fn cols_of<'r>(
    row: &'r [Value],
    cols: &'r [usize],
) -> impl Iterator<Item = &'r Value> + Clone {
    cols.iter().map(move |&c| &row[c])
}

/// Whether `a`'s columns `a_cols` equal `b`'s columns `b_cols`, pairwise.
#[inline]
pub(crate) fn cols_eq(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    debug_assert_eq!(a_cols.len(), b_cols.len());
    a_cols.iter().zip(b_cols).all(|(&x, &y)| a[x] == b[y])
}

/// Lexicographic order of `a`'s columns `a_cols` against `b`'s `b_cols`.
#[inline]
pub(crate) fn cols_cmp(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> Ordering {
    debug_assert_eq!(a_cols.len(), b_cols.len());
    a_cols
        .iter()
        .zip(b_cols)
        .map(|(&x, &y)| a[x].cmp(&b[y]))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Whether any key column of `row` is NULL (null keys never join).
#[inline]
pub(crate) fn cols_have_null(row: &[Value], cols: &[usize]) -> bool {
    cols.iter().any(|&c| row[c].is_null())
}

/// Multiply-rotate word folding with an avalanche finish. `Value::hash`
/// feeds `(v as f64).to_bits()`, whose low bits are all zero for small
/// integers, and [`KeyTable`] masks the hash with `buckets - 1`: without
/// the final mix every small-int key lands in a handful of buckets.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// MurmurHash3's 64-bit finalizer: every input bit reaches every output
    /// bit.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// Hash of `row`'s key columns, consistent with [`cols_eq`]: it goes
/// through `Value`'s own `Hash`, so equal keys (`Int(2)` / `Float(2.0)`)
/// hash alike.
#[inline]
pub(crate) fn hash_cols(row: &[Value], cols: &[usize]) -> u64 {
    let mut h = KeyHasher(0);
    for &c in cols {
        row[c].hash(&mut h);
    }
    h.finish()
}

/// "No such group / row" in [`KeyTable`]'s index links.
const NIL: u32 = u32::MAX;

fn link(i: usize) -> u32 {
    let i = u32::try_from(i).expect("KeyTable indexes fewer than 2^32 rows");
    assert_ne!(i, NIL, "KeyTable indexes fewer than 2^32 rows");
    i
}

/// One distinct key: its hash, its rows (a chain through
/// [`KeyTable::row_next`], in insertion order) and the next group of its
/// bucket.
#[derive(Debug, Clone)]
struct Group {
    hash: u64,
    first: u32,
    last: u32,
    next: u32,
}

/// A chained hash multimap from key to row indices. It stores no rows and
/// no keys — the caller owns the rows, numbers them, and says whether a
/// stored row carries the sought key — so an insert or probe allocates
/// nothing and compares columns in place.
///
/// Everything observable is insertion-ordered and deterministic: groups are
/// numbered in the order their first row arrived, and a group's rows come
/// back in the order they were added. Buckets only speed up
/// [`find`](KeyTable::find); nothing may iterate the table in bucket order.
#[derive(Debug, Default)]
pub(crate) struct KeyTable {
    /// Head group of each bucket's chain; the length is a power of two.
    buckets: Vec<u32>,
    groups: Vec<Group>,
    /// Per row index: the next row of the same group. Rows that were never
    /// added (NULL keys) keep their slot and are on no chain.
    row_next: Vec<u32>,
}

impl KeyTable {
    /// Number of distinct keys.
    pub(crate) fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Forget every key and row, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.buckets.fill(NIL);
        self.groups.clear();
        self.row_next.clear();
    }

    /// The group whose key hashes to `hash` and for which `same_key`, given
    /// the group's first row, says yes.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut same_key: impl FnMut(usize) -> bool) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let mut g = self.buckets[hash as usize & (self.buckets.len() - 1)];
        while g != NIL {
            let group = &self.groups[g as usize];
            if group.hash == hash && same_key(group.first as usize) {
                return Some(g as usize);
            }
            g = group.next;
        }
        None
    }

    /// Start a group for a key [`find`](KeyTable::find) did not have, with
    /// `row` as its first row. Returns the group's number: the count of
    /// groups before it.
    pub(crate) fn add_group(&mut self, hash: u64, row: usize) -> usize {
        if self.groups.len() >= self.buckets.len() {
            self.grow();
        }
        let g = self.groups.len();
        let bucket = hash as usize & (self.buckets.len() - 1);
        self.groups.push(Group {
            hash,
            first: link(row),
            last: link(row),
            next: self.buckets[bucket],
        });
        self.buckets[bucket] = link(g);
        self.mark_last(row);
        g
    }

    /// Add `row` to the end of `group`'s chain. Rows of one group must
    /// arrive in increasing index order.
    pub(crate) fn add_row(&mut self, group: usize, row: usize) {
        let last = std::mem::replace(&mut self.groups[group].last, link(row));
        debug_assert!((last as usize) < row, "rows of a group arrive in order");
        self.mark_last(row);
        self.row_next[last as usize] = link(row);
    }

    /// First row of `group`.
    #[inline]
    pub(crate) fn first_row(&self, group: usize) -> usize {
        self.groups[group].first as usize
    }

    /// The row added to `row`'s group after it, if any.
    #[inline]
    pub(crate) fn next_row(&self, row: usize) -> Option<usize> {
        let next = self.row_next[row];
        (next != NIL).then_some(next as usize)
    }

    fn mark_last(&mut self, row: usize) {
        if self.row_next.len() <= row {
            self.row_next.resize(row + 1, NIL);
        }
        self.row_next[row] = NIL;
    }

    /// Double the buckets and re-link every group, in group order.
    fn grow(&mut self) {
        let len = (self.buckets.len() * 2).max(16);
        self.buckets.clear();
        self.buckets.resize(len, NIL);
        for (g, group) in self.groups.iter_mut().enumerate() {
            let bucket = group.hash as usize & (len - 1);
            group.next = std::mem::replace(&mut self.buckets[bucket], g as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index `rows` on `cols` the way the hash join's build does: NULL keys
    /// are skipped (their row index stays unused), everything else goes
    /// under its key. `hash` stands in for [`hash_cols`] so a test can
    /// force collisions.
    fn index(
        rows: &[Vec<Value>],
        cols: &[usize],
        hash: impl Fn(&[Value], &[usize]) -> u64,
    ) -> KeyTable {
        let mut t = KeyTable::default();
        for (i, row) in rows.iter().enumerate() {
            if cols_have_null(row, cols) {
                continue;
            }
            let h = hash(row, cols);
            match t.find(h, |r| cols_eq(&rows[r], cols, row, cols)) {
                Some(g) => t.add_row(g, i),
                None => {
                    t.add_group(h, i);
                }
            }
        }
        t
    }

    fn matches(t: &KeyTable, rows: &[Vec<Value>], cols: &[usize], key: &[Value]) -> Vec<usize> {
        let all: Vec<usize> = (0..key.len()).collect();
        let h = hash_cols(key, &all);
        let Some(g) = t.find(h, |r| cols_eq(&rows[r], cols, key, &all)) else {
            return Vec::new();
        };
        std::iter::successors(Some(t.first_row(g)), |&r| t.next_row(r)).collect()
    }

    #[test]
    fn matches_keep_insertion_order_across_growth() {
        // 5 000 rows over 1 000 keys: the table doubles its buckets several
        // times while chains are already in place.
        let rows: Vec<Vec<Value>> = (0..5_000i64)
            .map(|i| vec![Value::Int(i % 1_000), Value::Int(i)])
            .collect();
        let t = index(&rows, &[0], hash_cols);
        assert_eq!(t.groups(), 1_000);
        for k in [0i64, 1, 17, 999] {
            let got = matches(&t, &rows, &[0], &[Value::Int(k)]);
            let want: Vec<usize> = (0..5).map(|j| (k + 1_000 * j) as usize).collect();
            assert_eq!(got, want, "key {k}");
        }
        assert!(matches(&t, &rows, &[0], &[Value::Int(1_000)]).is_empty());
    }

    #[test]
    fn numeric_equality_follows_value_eq() {
        let rows = vec![
            vec![Value::Int(2)],
            vec![Value::Float(2.0)],
            vec![Value::Float(-0.0)],
            vec![Value::Int(0)],
        ];
        assert_eq!(rows[0][0], rows[1][0]);
        assert_ne!(rows[2][0], rows[3][0]);
        let t = index(&rows, &[0], hash_cols);
        assert_eq!(t.groups(), 3);
        assert_eq!(matches(&t, &rows, &[0], &[Value::Float(2.0)]), vec![0, 1]);
        assert_eq!(matches(&t, &rows, &[0], &[Value::Int(0)]), vec![3]);
        assert_eq!(matches(&t, &rows, &[0], &[Value::Float(-0.0)]), vec![2]);
    }

    #[test]
    fn null_key_rows_are_stored_but_unreachable() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(7)],
            vec![Value::Null, Value::Int(7)],
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(1), Value::Int(7)],
        ];
        let t = index(&rows, &[0, 1], hash_cols);
        assert_eq!(t.groups(), 1);
        // Rows 1 and 2 keep their indices (row 3 is still row 3) but sit on
        // no chain.
        assert_eq!(
            matches(&t, &rows, &[0, 1], &[Value::Int(1), Value::Int(7)]),
            vec![0, 3]
        );
    }

    #[test]
    fn colliding_hashes_stay_separate_groups() {
        let rows: Vec<Vec<Value>> = (0..40i64).map(|i| vec![Value::Int(i % 4)]).collect();
        let t = index(&rows, &[0], |_, _| 0xdead_beef);
        assert_eq!(t.groups(), 4);
        for k in 0..4usize {
            let g = t
                .find(0xdead_beef, |r| rows[r][0] == Value::Int(k as i64))
                .expect("group present");
            let chain: Vec<usize> =
                std::iter::successors(Some(t.first_row(g)), |&r| t.next_row(r)).collect();
            assert_eq!(chain, (0..10).map(|j| k + 4 * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn groups_counts_distinct_keys_like_the_map_it_replaced() {
        use std::collections::BTreeMap;
        let rows: Vec<Vec<Value>> = (0..3_000i64)
            .map(|i| {
                let a = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 37)
                };
                vec![a, Value::str(format!("s{}", i % 5))]
            })
            .collect();
        let mut map: BTreeMap<Vec<Value>, Vec<usize>> = BTreeMap::new();
        for (i, r) in rows.iter().enumerate() {
            if !r.iter().any(Value::is_null) {
                map.entry(r.clone()).or_default().push(i);
            }
        }
        let t = index(&rows, &[0, 1], hash_cols);
        assert_eq!(t.groups(), map.len());
        for (key, want) in &map {
            assert_eq!(&matches(&t, &rows, &[0, 1], key), want);
        }
    }

    #[test]
    fn small_int_keys_spread_over_buckets() {
        // The pitfall the avalanche step exists for: `(i as f64).to_bits()`
        // has 40+ zero low bits for small i.
        let mut used = std::collections::HashSet::new();
        for i in 0..1_024i64 {
            used.insert(hash_cols(&[Value::Int(i)], &[0]) & 1_023);
        }
        assert!(used.len() > 600, "only {} of 1024 buckets used", used.len());
    }

    #[test]
    fn clear_empties_the_table() {
        let rows: Vec<Vec<Value>> = (0..100i64).map(|i| vec![Value::Int(i)]).collect();
        let mut t = index(&rows, &[0], hash_cols);
        t.clear();
        assert_eq!(t.groups(), 0);
        assert!(matches(&t, &rows, &[0], &[Value::Int(5)]).is_empty());
    }

    #[test]
    fn column_helpers_follow_slice_semantics() {
        let a = [Value::Int(1), Value::Int(5), Value::Null];
        let b = [Value::Int(5), Value::Int(1)];
        assert!(cols_eq(&a, &[0, 1], &b, &[1, 0]));
        assert_eq!(cols_cmp(&a, &[0, 1], &b, &[0, 1]), Ordering::Less);
        assert_eq!(cols_cmp(&a, &[1, 0], &b, &[0, 1]), Ordering::Equal);
        assert!(cols_have_null(&a, &[0, 2]));
        assert!(!cols_have_null(&a, &[0, 1]));
        assert!(cols_eq(&a, &[], &b, &[]));
        assert_eq!(hash_cols(&a, &[1]), hash_cols(&b, &[0]));
    }
}
