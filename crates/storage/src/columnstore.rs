//! Columnstore indexes: column-oriented storage in fixed-size row groups
//! ("segments"), mirroring SQL Server's nonclustered columnstore indexes
//! [Larson et al., SIGMOD'11/'13].
//!
//! Two properties matter for the paper's §4.7 batch-mode progress technique:
//!
//! 1. Scans process data **a segment at a time** (batch mode), so GetNext-
//!    level counters are too coarse; the DMV instead exposes *segments
//!    processed*, and progress is `segments_processed / total_segments`.
//! 2. The total number of segments per index is static metadata, exposed in
//!    the simulator's analog of `sys.column_store_segments`
//!    (see [`crate::db::Database::column_store_segments`]).
//!
//! Segments also carry per-column min/max metadata so scans can perform
//! segment elimination for pushed-down range predicates, like the real
//! engine.

use crate::table::{Row, Table};
use crate::value::Value;

/// Rows per segment. SQL Server packs up to 2^20 rows per row group; the
/// simulator uses 2^10 so scaled-down tables still span many segments
/// (segment counts are the granularity of batch-mode progress, §4.7).
pub(crate) const SEGMENT_SIZE: usize = 1024;

/// Per-column metadata within one segment.
#[derive(Debug, Clone)]
pub(crate) struct SegmentColumnMeta {
    /// Minimum non-null value in the segment (None if all null/empty).
    pub(crate) min: Option<Value>,
    /// Maximum non-null value in the segment.
    pub(crate) max: Option<Value>,
}

/// One row group: a contiguous run of rows stored column-wise.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Segment ordinal within the index.
    pub(crate) id: usize,
    /// Number of rows in the segment.
    pub row_count: usize,
    /// Column-wise data: `columns[c][r]`.
    columns: Vec<Vec<Value>>,
    /// Per-column min/max for segment elimination.
    pub(crate) meta: Vec<SegmentColumnMeta>,
}

impl Segment {
    /// Reassemble the row at `offset` within this segment.
    pub fn row(&self, offset: usize) -> Row {
        self.columns
            .iter()
            .map(|col| col[offset].clone())
            .collect::<Vec<_>>()
            .into()
    }

    /// Whether a `[lo, hi]` range predicate on column `c` can possibly match
    /// any row of this segment (used for segment elimination).
    pub fn may_match_range(&self, c: usize, lo: Option<&Value>, hi: Option<&Value>) -> bool {
        let m = &self.meta[c];
        let (Some(seg_min), Some(seg_max)) = (&m.min, &m.max) else {
            // Empty / all-null column: only NULL rows, range predicates never
            // match NULL.
            return false;
        };
        if let Some(lo) = lo {
            if seg_max < lo {
                return false;
            }
        }
        if let Some(hi) = hi {
            if seg_min > hi {
                return false;
            }
        }
        true
    }
}

/// A columnstore index over an entire table.
#[derive(Debug, Clone)]
pub struct ColumnstoreIndex {
    name: String,
    segments: Vec<Segment>,
    row_count: usize,
}

impl ColumnstoreIndex {
    /// Build a columnstore index covering all columns of `table`.
    pub(crate) fn build(name: impl Into<String>, table: &Table) -> Self {
        let ncols = table.schema().len();
        let rows = table.rows();
        let mut segments = Vec::new();
        let mut first = 0usize;
        while first < rows.len() || (rows.is_empty() && segments.is_empty()) {
            let count = SEGMENT_SIZE.min(rows.len() - first);
            if count == 0 {
                break;
            }
            let mut columns: Vec<Vec<Value>> = vec![Vec::with_capacity(count); ncols];
            for r in &rows[first..first + count] {
                for (c, v) in r.iter().enumerate() {
                    columns[c].push(v.clone());
                }
            }
            let meta = columns
                .iter()
                .map(|col| {
                    let non_null = col.iter().filter(|v| !v.is_null());
                    SegmentColumnMeta {
                        min: non_null.clone().min().cloned(),
                        max: non_null.max().cloned(),
                    }
                })
                .collect();
            segments.push(Segment {
                id: segments.len(),
                row_count: count,
                columns,
                meta,
            });
            first += count;
        }
        ColumnstoreIndex {
            name: name.into(),
            segments,
            row_count: rows.len(),
        }
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All segments in rid order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments — the denominator of §4.7 progress.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total rows covered.
    pub fn row_count(&self) -> usize {
        self.row_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;

    fn table(n: i64) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::nullable("b", DataType::Str),
            ]),
        );
        for i in 0..n {
            let b = if i % 10 == 0 {
                Value::Null
            } else {
                Value::str(format!("s{}", i % 3))
            };
            t.insert(vec![Value::Int(i), b]).unwrap();
        }
        t
    }

    #[test]
    fn segment_partitioning() {
        let cs = ColumnstoreIndex::build("cs", &table(10_000));
        assert_eq!(cs.segment_count(), 10_000_usize.div_ceil(SEGMENT_SIZE));
        assert_eq!(cs.row_count(), 10_000);
        let total: usize = cs.segments().iter().map(|s| s.row_count).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn row_reassembly_matches_table() {
        let t = table(5000);
        let cs = ColumnstoreIndex::build("cs", &t);
        let seg = &cs.segments()[1];
        let row = seg.row(10);
        assert_eq!(&row, t.row(SEGMENT_SIZE + 10));
    }

    #[test]
    fn min_max_metadata() {
        let cs = ColumnstoreIndex::build("cs", &table(9000));
        let s0 = &cs.segments()[0];
        assert_eq!(s0.meta[0].min, Some(Value::Int(0)));
        assert_eq!(s0.meta[0].max, Some(Value::Int(SEGMENT_SIZE as i64 - 1)));
    }

    #[test]
    fn segment_elimination() {
        let cs = ColumnstoreIndex::build("cs", &table(9000));
        let s0 = &cs.segments()[0];
        // Range entirely above segment 0's max.
        assert!(!s0.may_match_range(0, Some(&Value::Int(100_000)), None));
        // Range overlapping.
        assert!(s0.may_match_range(0, Some(&Value::Int(10)), Some(&Value::Int(20))));
        // Range entirely below min of segment 1.
        let s1 = &cs.segments()[1];
        assert!(!s1.may_match_range(0, None, Some(&Value::Int(5))));
    }

    #[test]
    fn empty_table_has_no_segments() {
        let cs = ColumnstoreIndex::build("cs", &table(0));
        assert_eq!(cs.segment_count(), 0);
    }
}
