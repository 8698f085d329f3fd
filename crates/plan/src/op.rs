//! Physical operator definitions.
//!
//! The operator set mirrors the SQL Server showplan operators that appear in
//! the paper (Figures 5–7, 19 and the Appendix A bounding table): scans,
//! seeks, RID lookups, filters, compute scalars, sorts, stream/hash
//! aggregation, hash/merge/nested-loops joins, spools, concatenation,
//! segment, constant scan, the three Parallelism (exchange) flavours, bitmap
//! creation, and batch-mode columnstore scans.

use crate::expr::{Aggregate, Expr};
use lqs_storage::{ColumnstoreId, IndexId, TableId, Value};

/// Identifies a plan node within its [`crate::plan::PhysicalPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a runtime bitmap (semi-join filter) within a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitmapId(pub usize);

/// Join semantics. For hash joins the "left" side is the **probe** input;
/// for merge and nested-loops joins it is the first (outer) child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Preserve left rows without matches (padded with NULLs).
    LeftOuter,
    /// Emit left rows having at least one match, left columns only.
    LeftSemi,
    /// Emit left rows having no match, left columns only.
    LeftAnti,
    /// Preserve both sides.
    FullOuter,
}

impl JoinKind {
    /// Whether the join output carries only the left side's columns.
    pub fn left_only(self) -> bool {
        matches!(self, JoinKind::LeftSemi | JoinKind::LeftAnti)
    }
}

/// Parallelism (exchange) operator flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeKind {
    /// Merge parallel streams into one.
    GatherStreams,
    /// Re-shuffle rows between parallel streams.
    RepartitionStreams,
    /// Fan one stream out to parallel consumers.
    DistributeStreams,
}

/// One sort key: column ordinal + direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    /// Column ordinal in the child's output.
    pub column: usize,
    /// Descending if true.
    pub descending: bool,
}

impl SortKey {
    /// Ascending key on `column`.
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            descending: false,
        }
    }

    /// Descending key on `column`.
    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            descending: true,
        }
    }
}

/// A seek key component: either a literal or a reference to a column of the
/// *correlated outer row* (for the inner side of a nested-loops join).
#[derive(Debug, Clone, PartialEq)]
pub enum SeekKey {
    /// Constant key value.
    Lit(Value),
    /// Column of the current outer row.
    OuterRef(usize),
}

/// Seek predicate over an index's key columns: leading equality keys plus an
/// optional range on the next key column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeekRange {
    /// Equality constraints on the leading key columns.
    pub eq_keys: Vec<SeekKey>,
    /// Lower bound on the next key column: `(key, inclusive)`.
    pub lo: Option<(SeekKey, bool)>,
    /// Upper bound on the next key column: `(key, inclusive)`.
    pub hi: Option<(SeekKey, bool)>,
}

impl SeekRange {
    /// Pure equality seek.
    pub fn eq(keys: Vec<SeekKey>) -> Self {
        SeekRange {
            eq_keys: keys,
            lo: None,
            hi: None,
        }
    }
}

/// What an index seek/scan emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexOutput {
    /// The full base-table row (covering / clustered access).
    BaseRow,
    /// The index key columns followed by the heap RID (requires a
    /// downstream RID Lookup to reconstruct the row).
    KeyAndRid,
}

/// A probe of a bitmap filter pushed into a scan (paper §4.3, Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct BitmapProbe {
    /// Which bitmap to consult.
    pub bitmap: BitmapId,
    /// Ordinals (in the scan's output) forming the probe key.
    pub key_columns: Vec<usize>,
}

/// Physical operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalOp {
    /// Full heap scan with optional predicate.
    TableScan {
        /// Scanned table.
        table: TableId,
        /// Residual or pushed predicate.
        predicate: Option<Expr>,
        /// If true, the predicate (and/or bitmap probe) is evaluated inside
        /// the storage engine: the scan still reads every page but emits
        /// only qualifying rows (§4.3).
        pushed_to_storage: bool,
        /// Bitmap semi-join filter evaluated during the scan.
        bitmap_probe: Option<BitmapProbe>,
    },
    /// Ordered scan of a B+tree index.
    IndexScan {
        /// Scanned index.
        index: IndexId,
        /// Residual or pushed predicate.
        predicate: Option<Expr>,
        /// See [`PhysicalOp::TableScan::pushed_to_storage`].
        pushed_to_storage: bool,
        /// Bitmap semi-join filter evaluated during the scan.
        bitmap_probe: Option<BitmapProbe>,
        /// Output shape.
        output: IndexOutput,
    },
    /// B+tree seek (point or range); correlated seeks implement the inner
    /// side of index nested-loops joins.
    IndexSeek {
        /// Index sought.
        index: IndexId,
        /// Seek predicate.
        seek: SeekRange,
        /// Residual predicate applied after the seek.
        residual: Option<Expr>,
        /// Output shape.
        output: IndexOutput,
    },
    /// Fetch base rows by RID (child's last output column is the RID).
    RidLookup {
        /// Base table.
        table: TableId,
    },
    /// Batch-mode scan of a columnstore index (§4.7).
    ColumnstoreScan {
        /// Scanned columnstore.
        columnstore: ColumnstoreId,
        /// Predicate evaluated per batch inside the scan.
        predicate: Option<Expr>,
        /// Bitmap semi-join filter evaluated during the scan.
        bitmap_probe: Option<BitmapProbe>,
    },
    /// Row filter.
    Filter {
        /// Predicate.
        predicate: Expr,
    },
    /// Append computed columns to each row.
    ComputeScalar {
        /// Expressions, evaluated against the child row.
        exprs: Vec<Expr>,
    },
    /// Full blocking sort.
    Sort {
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// Blocking sort retaining only the top `n` rows.
    TopNSort {
        /// Row limit.
        n: usize,
        /// Sort keys.
        keys: Vec<SortKey>,
    },
    /// Sort that also removes duplicates of the key columns.
    DistinctSort {
        /// Sort keys (also the distinct keys).
        keys: Vec<SortKey>,
    },
    /// Pass through the first `n` rows.
    Top {
        /// Row limit.
        n: usize,
    },
    /// Aggregation over sorted input (groups must arrive contiguously).
    StreamAggregate {
        /// Grouping column ordinals (empty = scalar aggregate).
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<Aggregate>,
    },
    /// Hash aggregation (blocking).
    HashAggregate {
        /// Grouping column ordinals (empty = scalar aggregate).
        group_by: Vec<usize>,
        /// Aggregates to compute.
        aggs: Vec<Aggregate>,
    },
    /// Hash join. Child 0 is the **build** input, child 1 the **probe**
    /// input; output is probe columns followed by build columns.
    HashJoin {
        /// Join semantics (left = probe side).
        kind: JoinKind,
        /// Key ordinals in the build child's output.
        build_keys: Vec<usize>,
        /// Key ordinals in the probe child's output.
        probe_keys: Vec<usize>,
        /// If set, building also populates this bitmap for probe-side
        /// semi-join reduction (§4.3).
        bitmap: Option<BitmapId>,
    },
    /// Merge join over sorted inputs. Child 0 = left/outer, child 1 = right.
    MergeJoin {
        /// Join semantics.
        kind: JoinKind,
        /// Key ordinals in the left child's output.
        left_keys: Vec<usize>,
        /// Key ordinals in the right child's output.
        right_keys: Vec<usize>,
    },
    /// Nested-loops join. Child 0 = outer, child 1 = inner (re-opened per
    /// outer row, with the outer row bound as correlation context).
    NestedLoops {
        /// Join semantics.
        kind: JoinKind,
        /// Residual predicate over (outer ++ inner) columns.
        predicate: Option<Expr>,
        /// Number of outer rows prefetched into the operator's buffer before
        /// probing begins; `1` disables buffering, larger values make the
        /// operator semi-blocking (§4.4, Figures 7–8).
        outer_buffer: usize,
    },
    /// Table spool. Eager spools consume their entire input on first demand
    /// (blocking); lazy spools copy rows through incrementally.
    Spool {
        /// Lazy (pipelined) vs eager (blocking).
        lazy: bool,
    },
    /// Concatenation (UNION ALL) of all children.
    Concat,
    /// Adds a segment-boundary marker column over sorted input.
    Segment {
        /// Columns defining segment boundaries.
        group_by: Vec<usize>,
    },
    /// In-plan constant rows.
    ConstantScan {
        /// The rows produced.
        rows: Vec<Vec<Value>>,
    },
    /// Parallelism operator: buffers and forwards rows between "threads".
    /// Semi-blocking (§4.4): its producer side races ahead of consumption.
    Exchange {
        /// Flavour (gather / repartition / distribute).
        kind: ExchangeKind,
        /// Simulated degree of parallelism.
        degree: usize,
    },
    /// Builds a bitmap from child rows for later probe (Figure 6). Passes
    /// rows through unchanged.
    BitmapCreate {
        /// Key ordinals hashed into the bitmap.
        key_columns: Vec<usize>,
        /// Bitmap produced.
        bitmap: BitmapId,
    },
}

impl PhysicalOp {
    /// Showplan-style display name, used in reports and per-operator error
    /// breakdowns (Figures 15, 19, 20).
    pub fn display_name(&self) -> &'static str {
        match self {
            PhysicalOp::TableScan { .. } => "Table Scan",
            PhysicalOp::IndexScan { .. } => "Index Scan",
            PhysicalOp::IndexSeek { .. } => "Index Seek",
            PhysicalOp::RidLookup { .. } => "RID Lookup",
            PhysicalOp::ColumnstoreScan { .. } => "Columnstore Index Scan",
            PhysicalOp::Filter { .. } => "Filter",
            PhysicalOp::ComputeScalar { .. } => "Compute Scalar",
            PhysicalOp::Sort { .. } => "Sort",
            PhysicalOp::TopNSort { .. } => "Top N Sort",
            PhysicalOp::DistinctSort { .. } => "Distinct Sort",
            PhysicalOp::Top { .. } => "Top",
            PhysicalOp::StreamAggregate { .. } => "Stream Aggregate",
            PhysicalOp::HashAggregate { .. } => "Hash Match (Aggregate)",
            PhysicalOp::HashJoin { .. } => "Hash Match (Join)",
            PhysicalOp::MergeJoin { .. } => "Merge Join",
            PhysicalOp::NestedLoops { .. } => "Nested Loops",
            PhysicalOp::Spool { lazy: true } => "Table Spool (Lazy)",
            PhysicalOp::Spool { lazy: false } => "Table Spool (Eager)",
            PhysicalOp::Concat => "Concatenation",
            PhysicalOp::Segment { .. } => "Segment",
            PhysicalOp::ConstantScan { .. } => "Constant Scan",
            PhysicalOp::Exchange { kind, .. } => match kind {
                ExchangeKind::GatherStreams => "Parallelism (Gather Streams)",
                ExchangeKind::RepartitionStreams => "Parallelism (Repartition Streams)",
                ExchangeKind::DistributeStreams => "Parallelism (Distribute Streams)",
            },
            PhysicalOp::BitmapCreate { .. } => "Bitmap Create",
        }
    }

    /// Fully blocking (stop-and-go) operators: nothing is emitted until the
    /// entire input has been consumed. These end pipelines (§3.1.1) and use
    /// the two-phase progress model (§4.5).
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            PhysicalOp::Sort { .. }
                | PhysicalOp::TopNSort { .. }
                | PhysicalOp::DistinctSort { .. }
                | PhysicalOp::HashAggregate { .. }
                | PhysicalOp::Spool { lazy: false }
        )
    }

    /// Semi-blocking operators: pipelined but internally buffered, so their
    /// output row count can lag their input significantly (§4.4).
    pub fn is_semi_blocking(&self) -> bool {
        match self {
            PhysicalOp::Exchange { .. } => true,
            PhysicalOp::NestedLoops { outer_buffer, .. } => *outer_buffer > 1,
            _ => false,
        }
    }

    /// Leaf operators (no children).
    pub(crate) fn is_leaf(&self) -> bool {
        matches!(
            self,
            PhysicalOp::TableScan { .. }
                | PhysicalOp::IndexScan { .. }
                | PhysicalOp::IndexSeek { .. }
                | PhysicalOp::ColumnstoreScan { .. }
                | PhysicalOp::ConstantScan { .. }
        )
    }

    /// Number of children this operator requires (`None` = variadic ≥ 1).
    pub(crate) fn required_children(&self) -> Option<usize> {
        match self {
            op if op.is_leaf() => Some(0),
            PhysicalOp::HashJoin { .. }
            | PhysicalOp::MergeJoin { .. }
            | PhysicalOp::NestedLoops { .. } => Some(2),
            PhysicalOp::Concat => None,
            _ => Some(1),
        }
    }

    /// Whether this operator runs in batch mode (coarse-grained progress,
    /// §4.7). Currently columnstore scans; batch-mode propagation up the
    /// plan is handled by the planner via [`crate::plan::PlanNode::batch_mode`].
    pub(crate) fn is_batch_source(&self) -> bool {
        matches!(self, PhysicalOp::ColumnstoreScan { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_classification() {
        assert!(PhysicalOp::Sort { keys: vec![] }.is_blocking());
        assert!(PhysicalOp::HashAggregate {
            group_by: vec![],
            aggs: vec![]
        }
        .is_blocking());
        assert!(PhysicalOp::Spool { lazy: false }.is_blocking());
        assert!(!PhysicalOp::Spool { lazy: true }.is_blocking());
        assert!(!PhysicalOp::Filter {
            predicate: Expr::lit(1i64)
        }
        .is_blocking());
    }

    #[test]
    fn semi_blocking_classification() {
        assert!(PhysicalOp::Exchange {
            kind: ExchangeKind::GatherStreams,
            degree: 4
        }
        .is_semi_blocking());
        assert!(PhysicalOp::NestedLoops {
            kind: JoinKind::Inner,
            predicate: None,
            outer_buffer: 128
        }
        .is_semi_blocking());
        assert!(!PhysicalOp::NestedLoops {
            kind: JoinKind::Inner,
            predicate: None,
            outer_buffer: 1
        }
        .is_semi_blocking());
    }

    #[test]
    fn arity_requirements() {
        assert_eq!(
            PhysicalOp::TableScan {
                table: TableId(0),
                predicate: None,
                pushed_to_storage: false,
                bitmap_probe: None
            }
            .required_children(),
            Some(0)
        );
        assert_eq!(
            PhysicalOp::NestedLoops {
                kind: JoinKind::Inner,
                predicate: None,
                outer_buffer: 1
            }
            .required_children(),
            Some(2)
        );
        assert_eq!(PhysicalOp::Concat.required_children(), None);
    }
}
