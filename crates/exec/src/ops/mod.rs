//! Physical operator implementations — the demand-driven iterator
//! (`Open`/`GetNext`/`Close`) engine of the simulator.
//!
//! There is one GetNext: [`Operator::next_batch`]. The executor's batch
//! size only sets the `limit` the root is driven with (1024 in production,
//! 1 for a row-at-a-time run); every run, fault-injected or not, goes
//! through the same operator code.
//!
//! There is one lifecycle too: the tree is built from `Node`s, and
//! `node.rs` is the only `impl Operator` — it stamps a plan node open, marks
//! it closed the first time it reports exhaustion and re-opens it on a
//! rewind, identically for every operator type. The operator files hold
//! `Body`s, which only
//! * charge virtual CPU/I-O to their plan node as they work,
//! * add the rows they appended to their `kᵢ` (rows output) on every call,
//!
//! so DMV snapshots taken by the [`crate::context::ExecContext`] observe
//! realistic mid-flight counter trajectories.
//!
//! Merge join, nested loops and exchange produce one row per call; the rest
//! fill `out` up to `limit`. That is not an oversight waiting for a
//! vectorised rewrite: a multi-row `next_batch` for these three would pull
//! several child rows before charging for the first, re-interleaving charges
//! between operators and so moving what mid-flight snapshots see. Snapshot
//! identity is pinned by `tests/golden_trajectory.rs`; making these
//! operators cheaper per row (keys compared in place, no allocation per
//! rebind — `ops/keys.rs`) keeps it, batching them would not.

use crate::context::{BatchCharge, ExecContext};
use lqs_plan::NodeId;
use lqs_storage::Row;

mod agg;
mod exchange;
mod filter;
mod hash_join;
mod keys;
mod merge_join;
mod misc;
mod nested_loops;
mod node;
mod scan;
mod seek;
mod sort;
mod spool;

/// A batch of rows flowing between operators.
///
/// A thin wrapper over `VecDeque<Row>` so the batch contract is visible in
/// signatures: producers append with `push`, consumers
/// take rows *by move* with [`pop_front`](RowBatch::pop_front). Moving
/// rather than cloning matters: a `Row` is an `Arc`, and a pipeline that
/// cloned at every staging buffer would pay two atomic refcount operations
/// per row per operator. Under a row-at-a-time operator the batch holds one
/// row per call — that is what keeps snapshots identical at every batch
/// size (see the module docs), so those operators reuse one batch for all
/// their pulls rather than allocating one per call.
#[derive(Debug, Default)]
pub struct RowBatch {
    rows: std::collections::VecDeque<Row>,
}

impl RowBatch {
    /// An empty batch with room for `cap` rows.
    pub fn with_capacity(cap: usize) -> Self {
        RowBatch {
            rows: std::collections::VecDeque::with_capacity(cap),
        }
    }

    /// Append a row.
    #[inline]
    pub(crate) fn push(&mut self, row: Row) {
        self.rows.push_back(row);
    }

    /// Take the oldest row out of the batch, transferring ownership (no
    /// refcount traffic).
    #[inline]
    pub fn pop_front(&mut self) -> Option<Row> {
        self.rows.pop_front()
    }

    /// Rows currently in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drop all rows, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Drop rows from the back until `len` remain.
    #[inline]
    pub(crate) fn truncate(&mut self, len: usize) {
        self.rows.truncate(len);
    }

    /// The rows as one contiguous mutable slice (front = index 0).
    ///
    /// In-place operators index the appended range heavily; a slice skips
    /// the per-access wrap-around arithmetic of deque indexing. Rearranges
    /// the ring buffer only when it has wrapped, which a freshly filled
    /// batch never has.
    #[inline]
    pub(crate) fn contiguous_mut(&mut self) -> &mut [Row] {
        self.rows.make_contiguous()
    }

    /// Iterate over the rows, front to back.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, Row> {
        self.rows.iter()
    }
}

impl<'b> IntoIterator for &'b RowBatch {
    type Item = &'b Row;
    type IntoIter = std::collections::vec_deque::Iter<'b, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.rows.iter()
    }
}

/// The iterator interface of a plan node. It has one implementation,
/// `node::Node`, which keeps the lifecycle half of the contract below for
/// every operator; a new operator is a `node::Body`, not a new `impl`.
pub trait Operator {
    /// Prepare for execution. Parents open children.
    fn open(&mut self, ctx: &ExecContext);
    /// `GetNext`: append up to `limit` rows to `out`. Returns `false`
    /// exactly when this call appended **zero** rows and the operator is
    /// exhausted; a `true` return with `limit > 0` appended at least one.
    ///
    /// Contract, relied on for close times that do not depend on the batch
    /// size:
    /// * a call returns as soon as it has appended at least one row — it
    ///   never pulls a child again once `out` has grown this call, so when
    ///   an operator observes its input exhausted (and stamps its close
    ///   time), no rows of that input are still buffered in an ancestor's
    ///   in-progress batch;
    /// * `false` is only returned by a call that appended nothing; the node
    ///   is marked closed on the first such call, and every later call
    ///   returns `false` again without doing any work (`Node::next_batch`
    ///   debug-asserts the first half, `tests/operator_lifecycle.rs` checks
    ///   both for every operator).
    fn next_batch(&mut self, ctx: &ExecContext, out: &mut RowBatch, limit: usize) -> bool;
    /// Release resources at end of query.
    fn close(&mut self, ctx: &ExecContext);
    /// Re-execute for a new correlation binding (the inner side of a
    /// nested-loops join). Spools and sorts replay their buffers; other
    /// operators reset and re-execute.
    fn rewind(&mut self, ctx: &ExecContext);
}

/// A heap-allocated operator.
pub type BoxedOperator = Box<dyn Operator>;

/// Build the executable operator tree for `plan`.
#[allow(clippy::only_used_in_recursion)]
pub fn build_operator(
    plan: &lqs_plan::PhysicalPlan,
    db: &lqs_storage::Database,
    node: lqs_plan::NodeId,
) -> BoxedOperator {
    use lqs_plan::PhysicalOp as P;
    let n = plan.node(node);
    let child = |i: usize| build_operator(plan, db, n.children[i]);
    match &n.op {
        P::TableScan {
            table,
            predicate,
            bitmap_probe,
            ..
        } => Box::new(scan::TableScanOp::new(
            n.id,
            *table,
            predicate.clone(),
            bitmap_probe.clone(),
        )),
        P::IndexScan {
            index,
            predicate,
            bitmap_probe,
            output,
            ..
        } => Box::new(scan::IndexScanOp::new(
            n.id,
            *index,
            predicate.clone(),
            bitmap_probe.clone(),
            *output,
        )),
        P::ColumnstoreScan {
            columnstore,
            predicate,
            bitmap_probe,
        } => Box::new(scan::ColumnstoreScanOp::new(
            n.id,
            *columnstore,
            predicate.clone(),
            bitmap_probe.clone(),
        )),
        P::ConstantScan { rows } => Box::new(scan::ConstantScanOp::new(n.id, rows.clone())),
        P::IndexSeek {
            index,
            seek,
            residual,
            output,
        } => Box::new(seek::IndexSeekOp::new(
            n.id,
            *index,
            seek.clone(),
            residual.clone(),
            *output,
        )),
        P::RidLookup { table } => Box::new(seek::RidLookupOp::new(n.id, *table, child(0))),
        P::Filter { predicate } => Box::new(filter::FilterOp::new(
            n.id,
            predicate.clone(),
            n.batch_mode,
            child(0),
        )),
        P::ComputeScalar { exprs } => Box::new(filter::ComputeScalarOp::new(
            n.id,
            exprs.clone(),
            n.batch_mode,
            child(0),
        )),
        P::Top { n: limit } => Box::new(filter::TopOp::new(n.id, *limit, child(0))),
        P::Segment { group_by } => {
            Box::new(filter::SegmentOp::new(n.id, group_by.clone(), child(0)))
        }
        P::Sort { keys } => Box::new(sort::SortOp::new(n.id, keys.clone(), None, false, child(0))),
        P::TopNSort { n: limit, keys } => Box::new(sort::SortOp::new(
            n.id,
            keys.clone(),
            Some(*limit),
            false,
            child(0),
        )),
        P::DistinctSort { keys } => {
            Box::new(sort::SortOp::new(n.id, keys.clone(), None, true, child(0)))
        }
        P::StreamAggregate { group_by, aggs } => Box::new(agg::StreamAggregateOp::new(
            n.id,
            group_by.clone(),
            aggs.clone(),
            child(0),
        )),
        P::HashAggregate { group_by, aggs } => Box::new(agg::HashAggregateOp::new(
            n.id,
            group_by.clone(),
            aggs.clone(),
            n.batch_mode,
            child(0),
        )),
        P::HashJoin {
            kind,
            build_keys,
            probe_keys,
            bitmap,
        } => Box::new(hash_join::HashJoinOp::new(
            n.id,
            *kind,
            build_keys.clone(),
            probe_keys.clone(),
            *bitmap,
            plan.node(n.children[0]).output_arity,
            plan.node(n.children[1]).output_arity,
            plan.node(n.children[0]).est_total_rows() as usize,
            n.batch_mode,
            child(0),
            child(1),
        )),
        P::MergeJoin {
            kind,
            left_keys,
            right_keys,
        } => Box::new(merge_join::MergeJoinOp::new(
            n.id,
            *kind,
            left_keys.clone(),
            right_keys.clone(),
            plan.node(n.children[0]).output_arity,
            plan.node(n.children[1]).output_arity,
            child(0),
            child(1),
        )),
        P::NestedLoops {
            kind,
            predicate,
            outer_buffer,
        } => Box::new(nested_loops::NestedLoopsOp::new(
            n.id,
            *kind,
            predicate.clone(),
            *outer_buffer,
            plan.node(n.children[1]).output_arity,
            child(0),
            child(1),
        )),
        // The flavour (gather / repartition / distribute) only names the
        // node; all three buffer and forward alike.
        P::Exchange { degree, .. } => Box::new(exchange::ExchangeOp::new(
            n.id,
            *degree,
            n.batch_mode,
            child(0),
        )),
        P::Spool { lazy } => Box::new(spool::SpoolOp::new(n.id, *lazy, child(0))),
        P::Concat => {
            let children = (0..n.children.len()).map(child).collect();
            Box::new(misc::ConcatOp::new(n.id, children))
        }
        P::BitmapCreate {
            key_columns,
            bitmap,
        } => Box::new(misc::BitmapCreateOp::new(
            n.id,
            key_columns.clone(),
            *bitmap,
            n.est_total_rows() as usize,
            child(0),
        )),
    }
}

/// Pull exactly one row from `child` through `scratch`, the caller's
/// reusable one-row batch — how the row-at-a-time operators (merge join,
/// nested-loops inner side) consume a child.
pub(crate) fn pull_one(
    child: &mut dyn Operator,
    ctx: &ExecContext,
    scratch: &mut RowBatch,
) -> Option<Row> {
    debug_assert!(scratch.is_empty(), "pull_one scratch holds a stale row");
    if child.next_batch(ctx, scratch, 1) {
        scratch.pop_front()
    } else {
        None
    }
}

/// The `produce` tail of a row-at-a-time operator: count and append the
/// one row its state machine produced, or report exhaustion. One row per
/// call (not a fill loop) is what keeps the zero-rows-in-flight guarantee
/// of [`Operator::next_batch`] for these operators.
pub(crate) fn push_one(
    ctx: &ExecContext,
    id: NodeId,
    row: Option<Row>,
    out: &mut RowBatch,
) -> bool {
    let Some(row) = row else {
        return false;
    };
    ctx.count_output(id, 1);
    out.push(row);
    true
}

/// The `produce` of a 1:1 pass-through operator (Compute Scalar, Segment,
/// Top, RID Lookup, Bitmap Create; Concatenation, over the child it is
/// draining): pull the child straight into `out`,
/// then, under one scope, hand each appended row to `per_row` to charge for
/// and — if the operator transforms — rewrite in place; count the rows in,
/// settle, count them out. A child appends at most `limit` rows per call,
/// so the appended range is always fully processed before the next pull and
/// no row carries across calls.
pub(crate) fn pass_through(
    child: &mut dyn Operator,
    ctx: &ExecContext,
    id: NodeId,
    out: &mut RowBatch,
    limit: usize,
    mut per_row: impl FnMut(&mut BatchCharge, &mut Row),
) -> bool {
    let before = out.len();
    if !child.next_batch(ctx, out, limit) {
        return false;
    }
    let n = (out.len() - before) as u64;
    let mut scope = ctx.batch_charge(id);
    for row in &mut out.contiguous_mut()[before..] {
        per_row(&mut scope, row);
    }
    ctx.count_input(id, n);
    scope.finish_emitting(n);
    true
}

/// Concatenate two rows. The chained slice iterators report an exact
/// length, so the `Arc<[Value]>` is allocated once at its final size — no
/// intermediate `Vec`.
pub(crate) fn concat_rows(a: &[lqs_storage::Value], b: &[lqs_storage::Value]) -> Row {
    a.iter().chain(b).cloned().collect()
}

/// What an index access emits for heap row `rid`: the base row, or the
/// index's key columns followed by the rid (the input a RID Lookup expects).
pub(crate) fn index_output_row(
    ctx: &ExecContext,
    index: lqs_storage::IndexId,
    output: lqs_plan::IndexOutput,
    rid: lqs_storage::RowId,
) -> Row {
    let base = ctx.db.table(ctx.db.btree_table(index)).row(rid);
    match output {
        lqs_plan::IndexOutput::BaseRow => base.clone(),
        lqs_plan::IndexOutput::KeyAndRid => keys::cols_of(base, ctx.db.btree(index).key_columns())
            .cloned()
            .chain([lqs_storage::Value::Int(rid as i64)])
            .collect(),
    }
}

/// A row of `n` NULLs, for outer-join padding.
pub(crate) fn null_row(n: usize) -> Vec<lqs_storage::Value> {
    vec![lqs_storage::Value::Null; n]
}

/// Shared pull helpers for the in-file operator unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::{pull_one, ExecContext, Operator, Row, RowBatch};

    /// Pull one row (`limit = 1`), or `None` at exhaustion.
    pub(crate) fn pull(op: &mut dyn Operator, ctx: &ExecContext) -> Option<Row> {
        pull_one(op, ctx, &mut RowBatch::default())
    }

    /// Pull row by row until exhausted.
    pub(crate) fn drain(op: &mut dyn Operator, ctx: &ExecContext) -> Vec<Row> {
        std::iter::from_fn(|| pull(op, ctx)).collect()
    }
}
