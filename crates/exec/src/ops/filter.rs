//! Pipelined operators: Filter, Compute Scalar, Top, Segment.

use super::keys::cols_eq;
use super::node::{Body, Node};
use super::{pass_through, BoxedOperator, RowBatch};
use crate::context::ExecContext;
use crate::pred::CompiledPredicate;
use lqs_plan::{Expr, NodeId};
use lqs_storage::{Row, Value};

/// CPU discount applied to batch-mode row operations.
const BATCH_FACTOR: f64 = 0.2;

/// Row filter.
pub struct FilterOp {
    predicate: CompiledPredicate,
    batch: bool,
    child: BoxedOperator,
}

impl FilterOp {
    pub(crate) fn new(
        id: NodeId,
        predicate: Expr,
        batch: bool,
        child: BoxedOperator,
    ) -> Node<Self> {
        FilterOp {
            predicate: CompiledPredicate::compile(&predicate),
            batch,
            child,
        }
        .at(id)
    }
}

impl Body for FilterOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        let factor = if self.batch { BATCH_FACTOR } else { 1.0 };
        let row_cpu = ctx.cost.filter_row_ns * factor;
        // In-place filtering: the child appends straight into `out` (no
        // staging buffer, no per-row move between batches) and survivors
        // are compacted over rejected rows with swaps. A child appends at
        // most `limit` rows per call, so the appended range is always
        // fully processed before the next pull — no leftover carries
        // across calls, exactly like a staged scratch would behave.
        let before = out.len();
        loop {
            if !self.child.next_batch(ctx, out, limit) {
                return false;
            }
            // Row counts go through the scope, interleaved per row, so
            // any snapshot a flush records sees input and output in
            // step — the filter's UB bound treats every input-counted
            // row beyond the first in-flight one as fully emitted.
            let mut scope = ctx.batch_charge(id);
            let mut kept = before;
            let rows = out.contiguous_mut();
            for i in before..rows.len() {
                scope.rows_in(1);
                scope.cpu(row_cpu);
                if self.predicate.matches(&rows[i]) {
                    if kept != i {
                        rows.swap(kept, i);
                    }
                    kept += 1;
                    scope.rows_out(1);
                }
            }
            out.truncate(kept);
            scope.finish();
            if kept > before {
                return true;
            }
        }
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.rewind(ctx);
    }
}

/// Appends computed columns.
pub struct ComputeScalarOp {
    exprs: Vec<Expr>,
    batch: bool,
    child: BoxedOperator,
}

impl ComputeScalarOp {
    pub(crate) fn new(
        id: NodeId,
        exprs: Vec<Expr>,
        batch: bool,
        child: BoxedOperator,
    ) -> Node<Self> {
        ComputeScalarOp {
            exprs,
            batch,
            child,
        }
        .at(id)
    }
}

impl Body for ComputeScalarOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        let factor = if self.batch { BATCH_FACTOR } else { 1.0 };
        let row_cpu = ctx.cost.compute_expr_ns * self.exprs.len() as f64 * factor;
        pass_through(self.child.as_mut(), ctx, id, out, limit, |scope, row| {
            scope.cpu(row_cpu);
            let mut v: Vec<Value> = row.to_vec();
            for e in &self.exprs {
                v.push(e.eval(row));
            }
            *row = v.into();
        })
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.rewind(ctx);
    }
}

/// Pass through the first `n` rows, then stop pulling from the child.
pub struct TopOp {
    n: usize,
    emitted: usize,
    child: BoxedOperator,
}

impl TopOp {
    pub(crate) fn new(id: NodeId, n: usize, child: BoxedOperator) -> Node<Self> {
        TopOp {
            n,
            emitted: 0,
            child,
        }
        .at(id)
    }
}

impl Body for TopOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        if self.emitted >= self.n {
            return false;
        }
        // Rows pass through unchanged, clamped to the remaining demand —
        // the child never overproduces past the TOP bound.
        let want = limit.min(self.n - self.emitted);
        pass_through(self.child.as_mut(), ctx, id, out, want, |scope, _| {
            scope.cpu(2.0);
            self.emitted += 1;
        })
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.rewind(ctx);
        self.emitted = 0;
    }
}

/// Appends a segment-boundary marker column (1 at the first row of each
/// group of equal `group_by` values, 0 otherwise). Input must be sorted.
pub struct SegmentOp {
    group_by: Vec<usize>,
    /// The previous row, whose `group_by` columns the next row is compared
    /// against in place.
    prev: Option<Row>,
    child: BoxedOperator,
}

impl SegmentOp {
    pub(crate) fn new(id: NodeId, group_by: Vec<usize>, child: BoxedOperator) -> Node<Self> {
        SegmentOp {
            group_by,
            prev: None,
            child,
        }
        .at(id)
    }
}

impl Body for SegmentOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        pass_through(self.child.as_mut(), ctx, id, out, limit, |scope, row| {
            scope.cpu(5.0);
            let gb = &self.group_by;
            let boundary = !self
                .prev
                .as_ref()
                .is_some_and(|prev| cols_eq(prev, gb, row, gb));
            let marker = Value::Int(boundary as i64);
            let marked = row.iter().cloned().chain([marker]).collect();
            self.prev = Some(std::mem::replace(row, marked));
        })
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.rewind(ctx);
        self.prev = None;
    }
}
