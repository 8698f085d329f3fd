//! Pipelined operators: Filter, Compute Scalar, Top, Segment.

use super::keys::cols_eq;
use super::{BoxedOperator, Operator, RowBatch};
use crate::context::ExecContext;
use crate::pred::CompiledPredicate;
use lqs_plan::{Expr, NodeId};
use lqs_storage::{Row, Value};

/// CPU discount applied to batch-mode row operations.
const BATCH_FACTOR: f64 = 0.2;

/// Row filter.
pub struct FilterOp {
    id: NodeId,
    predicate: CompiledPredicate,
    batch: bool,
    child: BoxedOperator,
    done: bool,
}

impl FilterOp {
    pub(crate) fn new(id: NodeId, predicate: Expr, batch: bool, child: BoxedOperator) -> Self {
        FilterOp {
            id,
            predicate: CompiledPredicate::compile(&predicate),
            batch,
            child,
            done: false,
        }
    }
}

impl Operator for FilterOp {
    fn open(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.child.open(ctx);
    }

    fn next_batch(&mut self, ctx: &ExecContext, out: &mut RowBatch, limit: usize) -> bool {
        if self.done {
            return false;
        }
        if limit == 0 {
            return true;
        }
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
                self.done = true;
                ctx.mark_close(self.id);
                return false;
            }
            // Row counts go through the scope, interleaved per row, so
            // any snapshot a flush records sees input and output in
            // step — the filter's UB bound treats every input-counted
            // row beyond the first in-flight one as fully emitted.
            let mut scope = ctx.batch_charge(self.id);
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
        ctx.mark_close(self.id);
    }

    fn rewind(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.child.rewind(ctx);
        self.done = false;
    }
}

/// Appends computed columns.
pub struct ComputeScalarOp {
    id: NodeId,
    exprs: Vec<Expr>,
    batch: bool,
    child: BoxedOperator,
    done: bool,
}

impl ComputeScalarOp {
    pub(crate) fn new(id: NodeId, exprs: Vec<Expr>, batch: bool, child: BoxedOperator) -> Self {
        ComputeScalarOp {
            id,
            exprs,
            batch,
            child,
            done: false,
        }
    }
}

impl Operator for ComputeScalarOp {
    fn open(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.child.open(ctx);
    }

    fn next_batch(&mut self, ctx: &ExecContext, out: &mut RowBatch, limit: usize) -> bool {
        if self.done {
            return false;
        }
        if limit == 0 {
            return true;
        }
        let factor = if self.batch { BATCH_FACTOR } else { 1.0 };
        let row_cpu = ctx.cost.compute_expr_ns * self.exprs.len() as f64 * factor;
        // 1:1 transform rewritten in place over the child's appended range
        // (see FilterOp::next_batch for why no rows carry across calls).
        let before = out.len();
        if !self.child.next_batch(ctx, out, limit) {
            self.done = true;
            ctx.mark_close(self.id);
            return false;
        }
        let n = out.len() - before;
        let mut scope = ctx.batch_charge(self.id);
        let rows = out.contiguous_mut();
        for row in &mut rows[before..] {
            scope.cpu(row_cpu);
            let mut v: Vec<Value> = row.to_vec();
            for e in &self.exprs {
                v.push(e.eval(row));
            }
            *row = v.into();
        }
        ctx.count_input(self.id, n as u64);
        scope.finish_emitting(n as u64);
        true
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
        ctx.mark_close(self.id);
    }

    fn rewind(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.child.rewind(ctx);
        self.done = false;
    }
}

/// Pass through the first `n` rows, then stop pulling from the child.
pub struct TopOp {
    id: NodeId,
    n: usize,
    emitted: usize,
    child: BoxedOperator,
    done: bool,
}

impl TopOp {
    pub(crate) fn new(id: NodeId, n: usize, child: BoxedOperator) -> Self {
        TopOp {
            id,
            n,
            emitted: 0,
            child,
            done: false,
        }
    }
}

impl Operator for TopOp {
    fn open(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.child.open(ctx);
    }

    fn next_batch(&mut self, ctx: &ExecContext, out: &mut RowBatch, limit: usize) -> bool {
        if self.done {
            return false;
        }
        if self.emitted >= self.n {
            self.done = true;
            ctx.mark_close(self.id);
            return false;
        }
        if limit == 0 {
            return true;
        }
        // Rows pass through unchanged, so pull the child straight into
        // `out`, clamped to the remaining demand — the child never
        // overproduces past the TOP bound.
        let want = limit.min(self.n - self.emitted);
        let before = out.len();
        if !self.child.next_batch(ctx, out, want) {
            self.done = true;
            ctx.mark_close(self.id);
            return false;
        }
        let got = (out.len() - before) as u64;
        if got > 0 {
            let mut scope = ctx.batch_charge(self.id);
            for _ in 0..got {
                scope.cpu(2.0);
            }
            ctx.count_input(self.id, got);
            self.emitted += got as usize;
            scope.finish_emitting(got);
        }
        true
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
        ctx.mark_close(self.id);
    }

    fn rewind(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.child.rewind(ctx);
        self.emitted = 0;
        self.done = false;
    }
}

/// Appends a segment-boundary marker column (1 at the first row of each
/// group of equal `group_by` values, 0 otherwise). Input must be sorted.
pub struct SegmentOp {
    id: NodeId,
    group_by: Vec<usize>,
    /// The previous row, whose `group_by` columns the next row is compared
    /// against in place.
    prev: Option<Row>,
    child: BoxedOperator,
    done: bool,
}

impl SegmentOp {
    pub(crate) fn new(id: NodeId, group_by: Vec<usize>, child: BoxedOperator) -> Self {
        SegmentOp {
            id,
            group_by,
            prev: None,
            child,
            done: false,
        }
    }
}

impl Operator for SegmentOp {
    fn open(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.child.open(ctx);
    }

    fn next_batch(&mut self, ctx: &ExecContext, out: &mut RowBatch, limit: usize) -> bool {
        if self.done {
            return false;
        }
        if limit == 0 {
            return true;
        }
        // 1:1 transform rewritten in place over the child's appended range
        // (see FilterOp::next_batch for why no rows carry across calls).
        let before = out.len();
        if !self.child.next_batch(ctx, out, limit) {
            self.done = true;
            ctx.mark_close(self.id);
            return false;
        }
        let n = out.len() - before;
        let mut scope = ctx.batch_charge(self.id);
        let rows = out.contiguous_mut();
        for row in &mut rows[before..] {
            scope.cpu(5.0);
            let gb = &self.group_by;
            let boundary = !self
                .prev
                .as_ref()
                .is_some_and(|prev| cols_eq(prev, gb, row, gb));
            let marker = Value::Int(boundary as i64);
            let marked = row.iter().cloned().chain([marker]).collect();
            self.prev = Some(std::mem::replace(row, marked));
        }
        ctx.count_input(self.id, n as u64);
        scope.finish_emitting(n as u64);
        true
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
        ctx.mark_close(self.id);
    }

    fn rewind(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.child.rewind(ctx);
        self.prev = None;
        self.done = false;
    }
}
