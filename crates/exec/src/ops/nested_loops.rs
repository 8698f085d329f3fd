//! Nested-loops join with optional outer-side buffering.
//!
//! The inner child is re-executed (rewound) once per outer row with the
//! outer row pushed as correlation context, which is how correlated index
//! seeks receive their parameters.
//!
//! With `outer_buffer > 1` the operator prefetches a block of outer rows
//! before probing — the real engine does this for I/O locality on index
//! nested loops — which makes it **semi-blocking** (§4.4): the outer
//! subtree's counters race ahead of the join's output, and with a large
//! buffer the outer driver node can reach 100% while the join has barely
//! started (the failure mode the paper describes for driver-node progress).

use super::node::{Body, Node};
use super::sort::CONSUME_BATCH;
use super::{concat_rows, null_row, pull_one, BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{Expr, JoinKind, NodeId};
use lqs_storage::Row;

pub struct NestedLoopsOp {
    kind: JoinKind,
    predicate: Option<Expr>,
    outer_buffer: usize,
    inner_arity: usize,
    outer: BoxedOperator,
    inner: BoxedOperator,
    /// Prefetched outer rows. The outer child appends straight into it, so
    /// a refill allocates nothing — with `outer_buffer = 1` there is one
    /// refill per outer row.
    buffer: RowBatch,
    outer_done: bool,
    cur_outer: Option<Row>,
    /// Whether the correlation context for `cur_outer` is pushed.
    ctx_pushed: bool,
    inner_opened: bool,
    cur_matched: bool,
    /// One-row batch the inner-side pulls go through.
    inner_scratch: RowBatch,
}

impl NestedLoopsOp {
    pub(crate) fn new(
        id: NodeId,
        kind: JoinKind,
        predicate: Option<Expr>,
        outer_buffer: usize,
        inner_arity: usize,
        outer: BoxedOperator,
        inner: BoxedOperator,
    ) -> Node<Self> {
        assert!(
            kind != JoinKind::FullOuter,
            "nested loops cannot implement FULL OUTER joins"
        );
        NestedLoopsOp {
            kind,
            predicate,
            outer_buffer: outer_buffer.max(1),
            inner_arity,
            outer,
            inner,
            buffer: RowBatch::default(),
            outer_done: false,
            cur_outer: None,
            ctx_pushed: false,
            inner_opened: false,
            cur_matched: false,
            inner_scratch: RowBatch::with_capacity(1),
        }
        .at(id)
    }

    /// Prefetch up to `outer_buffer` outer rows (semi-blocking behaviour).
    fn refill(&mut self, ctx: &ExecContext, id: NodeId) {
        while self.buffer.len() < self.outer_buffer && !self.outer_done {
            let before = self.buffer.len();
            let want = (self.outer_buffer - before).min(CONSUME_BATCH);
            if !self.outer.next_batch(ctx, &mut self.buffer, want) {
                self.outer_done = true;
                break;
            }
            let got = self.buffer.len() - before;
            ctx.count_input(id, got as u64);
            let mut scope = ctx.batch_charge(id);
            for _ in 0..got {
                scope.cpu(ctx.cost.nl_outer_row_ns);
            }
            scope.finish();
        }
        ctx.set_buffered(id, self.buffer.len() as u64);
    }

    /// Bind the next outer row and (re)start the inner side.
    fn advance_outer(&mut self, ctx: &ExecContext, id: NodeId) -> bool {
        if self.ctx_pushed {
            ctx.pop_outer();
            self.ctx_pushed = false;
        }
        if self.buffer.is_empty() {
            self.refill(ctx, id);
        }
        let Some(outer) = self.buffer.pop_front() else {
            self.cur_outer = None;
            return false;
        };
        ctx.set_buffered(id, self.buffer.len() as u64);
        ctx.count_processed(id, 1);
        ctx.push_outer(outer.clone());
        self.ctx_pushed = true;
        self.cur_outer = Some(outer);
        self.cur_matched = false;
        if self.inner_opened {
            self.inner.rewind(ctx);
        } else {
            self.inner.open(ctx);
            self.inner_opened = true;
        }
        true
    }

    /// The join loop: the next output row, already counted as output, or
    /// `None` once the outer side is exhausted.
    fn next_row(&mut self, ctx: &ExecContext, id: NodeId) -> Option<Row> {
        loop {
            if self.cur_outer.is_none() && !self.advance_outer(ctx, id) {
                return None;
            }
            let outer = self.cur_outer.as_ref().expect("bound above");
            match pull_one(self.inner.as_mut(), ctx, &mut self.inner_scratch) {
                Some(inner_row) => {
                    // One scope per pair: the pair's input count and CPU
                    // settle, then — if the pair produces a row — its
                    // output is counted at the settled clock.
                    let mut scope = ctx.row_charge(id);
                    scope.rows_in(1);
                    scope.cpu(ctx.cost.nl_pair_ns);
                    let combined = concat_rows(outer, &inner_row);
                    if let Some(p) = &self.predicate {
                        if !p.matches(&combined) {
                            continue;
                        }
                    }
                    match self.kind {
                        JoinKind::Inner | JoinKind::LeftOuter => {
                            self.cur_matched = true;
                            scope.finish_emitting(1);
                            return Some(combined);
                        }
                        JoinKind::LeftSemi => {
                            // One match suffices; move to the next outer row.
                            scope.finish_emitting(1);
                            return self.cur_outer.take();
                        }
                        JoinKind::LeftAnti => {
                            // A match disqualifies this outer row.
                            self.cur_matched = true;
                            self.cur_outer = None;
                        }
                        JoinKind::FullOuter => unreachable!("rejected in new()"),
                    }
                }
                None => {
                    // Inner exhausted for this outer row.
                    let outer = self.cur_outer.take().expect("bound above");
                    let unmatched = match self.kind {
                        JoinKind::LeftOuter if !self.cur_matched => {
                            concat_rows(&outer, &null_row(self.inner_arity))
                        }
                        JoinKind::LeftAnti if !self.cur_matched => outer,
                        _ => continue,
                    };
                    ctx.count_output(id, 1);
                    return Some(unmatched);
                }
            }
        }
    }
}

impl Body for NestedLoopsOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.outer.open(ctx);
        // The inner child is opened lazily, once a correlation binding
        // exists.
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, _: usize) -> bool {
        // `next_row` has counted the row; one row per call keeps the
        // zero-rows-in-flight guarantee of `Operator::next_batch`.
        let Some(row) = self.next_row(ctx, id) else {
            return false;
        };
        out.push(row);
        true
    }

    fn close(&mut self, ctx: &ExecContext) {
        if self.ctx_pushed {
            ctx.pop_outer();
            self.ctx_pushed = false;
        }
        self.outer.close(ctx);
        if self.inner_opened {
            self.inner.close(ctx);
        }
    }

    fn rewind(&mut self, ctx: &ExecContext, id: NodeId) {
        if self.ctx_pushed {
            ctx.pop_outer();
            self.ctx_pushed = false;
        }
        self.outer.rewind(ctx);
        self.buffer.clear();
        // Keep the gauge in step with the discarded buffer (same phantom-rows
        // leak as the exchange rewind).
        ctx.set_buffered(id, 0);
        self.outer_done = false;
        self.cur_outer = None;
        self.cur_matched = false;
        // The inner child is rewound per outer row as usual.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::scan::ConstantScanOp;
    use crate::ops::testing::{drain, pull};
    use crate::ops::Operator;
    use lqs_plan::{CostModel, Expr};
    use lqs_storage::{Database, Value};

    fn rows(v: &[i64]) -> Vec<Vec<Value>> {
        v.iter().map(|&a| vec![Value::Int(a)]).collect()
    }

    fn run_nl(
        kind: JoinKind,
        outer: Vec<Vec<Value>>,
        inner: Vec<Vec<Value>>,
        pred: Option<Expr>,
        buffer: usize,
    ) -> Vec<Vec<Value>> {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 0, u64::MAX, CostModel::default());
        let o = Box::new(ConstantScanOp::new(NodeId(0), outer));
        let i = Box::new(ConstantScanOp::new(NodeId(1), inner));
        let mut j = NestedLoopsOp::new(NodeId(2), kind, pred, buffer, 1, o, i);
        j.open(&ctx);
        let out = drain(&mut j, &ctx).iter().map(|r| r.to_vec()).collect();
        j.close(&ctx);
        out
    }

    fn eq_pred() -> Option<Expr> {
        Some(Expr::col(0).eq(Expr::col(1)))
    }

    #[test]
    fn inner_nl_cross_and_filter() {
        let out = run_nl(JoinKind::Inner, rows(&[1, 2]), rows(&[2, 3]), eq_pred(), 1);
        assert_eq!(out, vec![vec![Value::Int(2), Value::Int(2)]]);
        // No predicate = cross join.
        let out = run_nl(JoinKind::Inner, rows(&[1, 2]), rows(&[2, 3]), None, 1);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn left_outer_nl() {
        let out = run_nl(JoinKind::LeftOuter, rows(&[1, 2]), rows(&[2]), eq_pred(), 1);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![Value::Int(1), Value::Null]);
        assert_eq!(out[1], vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn semi_anti_nl() {
        let semi = run_nl(
            JoinKind::LeftSemi,
            rows(&[1, 2, 3]),
            rows(&[2, 3]),
            eq_pred(),
            1,
        );
        assert_eq!(semi, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
        let anti = run_nl(
            JoinKind::LeftAnti,
            rows(&[1, 2, 3]),
            rows(&[2]),
            eq_pred(),
            1,
        );
        assert_eq!(anti, vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
    }

    #[test]
    fn buffered_outer_races_ahead() {
        // With a huge buffer, the entire outer side is consumed before the
        // first output row — the §4.4 semi-blocking failure mode.
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 0, u64::MAX, CostModel::default());
        let o = Box::new(ConstantScanOp::new(NodeId(0), rows(&[1, 2, 3, 4, 5])));
        let i = Box::new(ConstantScanOp::new(NodeId(1), rows(&[1])));
        let mut j = NestedLoopsOp::new(NodeId(2), JoinKind::Inner, None, usize::MAX, 1, o, i);
        j.open(&ctx);
        let first = pull(&mut j, &ctx).unwrap();
        assert_eq!(first[0], Value::Int(1));
        // Outer child fully consumed already.
        assert_eq!(ctx.counters_of(NodeId(0)).rows_output, 5);
        // Join only processed one outer row so far.
        assert_eq!(ctx.counters_of(NodeId(2)).rows_processed, 1);
        assert_eq!(ctx.counters_of(NodeId(2)).rows_buffered, 4);
        j.close(&ctx);
    }

    #[test]
    fn rewind_resets_buffered_gauge() {
        // Same phantom-rows leak as the exchange: the outer prefetch buffer
        // is discarded on rewind, so the gauge must drop with it.
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 0, u64::MAX, CostModel::default());
        let o = Box::new(ConstantScanOp::new(NodeId(0), rows(&[1, 2, 3, 4, 5])));
        let i = Box::new(ConstantScanOp::new(NodeId(1), rows(&[1])));
        let mut j = NestedLoopsOp::new(NodeId(2), JoinKind::Inner, None, 64, 1, o, i);
        j.open(&ctx);
        let _ = pull(&mut j, &ctx);
        assert!(ctx.counters_of(NodeId(2)).rows_buffered > 0);
        j.rewind(&ctx);
        assert_eq!(ctx.counters_of(NodeId(2)).rows_buffered, 0);
        j.close(&ctx);
    }

    #[test]
    fn rewind_mid_batch_restarts_outer() {
        // The outer prefetch buffer is filled in chunks; a rewind with rows
        // still buffered must discard them, zero the gauge, and replay the
        // full cross product.
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 0, u64::MAX, CostModel::default());
        let o = Box::new(ConstantScanOp::new(NodeId(0), rows(&[1, 2, 3, 4, 5])));
        let i = Box::new(ConstantScanOp::new(NodeId(1), rows(&[7])));
        let mut j = NestedLoopsOp::new(NodeId(2), JoinKind::Inner, None, 64, 1, o, i);
        j.open(&ctx);
        let mut batch = RowBatch::default();
        assert!(j.next_batch(&ctx, &mut batch, 2));
        assert!(ctx.counters_of(NodeId(2)).rows_buffered > 0);
        j.rewind(&ctx);
        assert_eq!(ctx.counters_of(NodeId(2)).rows_buffered, 0);
        let mut seen = Vec::new();
        loop {
            batch.clear();
            if !j.next_batch(&ctx, &mut batch, 16) {
                break;
            }
            for r in &batch {
                seen.push(r[0].as_int().unwrap());
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        j.close(&ctx);
    }

    #[test]
    fn inner_rewound_per_outer_row() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 0, u64::MAX, CostModel::default());
        let o = Box::new(ConstantScanOp::new(NodeId(0), rows(&[1, 2, 3])));
        let i = Box::new(ConstantScanOp::new(NodeId(1), rows(&[7])));
        let mut j = NestedLoopsOp::new(NodeId(2), JoinKind::Inner, None, 1, 1, o, i);
        j.open(&ctx);
        drain(&mut j, &ctx);
        // Inner executed 3 times (1 open + 2 rewinds), emitting 3 rows total.
        assert_eq!(ctx.counters_of(NodeId(1)).executions, 3);
        assert_eq!(ctx.counters_of(NodeId(1)).rows_output, 3);
        j.close(&ctx);
    }

    #[test]
    fn empty_outer() {
        assert!(run_nl(JoinKind::Inner, vec![], rows(&[1]), None, 1).is_empty());
    }
}
