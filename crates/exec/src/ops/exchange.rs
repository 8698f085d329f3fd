//! The Parallelism (exchange) operator.
//!
//! The simulator is single-threaded, but real exchanges decouple producer
//! and consumer threads: producers race ahead, filling packet buffers, while
//! the consumer drains at its own pace. We reproduce the *counter shape*
//! that matters to progress estimation (Figures 7–8: the exchange's `k`
//! lagging its child's `k` by large, slowly converging ratios) by
//! prefetching a large initial block on first demand and `degree` child rows
//! per output row thereafter.

use super::node::{Body, Node};
use super::sort::CONSUME_BATCH;
use super::{push_one, BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::NodeId;
use lqs_storage::Row;

/// Rows prefetched per degree of parallelism on first demand (models the
/// initial packet fill by `degree` producer threads).
pub const INITIAL_FILL_PER_DOP: usize = 256;

/// Maximum buffered rows per degree of parallelism: producers block when the
/// packet buffers are full, so the child's counter lead is bounded.
pub const MAX_BUFFER_PER_DOP: usize = 512;

pub struct ExchangeOp {
    degree: usize,
    batch: bool,
    child: BoxedOperator,
    /// Packet buffers: the child appends straight into them.
    queue: RowBatch,
    started: bool,
    child_done: bool,
}

impl ExchangeOp {
    pub(crate) fn new(id: NodeId, degree: usize, batch: bool, child: BoxedOperator) -> Node<Self> {
        ExchangeOp {
            degree: degree.max(1),
            batch,
            child,
            queue: RowBatch::default(),
            started: false,
            child_done: false,
        }
        .at(id)
    }

    fn pull(&mut self, ctx: &ExecContext, id: NodeId, n: usize) {
        let cap = MAX_BUFFER_PER_DOP * self.degree;
        // Producers fill in chunks; the pull never charges CPU, so the
        // chunk size shows in no counter and no close time.
        let mut remaining = n.min(cap.saturating_sub(self.queue.len()));
        while remaining > 0 && !self.child_done {
            let before = self.queue.len();
            if !self
                .child
                .next_batch(ctx, &mut self.queue, remaining.min(CONSUME_BATCH))
            {
                self.child_done = true;
                break;
            }
            let got = self.queue.len() - before;
            ctx.count_input(id, got as u64);
            remaining -= got;
        }
        ctx.set_buffered(id, self.queue.len() as u64);
    }

    /// One consumer-side row: top the queue up, then drain one.
    fn next_row(&mut self, ctx: &ExecContext, id: NodeId) -> Option<Row> {
        if !self.started {
            self.started = true;
            self.pull(ctx, id, INITIAL_FILL_PER_DOP * self.degree);
        } else {
            self.pull(ctx, id, self.degree);
        }
        let row = self.queue.pop_front()?;
        ctx.set_buffered(id, self.queue.len() as u64);
        let factor = if self.batch { 0.3 } else { 1.0 };
        ctx.charge_cpu(id, ctx.cost.exchange_row_ns * factor);
        Some(row)
    }
}

impl Body for ExchangeOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, _: usize) -> bool {
        let row = self.next_row(ctx, id);
        push_one(ctx, id, row, out)
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, id: NodeId) {
        self.child.rewind(ctx);
        self.queue.clear();
        // The gauge must follow the queue: a rebind that discards buffered
        // rows would otherwise leave a phantom `rows_buffered` in every
        // snapshot until the next pull.
        ctx.set_buffered(id, 0);
        self.started = false;
        self.child_done = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::scan::ConstantScanOp;
    use crate::ops::testing::{drain, pull};
    use crate::ops::Operator;
    use lqs_plan::CostModel;
    use lqs_storage::{Database, Value};

    fn make(degree: usize, n: i64) -> (Database, Vec<Vec<Value>>, usize) {
        let db = Database::new();
        let rows: Vec<Vec<Value>> = (0..n).map(|v| vec![Value::Int(v)]).collect();
        (db, rows, degree)
    }

    #[test]
    fn passes_all_rows_in_order() {
        let (db, rows, degree) = make(4, 100);
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows));
        let mut ex = ExchangeOp::new(NodeId(1), degree, false, child);
        ex.open(&ctx);
        let rows = drain(&mut ex, &ctx);
        assert_eq!(rows.len(), 100);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r[0], Value::Int(i as i64));
        }
        ex.close(&ctx);
    }

    #[test]
    fn rewind_resets_buffered_gauge() {
        // Regression: rewind cleared the queue but left the gauge, so a
        // nested-loops rebind reported phantom buffered rows to the §4.4
        // semi-blocking adjustments until the next pull.
        let (db, rows, degree) = make(4, 5000);
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows));
        let mut ex = ExchangeOp::new(NodeId(1), degree, false, child);
        ex.open(&ctx);
        let _ = pull(&mut ex, &ctx);
        assert!(ctx.counters_of(NodeId(1)).rows_buffered > 0);
        ex.rewind(&ctx);
        assert_eq!(ctx.counters_of(NodeId(1)).rows_buffered, 0);
        ex.close(&ctx);
    }

    #[test]
    fn rewind_mid_batch_resets_queue_and_gauge() {
        // The queue is filled in chunks; a rewind with rows still queued
        // must discard them, zero the gauge, and restart the child from the
        // top.
        let (db, rows, degree) = make(4, 3000);
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows));
        let mut ex = ExchangeOp::new(NodeId(1), degree, false, child);
        ex.open(&ctx);
        let mut batch = RowBatch::default();
        assert!(ex.next_batch(&ctx, &mut batch, 16));
        assert!(ctx.counters_of(NodeId(1)).rows_buffered > 0);
        ex.rewind(&ctx);
        assert_eq!(ctx.counters_of(NodeId(1)).rows_buffered, 0);
        batch.clear();
        let mut seen = 0i64;
        loop {
            batch.clear();
            if !ex.next_batch(&ctx, &mut batch, 256) {
                break;
            }
            for r in &batch {
                assert_eq!(r[0], Value::Int(seen));
                seen += 1;
            }
        }
        assert_eq!(seen, 3000);
        ex.close(&ctx);
    }

    #[test]
    fn child_counter_races_ahead() {
        let (db, rows, degree) = make(4, 10_000);
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows));
        let mut ex = ExchangeOp::new(NodeId(1), degree, false, child);
        ex.open(&ctx);
        let _ = pull(&mut ex, &ctx);
        let child_k = ctx.counters_of(NodeId(0)).rows_output;
        let ex_k = ctx.counters_of(NodeId(1)).rows_output;
        // Large initial ratio (Figure 8's ">88x" regime).
        assert!(child_k >= 1024, "child_k={child_k}");
        assert_eq!(ex_k, 1);
        // After draining halfway, the gap narrows relative to progress.
        for _ in 0..5000 {
            let _ = pull(&mut ex, &ctx);
        }
        let child_k2 = ctx.counters_of(NodeId(0)).rows_output;
        let ex_k2 = ctx.counters_of(NodeId(1)).rows_output;
        assert!((child_k2 as f64) / (ex_k2 as f64) < 3.0);
        ex.close(&ctx);
    }
}
