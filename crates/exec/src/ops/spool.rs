//! Table spools (eager and lazy).
//!
//! Spools materialize their input so rewinds replay the stored rows instead
//! of re-executing the child subtree. The eager spool consumes its entire
//! input on first demand (fully blocking); the lazy spool copies rows
//! through incrementally. Both charge spill I/O at a configurable
//! rows-per-page rate.

use super::node::{Body, Node};
use super::sort::CONSUME_BATCH;
use super::{BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::NodeId;
use lqs_storage::Row;

pub struct SpoolOp {
    lazy: bool,
    child: BoxedOperator,
    buffer: Vec<Row>,
    /// Rows written since the last spill-page charge.
    write_pending: f64,
    read_pending: f64,
    pos: usize,
    /// Child rows staged during the lazy first pass.
    scratch: RowBatch,
    /// True once the child is exhausted and `buffer` is complete.
    populated: bool,
}

impl SpoolOp {
    pub(crate) fn new(id: NodeId, lazy: bool, child: BoxedOperator) -> Node<Self> {
        SpoolOp {
            lazy,
            child,
            buffer: Vec::new(),
            write_pending: 0.0,
            read_pending: 0.0,
            pos: 0,
            scratch: RowBatch::default(),
            populated: false,
        }
        .at(id)
    }

    fn populate_all(&mut self, ctx: &ExecContext, id: NodeId) {
        let mut scratch = RowBatch::with_capacity(CONSUME_BATCH);
        while self.child.next_batch(ctx, &mut scratch, CONSUME_BATCH) {
            ctx.count_input(id, scratch.len() as u64);
            let mut scope = ctx.batch_charge(id);
            while let Some(row) = scratch.pop_front() {
                scope.cpu(ctx.cost.spool_write_row_ns);
                self.write_pending += 1.0;
                if self.write_pending >= ctx.cost.spool_rows_per_page {
                    self.write_pending -= ctx.cost.spool_rows_per_page;
                    scope.io(1);
                }
                self.buffer.push(row);
            }
            scope.finish();
        }
        self.populated = true;
        ctx.emit_phase(id, "write", "replay");
    }
}

impl Body for SpoolOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        if !self.lazy && !self.populated {
            self.populate_all(ctx, id);
            self.pos = 0;
        }
        if self.populated {
            // Serving from the buffer.
            let n = (self.buffer.len() - self.pos).min(limit);
            if n == 0 {
                return false;
            }
            let mut scope = ctx.batch_charge(id);
            for i in self.pos..self.pos + n {
                scope.cpu(ctx.cost.spool_read_row_ns);
                self.read_pending += 1.0;
                if self.read_pending >= ctx.cost.spool_rows_per_page {
                    self.read_pending -= ctx.cost.spool_rows_per_page;
                    scope.io(1);
                }
                out.push(self.buffer[i].clone());
            }
            self.pos += n;
            scope.finish_emitting(n as u64);
            return true;
        }
        // Lazy first pass: copy a chunk through.
        self.scratch.clear();
        if !self.child.next_batch(ctx, &mut self.scratch, limit) {
            self.populated = true;
            ctx.emit_phase(id, "write", "replay");
            return false;
        }
        let n = self.scratch.len() as u64;
        ctx.count_input(id, n);
        let mut scope = ctx.batch_charge(id);
        while let Some(row) = self.scratch.pop_front() {
            scope.cpu(ctx.cost.spool_write_row_ns);
            self.write_pending += 1.0;
            if self.write_pending >= ctx.cost.spool_rows_per_page {
                self.write_pending -= ctx.cost.spool_rows_per_page;
                scope.io(1);
            }
            // One clone is inherent: the spool keeps a replayable copy.
            self.buffer.push(row.clone());
            out.push(row);
        }
        self.pos = self.buffer.len();
        scope.finish_emitting(n);
        true
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, id: NodeId) {
        // Rewound before the first pass completed (or before it began):
        // finish populating so the replay is complete. (Matches engine
        // behaviour: a lazy spool rewound mid-stream re-reads what it has
        // and continues from the child.)
        if !self.populated {
            self.populate_all(ctx, id);
        }
        self.scratch.clear();
        self.pos = 0;
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

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n).map(|v| vec![Value::Int(v)]).collect()
    }

    #[test]
    fn eager_spool_blocks_then_replays() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows(50)));
        let mut spool = SpoolOp::new(NodeId(1), false, child);
        spool.open(&ctx);
        let first = pull(&mut spool, &ctx).unwrap();
        assert_eq!(first[0], Value::Int(0));
        // Entire input consumed on first demand.
        assert_eq!(ctx.counters_of(NodeId(1)).rows_input, 50);
        assert_eq!(drain(&mut spool, &ctx).len(), 49);
        // Rewind replays without touching the child again.
        let child_k = ctx.counters_of(NodeId(0)).rows_output;
        spool.rewind(&ctx);
        assert_eq!(drain(&mut spool, &ctx).len(), 50);
        assert_eq!(ctx.counters_of(NodeId(0)).rows_output, child_k);
        spool.close(&ctx);
    }

    #[test]
    fn lazy_spool_streams_through() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows(50)));
        let mut spool = SpoolOp::new(NodeId(1), true, child);
        spool.open(&ctx);
        let _ = pull(&mut spool, &ctx).unwrap();
        // Only one row consumed so far (pipelined).
        assert_eq!(ctx.counters_of(NodeId(1)).rows_input, 1);
        assert_eq!(drain(&mut spool, &ctx).len(), 49);
        spool.rewind(&ctx);
        assert_eq!(drain(&mut spool, &ctx).len(), 50);
        spool.close(&ctx);
    }

    #[test]
    fn spool_charges_io() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows(1000)));
        let mut spool = SpoolOp::new(NodeId(1), false, child);
        spool.open(&ctx);
        drain(&mut spool, &ctx);
        // 1000 rows at 200 rows/page = 5 write pages + 5 read pages.
        assert_eq!(ctx.counters_of(NodeId(1)).logical_reads, 10);
        spool.close(&ctx);
    }
}
