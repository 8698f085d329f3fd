//! Concatenation (UNION ALL) and Bitmap Create.

use super::keys::{cols_have_null, cols_of};
use super::{BoxedOperator, Operator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{BitmapId, NodeId};

/// UNION ALL: drains each child in order.
pub struct ConcatOp {
    id: NodeId,
    children: Vec<BoxedOperator>,
    current: usize,
    done: bool,
}

impl ConcatOp {
    pub(crate) fn new(id: NodeId, children: Vec<BoxedOperator>) -> Self {
        ConcatOp {
            id,
            children,
            current: 0,
            done: false,
        }
    }
}

impl Operator for ConcatOp {
    fn open(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        for c in &mut self.children {
            c.open(ctx);
        }
    }

    fn next_batch(&mut self, ctx: &ExecContext, out: &mut RowBatch, limit: usize) -> bool {
        if self.done {
            return false;
        }
        if limit == 0 {
            return true;
        }
        while self.current < self.children.len() {
            // Rows pass through unchanged, so the child appends straight
            // into `out`.
            let before = out.len();
            if !self.children[self.current].next_batch(ctx, out, limit) {
                self.current += 1;
                continue;
            }
            let got = (out.len() - before) as u64;
            if got > 0 {
                let mut scope = ctx.batch_charge(self.id);
                for _ in 0..got {
                    scope.cpu(2.0);
                }
                ctx.count_input(self.id, got);
                scope.finish_emitting(got);
            }
            return true;
        }
        self.done = true;
        ctx.mark_close(self.id);
        false
    }

    fn close(&mut self, ctx: &ExecContext) {
        for c in &mut self.children {
            c.close(ctx);
        }
        ctx.mark_close(self.id);
    }

    fn rewind(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        for c in &mut self.children {
            c.rewind(ctx);
        }
        self.current = 0;
        self.done = false;
    }
}

/// Builds a bitmap (Bloom filter) from the rows streaming through it,
/// passing them along unchanged (Figure 6: sits on the build side of a hash
/// join, with the bitmap probed by the opposite side's scan).
pub struct BitmapCreateOp {
    id: NodeId,
    key_columns: Vec<usize>,
    bitmap: BitmapId,
    capacity_hint: usize,
    child: BoxedOperator,
    keys_inserted: u64,
    done: bool,
}

impl BitmapCreateOp {
    pub(crate) fn new(
        id: NodeId,
        key_columns: Vec<usize>,
        bitmap: BitmapId,
        capacity_hint: usize,
        child: BoxedOperator,
    ) -> Self {
        BitmapCreateOp {
            id,
            key_columns,
            bitmap,
            capacity_hint: capacity_hint.max(64),
            child,
            keys_inserted: 0,
            done: false,
        }
    }
}

impl Operator for BitmapCreateOp {
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
        // Rows pass through unchanged; pull straight into `out`, then fold
        // the appended slice into the bitmap.
        let before = out.len();
        if !self.child.next_batch(ctx, out, limit) {
            self.done = true;
            ctx.emit_bitmap_built(self.id, self.keys_inserted);
            ctx.mark_close(self.id);
            return false;
        }
        let got = (out.len() - before) as u64;
        if got > 0 {
            let mut scope = ctx.batch_charge(self.id);
            for i in before..out.len() {
                scope.cpu(ctx.cost.bitmap_row_ns);
                let (row, cols) = (out.get(i), &self.key_columns);
                if !cols_have_null(row, cols) {
                    ctx.bitmap_insert(self.bitmap, cols_of(row, cols), self.capacity_hint);
                    self.keys_inserted += 1;
                }
            }
            ctx.count_input(self.id, got);
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
        self.keys_inserted = 0;
        self.done = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::scan::ConstantScanOp;
    use crate::ops::testing::drain;
    use lqs_plan::CostModel;
    use lqs_storage::{Database, Value};

    #[test]
    fn concat_drains_children_in_order() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 0, u64::MAX, CostModel::default());
        let c1 = Box::new(ConstantScanOp::new(
            NodeId(0),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        ));
        let c2 = Box::new(ConstantScanOp::new(NodeId(1), vec![vec![Value::Int(3)]]));
        let mut cat = ConcatOp::new(NodeId(2), vec![c1, c2]);
        cat.open(&ctx);
        let vals: Vec<i64> = drain(&mut cat, &ctx)
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 2, 3]);
        cat.close(&ctx);
    }

    #[test]
    fn bitmap_create_populates_filter() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 1, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(
            NodeId(0),
            vec![vec![Value::Int(5)], vec![Value::Null]],
        ));
        let mut op = BitmapCreateOp::new(NodeId(1), vec![0], BitmapId(0), 64, child);
        op.open(&ctx);
        // Rows pass through, including the null-key row.
        assert_eq!(drain(&mut op, &ctx).len(), 2);
        assert!(ctx.bitmap_may_contain(BitmapId(0), &[Value::Int(5)]));
        assert!(!ctx.bitmap_may_contain(BitmapId(0), &[Value::Int(6)]));
        op.close(&ctx);
    }
}
