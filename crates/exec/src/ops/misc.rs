//! Concatenation (UNION ALL) and Bitmap Create.

use super::keys::{cols_have_null, cols_of};
use super::node::{Body, Node};
use super::{pass_through, BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{BitmapId, NodeId};

/// UNION ALL: drains each child in order.
pub(crate) struct ConcatOp {
    children: Vec<BoxedOperator>,
    current: usize,
}

impl ConcatOp {
    pub(crate) fn new(id: NodeId, children: Vec<BoxedOperator>) -> Node<Self> {
        ConcatOp {
            children,
            current: 0,
        }
        .at(id)
    }
}

impl Body for ConcatOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        for c in &mut self.children {
            c.open(ctx);
        }
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        while self.current < self.children.len() {
            let child = self.children[self.current].as_mut();
            if pass_through(child, ctx, id, out, limit, |scope, _| scope.cpu(2.0)) {
                return true;
            }
            self.current += 1;
        }
        false
    }

    fn close(&mut self, ctx: &ExecContext) {
        for c in &mut self.children {
            c.close(ctx);
        }
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        for c in &mut self.children {
            c.rewind(ctx);
        }
        self.current = 0;
    }
}

/// Builds a bitmap (Bloom filter) from the rows streaming through it,
/// passing them along unchanged (Figure 6: sits on the build side of a hash
/// join, with the bitmap probed by the opposite side's scan).
pub(crate) struct BitmapCreateOp {
    key_columns: Vec<usize>,
    bitmap: BitmapId,
    capacity_hint: usize,
    child: BoxedOperator,
    keys_inserted: u64,
}

impl BitmapCreateOp {
    pub(crate) fn new(
        id: NodeId,
        key_columns: Vec<usize>,
        bitmap: BitmapId,
        capacity_hint: usize,
        child: BoxedOperator,
    ) -> Node<Self> {
        BitmapCreateOp {
            key_columns,
            bitmap,
            capacity_hint: capacity_hint.max(64),
            child,
            keys_inserted: 0,
        }
        .at(id)
    }
}

impl Body for BitmapCreateOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        let more = pass_through(self.child.as_mut(), ctx, id, out, limit, |scope, row| {
            scope.cpu(ctx.cost.bitmap_row_ns);
            let cols = &self.key_columns;
            if !cols_have_null(row, cols) {
                ctx.bitmap_insert(self.bitmap, cols_of(row, cols), self.capacity_hint);
                self.keys_inserted += 1;
            }
        });
        if !more {
            ctx.emit_bitmap_built(id, self.keys_inserted);
        }
        more
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.rewind(ctx);
        self.keys_inserted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::scan::ConstantScanOp;
    use crate::ops::testing::drain;
    use crate::ops::Operator;
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
