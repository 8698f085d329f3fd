//! Scan operators: heap table scan, ordered index scan, batch-mode
//! columnstore scan, and constant scan.

use super::keys::cols_of;
use super::node::{Body, Node};
use super::{index_output_row, RowBatch};
use crate::context::ExecContext;
use crate::pred::CompiledPredicate;
use lqs_plan::{BitmapProbe, CmpOp, Expr, IndexOutput, NodeId};
use lqs_storage::btree::LEAF_FANOUT;
use lqs_storage::{ColumnstoreId, IndexId, Row, RowId, TableId, Value};

/// Full heap scan. Charges one logical read per page crossed and per-row
/// CPU; when a predicate and/or bitmap probe is attached, it is evaluated
/// against every stored row but only qualifying rows are emitted — the
/// storage-engine-pushdown behaviour of §4.3.
pub(crate) struct TableScanOp {
    table: TableId,
    predicate: Option<CompiledPredicate>,
    bitmap: Option<BitmapProbe>,
    pos: RowId,
    last_page: Option<usize>,
}

impl TableScanOp {
    pub(crate) fn new(
        id: NodeId,
        table: TableId,
        predicate: Option<Expr>,
        bitmap: Option<BitmapProbe>,
    ) -> Node<Self> {
        TableScanOp {
            table,
            predicate: predicate.as_ref().map(CompiledPredicate::compile),
            bitmap,
            pos: 0,
            last_page: None,
        }
        .at(id)
    }
}

impl Body for TableScanOp {
    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        let table = ctx.db.table(self.table);
        let preds = self.predicate.is_some() as u8 as f64;
        let row_cpu = ctx.cost.scan_row_ns + preds * ctx.cost.pred_row_ns;
        let mut appended = 0usize;
        let mut scope = ctx.batch_charge(id);
        while appended < limit {
            if self.pos >= table.row_count() {
                if appended == 0 {
                    scope.finish();
                    return false;
                }
                break;
            }
            let rid = self.pos;
            self.pos += 1;
            let page = table.page_of(rid);
            if self.last_page != Some(page) {
                self.last_page = Some(page);
                scope.io(1);
            }
            scope.cpu(row_cpu);
            let row = table.row(rid);
            if let Some(p) = &self.predicate {
                if !p.matches(row) {
                    continue;
                }
            }
            if let Some(bp) = &self.bitmap {
                if !ctx.bitmap_may_contain(bp.bitmap, cols_of(row, &bp.key_columns)) {
                    continue;
                }
            }
            out.push(row.clone());
            appended += 1;
        }
        scope.finish_emitting(appended as u64);
        true
    }

    fn rewind(&mut self, _ctx: &ExecContext, _id: NodeId) {
        self.pos = 0;
        self.last_page = None;
    }
}

/// Ordered scan of a B+tree index, charging one logical read per leaf node
/// visited. Emits either full base rows or `(key..., rid)`.
pub(crate) struct IndexScanOp {
    index: IndexId,
    predicate: Option<CompiledPredicate>,
    bitmap: Option<BitmapProbe>,
    output: IndexOutput,
    /// Position in the index's key order; it is on leaf
    /// `pos / LEAF_FANOUT`.
    pos: usize,
    last_leaf: Option<usize>,
}

impl IndexScanOp {
    pub(crate) fn new(
        id: NodeId,
        index: IndexId,
        predicate: Option<Expr>,
        bitmap: Option<BitmapProbe>,
        output: IndexOutput,
    ) -> Node<Self> {
        IndexScanOp {
            index,
            predicate: predicate.as_ref().map(CompiledPredicate::compile),
            bitmap,
            output,
            pos: 0,
            last_leaf: None,
        }
        .at(id)
    }
}

impl Body for IndexScanOp {
    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        let rids = ctx.db.btree(self.index).rids();
        let table_id = ctx.db.btree_table(self.index);
        let preds = self.predicate.is_some() as u8 as f64;
        let row_cpu = ctx.cost.scan_row_ns + preds * ctx.cost.pred_row_ns;
        let mut appended = 0usize;
        let mut scope = ctx.batch_charge(id);
        while appended < limit {
            if self.pos >= rids.len() {
                if appended == 0 {
                    scope.finish();
                    return false;
                }
                break;
            }
            let (leaf, rid) = (self.pos / LEAF_FANOUT, rids[self.pos]);
            self.pos += 1;
            if self.last_leaf != Some(leaf) {
                self.last_leaf = Some(leaf);
                scope.io(1);
            }
            scope.cpu(row_cpu);
            let base = ctx.db.table(table_id).row(rid);
            if let Some(p) = &self.predicate {
                if !p.matches(base) {
                    continue;
                }
            }
            let out_row = index_output_row(ctx, self.index, self.output, rid);
            if let Some(bp) = &self.bitmap {
                if !ctx.bitmap_may_contain(bp.bitmap, cols_of(&out_row, &bp.key_columns)) {
                    continue;
                }
            }
            out.push(out_row);
            appended += 1;
        }
        scope.finish_emitting(appended as u64);
        true
    }

    fn rewind(&mut self, _ctx: &ExecContext, _id: NodeId) {
        self.pos = 0;
        self.last_leaf = None;
    }
}

/// Batch-mode columnstore scan (§4.7): processes a whole segment at a time,
/// charging batch-rate CPU and segment I/O up front and then emitting the
/// segment's qualifying rows. Progress for this operator is tracked in
/// *segments processed*, not GetNext calls.
pub(crate) struct ColumnstoreScanOp {
    columnstore: ColumnstoreId,
    predicate: Option<Expr>,
    bitmap: Option<BitmapProbe>,
    seg: usize,
    pending: Vec<Row>,
    pending_pos: usize,
}

impl ColumnstoreScanOp {
    pub(crate) fn new(
        id: NodeId,
        columnstore: ColumnstoreId,
        predicate: Option<Expr>,
        bitmap: Option<BitmapProbe>,
    ) -> Node<Self> {
        ColumnstoreScanOp {
            columnstore,
            predicate,
            bitmap,
            seg: 0,
            pending: Vec::new(),
            pending_pos: 0,
        }
        .at(id)
    }

    /// Extract simple `[lo, hi]` bounds per column from a conjunctive
    /// predicate, for segment elimination.
    fn range_bounds(&self) -> Vec<(usize, Option<Value>, Option<Value>)> {
        let mut out = Vec::new();
        let Some(pred) = &self.predicate else {
            return out;
        };
        let conjuncts: Vec<&Expr> = match pred {
            Expr::And(parts) => parts.iter().collect(),
            other => vec![other],
        };
        for c in conjuncts {
            if let Expr::Cmp { op, lhs, rhs } = c {
                if let (Expr::Col(col), Expr::Lit(v)) = (lhs.as_ref(), rhs.as_ref()) {
                    match op {
                        CmpOp::Eq => out.push((*col, Some(v.clone()), Some(v.clone()))),
                        CmpOp::Lt | CmpOp::Le => out.push((*col, None, Some(v.clone()))),
                        CmpOp::Gt | CmpOp::Ge => out.push((*col, Some(v.clone()), None)),
                        CmpOp::Ne => {}
                    }
                }
            }
        }
        out
    }

    /// Load the next segment into `pending`. Returns false when exhausted.
    fn load_segment(&mut self, ctx: &ExecContext, id: NodeId) -> bool {
        let cs = ctx.db.columnstore(self.columnstore);
        let bounds = self.range_bounds();
        loop {
            if self.seg >= cs.segment_count() {
                return false;
            }
            let seg = &cs.segments()[self.seg];
            self.seg += 1;
            // Segment elimination from min/max metadata.
            let eliminated = bounds
                .iter()
                .any(|(col, lo, hi)| !seg.may_match_range(*col, lo.as_ref(), hi.as_ref()));
            if eliminated {
                // Metadata-only: the segment counts as processed but costs
                // almost nothing.
                ctx.charge_cpu(id, 100.0);
                ctx.count_segment(id);
                continue;
            }
            ctx.charge_io(id, ctx.cost.segment_io_pages as u64);
            ctx.charge_cpu(id, seg.row_count as f64 * ctx.cost.batch_row_ns);
            self.pending.clear();
            self.pending_pos = 0;
            for off in 0..seg.row_count {
                let row = seg.row(off);
                if let Some(p) = &self.predicate {
                    if !p.matches(&row) {
                        continue;
                    }
                }
                if let Some(bp) = &self.bitmap {
                    if !ctx.bitmap_may_contain(bp.bitmap, cols_of(&row, &bp.key_columns)) {
                        continue;
                    }
                }
                self.pending.push(row);
            }
            ctx.count_segment(id);
            if !self.pending.is_empty() {
                return true;
            }
        }
    }
}

impl Body for ColumnstoreScanOp {
    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        loop {
            let avail = self.pending.len() - self.pending_pos;
            if avail > 0 {
                let n = avail.min(limit);
                for _ in 0..n {
                    out.push(self.pending[self.pending_pos].clone());
                    self.pending_pos += 1;
                }
                ctx.count_output(id, n as u64);
                return true;
            }
            if !self.load_segment(ctx, id) {
                return false;
            }
        }
    }

    fn rewind(&mut self, _ctx: &ExecContext, _id: NodeId) {
        self.seg = 0;
        self.pending.clear();
        self.pending_pos = 0;
    }
}

/// In-plan constant rows.
pub(crate) struct ConstantScanOp {
    rows: Vec<Vec<Value>>,
    pos: usize,
}

impl ConstantScanOp {
    pub(crate) fn new(id: NodeId, rows: Vec<Vec<Value>>) -> Node<Self> {
        ConstantScanOp { rows, pos: 0 }.at(id)
    }
}

impl Body for ConstantScanOp {
    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        let n = (self.rows.len() - self.pos).min(limit);
        if n == 0 {
            return false;
        }
        let mut scope = ctx.batch_charge(id);
        for _ in 0..n {
            scope.cpu(2.0);
            out.push(self.rows[self.pos].clone().into());
            self.pos += 1;
        }
        scope.finish_emitting(n as u64);
        true
    }

    fn rewind(&mut self, _ctx: &ExecContext, _id: NodeId) {
        self.pos = 0;
    }
}
