//! Index seeks (point, range, and correlated) and RID lookups.

use super::node::{Body, Node};
use super::{index_output_row, pass_through, BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{Expr, IndexOutput, NodeId, SeekKey, SeekRange};
use lqs_storage::{IndexId, RowId, TableId, Value};

/// B+tree seek. Correlated seeks (`SeekKey::OuterRef`) resolve against the
/// current nested-loops outer row; each rewind re-executes the seek with the
/// new binding, which is how index nested-loops joins drive the inner side.
/// A rebind happens once per outer row, so the bounds and the matching rids
/// live in buffers the operator keeps across rebinds.
pub struct IndexSeekOp {
    index: IndexId,
    seek: SeekRange,
    residual: Option<Expr>,
    output: IndexOutput,
    /// Lower bound of the current binding: the resolved equality prefix,
    /// then the range's low key if it has one.
    lo: Vec<Value>,
    /// Upper bound, built only when the range has a high key; otherwise
    /// the equality prefix in `lo` is the upper bound too.
    hi: Vec<Value>,
    rids: Vec<RowId>,
    pos: usize,
    executed: bool,
}

impl IndexSeekOp {
    pub(crate) fn new(
        id: NodeId,
        index: IndexId,
        seek: SeekRange,
        residual: Option<Expr>,
        output: IndexOutput,
    ) -> Node<Self> {
        IndexSeekOp {
            index,
            seek,
            residual,
            output,
            lo: Vec::new(),
            hi: Vec::new(),
            rids: Vec::new(),
            pos: 0,
            executed: false,
        }
        .at(id)
    }

    fn run_seek(&mut self, ctx: &ExecContext, id: NodeId) {
        let resolve = |key: &SeekKey| match key {
            SeekKey::Lit(v) => v.clone(),
            SeekKey::OuterRef(c) => ctx.with_outer(|outer| outer[*c].clone()),
        };
        self.lo.clear();
        self.lo.extend(self.seek.eq_keys.iter().map(&resolve));
        let prefix = self.lo.len();
        let (mut lo_inc, mut hi_inc) = (true, true);
        if let Some((k, inc)) = &self.seek.hi {
            self.hi.clear();
            self.hi.extend_from_slice(&self.lo);
            self.hi.push(resolve(k));
            hi_inc = *inc;
        }
        if let Some((k, inc)) = &self.seek.lo {
            self.lo.push(resolve(k));
            lo_inc = *inc;
        }
        let hi = match self.seek.hi {
            Some(_) => &self.hi[..],
            None => &self.lo[..prefix],
        };
        let ix = ctx.db.btree(self.index);
        let reads = if self.lo.is_empty() && hi.is_empty() {
            ix.seek_range_into(None, true, None, true, &mut self.rids)
        } else {
            ix.seek_range_into(Some(&self.lo), lo_inc, Some(hi), hi_inc, &mut self.rids)
        };
        self.pos = 0;
        ctx.charge_io(id, reads as u64);
    }
}

impl Body for IndexSeekOp {
    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        if !self.executed {
            self.executed = true;
            self.run_seek(ctx, id);
        }
        let table_id = ctx.db.btree_table(self.index);
        let mut appended = 0u64;
        // An exhausted seek (every rebind ends on one) opens no scope.
        if self.pos < self.rids.len() {
            let mut scope = ctx.batch_charge(id);
            while self.pos < self.rids.len() && (appended as usize) < limit {
                let rid = self.rids[self.pos];
                self.pos += 1;
                scope.cpu(ctx.cost.seek_row_ns);
                if let Some(r) = &self.residual {
                    let base = ctx.db.table(table_id).row(rid);
                    if !r.matches(base) {
                        continue;
                    }
                }
                out.push(index_output_row(ctx, self.index, self.output, rid));
                appended += 1;
            }
            scope.finish_emitting(appended);
        }
        appended > 0
    }

    fn rewind(&mut self, _ctx: &ExecContext, _id: NodeId) {
        self.executed = false;
        self.rids.clear();
        self.pos = 0;
    }
}

/// Fetch base rows by heap RID: the child's **last** output column must be
/// the RID (produced by a `KeyAndRid` index access). Charges one random
/// page read per row.
pub struct RidLookupOp {
    table: TableId,
    child: BoxedOperator,
}

impl RidLookupOp {
    pub(crate) fn new(id: NodeId, table: TableId, child: BoxedOperator) -> Node<Self> {
        RidLookupOp { table, child }.at(id)
    }
}

impl Body for RidLookupOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        pass_through(self.child.as_mut(), ctx, id, out, limit, |scope, row| {
            let rid = row
                .last()
                .and_then(Value::as_int)
                .expect("RID Lookup child must emit a trailing integer RID")
                as RowId;
            scope.io(ctx.cost.rid_lookup_pages as u64);
            scope.cpu(ctx.cost.seek_row_ns);
            *row = ctx.db.table(self.table).row(rid).clone();
        })
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.rewind(ctx);
    }
}
