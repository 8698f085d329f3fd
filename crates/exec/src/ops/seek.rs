//! Index seeks (point, range, and correlated) and RID lookups.

use super::{index_output_row, Operator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{Expr, IndexOutput, NodeId, SeekKey, SeekRange};
use lqs_storage::{IndexId, RowId, TableId, Value};

/// B+tree seek. Correlated seeks (`SeekKey::OuterRef`) resolve against the
/// current nested-loops outer row; each rewind re-executes the seek with the
/// new binding, which is how index nested-loops joins drive the inner side.
/// A rebind happens once per outer row, so the bounds and the matching rids
/// live in buffers the operator keeps across rebinds.
pub struct IndexSeekOp {
    id: NodeId,
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
    done: bool,
}

impl IndexSeekOp {
    pub(crate) fn new(
        id: NodeId,
        index: IndexId,
        seek: SeekRange,
        residual: Option<Expr>,
        output: IndexOutput,
    ) -> Self {
        IndexSeekOp {
            id,
            index,
            seek,
            residual,
            output,
            lo: Vec::new(),
            hi: Vec::new(),
            rids: Vec::new(),
            pos: 0,
            executed: false,
            done: false,
        }
    }

    fn run_seek(&mut self, ctx: &ExecContext) {
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
        ctx.charge_io(self.id, reads as u64);
    }
}

impl Operator for IndexSeekOp {
    fn open(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.executed = false;
        self.done = false;
    }

    fn next_batch(&mut self, ctx: &ExecContext, out: &mut RowBatch, limit: usize) -> bool {
        if self.done {
            return false;
        }
        if limit == 0 {
            return true;
        }
        if !self.executed {
            self.executed = true;
            self.run_seek(ctx);
        }
        let table_id = ctx.db.btree_table(self.index);
        let mut appended = 0u64;
        // An exhausted seek (every rebind ends on one) opens no scope.
        if self.pos < self.rids.len() {
            let mut scope = ctx.batch_charge(self.id);
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
        if appended == 0 {
            self.done = true;
            ctx.mark_close(self.id);
            return false;
        }
        true
    }

    fn close(&mut self, ctx: &ExecContext) {
        ctx.mark_close(self.id);
    }

    fn rewind(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.executed = false;
        self.done = false;
        self.rids.clear();
        self.pos = 0;
    }
}

/// Fetch base rows by heap RID: the child's **last** output column must be
/// the RID (produced by a `KeyAndRid` index access). Charges one random
/// page read per row.
pub struct RidLookupOp {
    id: NodeId,
    table: TableId,
    child: super::BoxedOperator,
    done: bool,
}

impl RidLookupOp {
    pub(crate) fn new(id: NodeId, table: TableId, child: super::BoxedOperator) -> Self {
        RidLookupOp {
            id,
            table,
            child,
            done: false,
        }
    }
}

impl Operator for RidLookupOp {
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
            let rid = row
                .last()
                .and_then(Value::as_int)
                .expect("RID Lookup child must emit a trailing integer RID")
                as RowId;
            scope.io(ctx.cost.rid_lookup_pages as u64);
            scope.cpu(ctx.cost.seek_row_ns);
            *row = ctx.db.table(self.table).row(rid).clone();
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
