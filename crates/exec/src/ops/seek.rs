//! Index seeks (point, range, and correlated) and RID lookups.

use super::{Operator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{Expr, IndexOutput, NodeId, SeekKey, SeekRange};
use lqs_storage::{IndexId, Row, RowId, TableId, Value};

/// B+tree seek. Correlated seeks (`SeekKey::OuterRef`) resolve against the
/// current nested-loops outer row; each rewind re-executes the seek with the
/// new binding, which is how index nested-loops joins drive the inner side.
pub struct IndexSeekOp {
    id: NodeId,
    index: IndexId,
    seek: SeekRange,
    residual: Option<Expr>,
    output: IndexOutput,
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
            rids: Vec::new(),
            pos: 0,
            executed: false,
            done: false,
        }
    }

    fn resolve(&self, ctx: &ExecContext, key: &SeekKey) -> Value {
        match key {
            SeekKey::Lit(v) => v.clone(),
            SeekKey::OuterRef(c) => ctx.current_outer()[*c].clone(),
        }
    }

    fn run_seek(&mut self, ctx: &ExecContext) {
        let prefix: Vec<Value> = self
            .seek
            .eq_keys
            .iter()
            .map(|k| self.resolve(ctx, k))
            .collect();
        let (lo, lo_inc) = match &self.seek.lo {
            Some((k, inc)) => {
                let mut v = prefix.clone();
                v.push(self.resolve(ctx, k));
                (v, *inc)
            }
            None => (prefix.clone(), true),
        };
        let (hi, hi_inc) = match &self.seek.hi {
            Some((k, inc)) => {
                let mut v = prefix.clone();
                v.push(self.resolve(ctx, k));
                (v, *inc)
            }
            None => (prefix.clone(), true),
        };
        let ix = ctx.db.btree(self.index);
        let (rids, reads) = if lo.is_empty() && hi.is_empty() {
            ix.seek_range(None, true, None, true)
        } else {
            ix.seek_range(Some(&lo), lo_inc, Some(&hi), hi_inc)
        };
        self.rids = rids;
        self.pos = 0;
        ctx.charge_io(self.id, reads as u64);
    }

    fn emit_row(&self, ctx: &ExecContext, rid: RowId) -> Row {
        let table_id = ctx.db.btree_table(self.index);
        let base = ctx.db.table(table_id).row(rid);
        match self.output {
            IndexOutput::BaseRow => base.clone(),
            IndexOutput::KeyAndRid => {
                let ix = ctx.db.btree(self.index);
                let mut out: Vec<Value> =
                    ix.key_columns().iter().map(|&c| base[c].clone()).collect();
                out.push(Value::Int(rid as i64));
                out.into()
            }
        }
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
                out.push(self.emit_row(ctx, rid));
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
    scratch: RowBatch,
    done: bool,
}

impl RidLookupOp {
    pub(crate) fn new(id: NodeId, table: TableId, child: super::BoxedOperator) -> Self {
        RidLookupOp {
            id,
            table,
            child,
            scratch: RowBatch::default(),
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
        self.scratch.clear();
        self.done = false;
    }
}
