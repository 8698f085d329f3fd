//! Hash join with optional bitmap (semi-join filter) creation.
//!
//! Child 0 is the **build** input, consumed entirely during `Open()` (its
//! subtree forms a separate pipeline); child 1 is the **probe** input.
//! Output rows are probe columns followed by build columns. When a bitmap id
//! is attached, the build phase also populates a Bloom filter that
//! probe-side scans consult (§4.3, Figure 6).

use super::keys::{cols_eq, cols_have_null, cols_of, hash_cols, KeyTable};
use super::node::{Body, Node};
use super::sort::CONSUME_BATCH;
use super::{concat_rows, BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{BitmapId, JoinKind, NodeId};
use lqs_storage::Row;

pub struct HashJoinOp {
    kind: JoinKind,
    build_keys: Vec<usize>,
    probe_keys: Vec<usize>,
    bitmap: Option<BitmapId>,
    build_arity: usize,
    probe_arity: usize,
    build_capacity_hint: usize,
    batch: bool,
    build: BoxedOperator,
    probe: BoxedOperator,
    /// All build rows; `table` chains their indices by key.
    build_rows: Vec<Row>,
    matched: Vec<bool>,
    table: KeyTable,
    /// Next build row to emit for `pending_probe`: a cursor down the
    /// matching key's chain, which runs in build insertion order.
    pending: Option<usize>,
    pending_probe: Option<Row>,
    /// Probe rows pulled but not yet joined.
    scratch: RowBatch,
    probe_done: bool,
    /// For FullOuter: cursor over unmatched build rows.
    unmatched_pos: usize,
}

impl HashJoinOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        kind: JoinKind,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
        bitmap: Option<BitmapId>,
        build_arity: usize,
        probe_arity: usize,
        build_capacity_hint: usize,
        batch: bool,
        build: BoxedOperator,
        probe: BoxedOperator,
    ) -> Node<Self> {
        HashJoinOp {
            kind,
            build_keys,
            probe_keys,
            bitmap,
            build_arity,
            probe_arity,
            build_capacity_hint: build_capacity_hint.max(64),
            batch,
            build,
            probe,
            build_rows: Vec::new(),
            matched: Vec::new(),
            table: KeyTable::default(),
            pending: None,
            pending_probe: None,
            scratch: RowBatch::default(),
            probe_done: false,
            unmatched_pos: 0,
        }
        .at(id)
    }

    fn factor(&self) -> f64 {
        if self.batch {
            0.3
        } else {
            1.0
        }
    }

    fn build_phase(&mut self, ctx: &ExecContext, id: NodeId) {
        let factor = self.factor();
        let mut scratch = RowBatch::with_capacity(CONSUME_BATCH);
        while self.build.next_batch(ctx, &mut scratch, CONSUME_BATCH) {
            // Input counted through the scope, per row: the join bound
            // derives "probe rows processed" from rows_input, so it
            // must never lead the rows actually folded into the table.
            let mut scope = ctx.batch_charge(id);
            while let Some(row) = scratch.pop_front() {
                scope.rows_in(1);
                scope.cpu(ctx.cost.hash_build_row_ns * factor);
                let (rows, keys) = (&self.build_rows, &self.build_keys);
                let idx = rows.len();
                // A NULL-keyed row is kept (FULL OUTER pads it) but goes on
                // no chain: no probe can reach it.
                if !cols_have_null(&row, keys) {
                    if let Some(bm) = self.bitmap {
                        scope.cpu(ctx.cost.bitmap_row_ns * factor);
                        ctx.bitmap_insert(bm, cols_of(&row, keys), self.build_capacity_hint);
                    }
                    let hash = hash_cols(&row, keys);
                    match self
                        .table
                        .find(hash, |r| cols_eq(&rows[r], keys, &row, keys))
                    {
                        Some(group) => self.table.add_row(group, idx),
                        None => {
                            self.table.add_group(hash, idx);
                        }
                    }
                }
                self.build_rows.push(row);
                self.matched.push(false);
            }
            scope.finish();
        }
        if self.bitmap.is_some() {
            ctx.emit_bitmap_built(id, self.table.groups() as u64);
        }
        ctx.emit_phase(id, "build", "probe");
    }
}

impl Body for HashJoinOp {
    fn open(&mut self, ctx: &ExecContext, id: NodeId) {
        self.build.open(ctx);
        self.probe.open(ctx);
        self.build_phase(ctx, id);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        let factor = self.factor();
        let mut appended = 0usize;
        loop {
            // One charging scope covers the whole drain↔probe alternation
            // over the current probe batch — one trace span per batch, not
            // one per matching probe row. Drained matches count through the
            // scope: pending row counts settle at every flush *before* the
            // clock advances, so any snapshot still sees the counters in
            // step with the charges, and the queued match set belongs to at
            // most one probe row at any instant (the +1 the §4.2 join bound
            // allows). The scope must end before pulling the probe child,
            // which opens its own exclusive scope.
            if self.pending.is_some() || !self.scratch.is_empty() {
                let mut scope = ctx.batch_charge(id);
                loop {
                    // Drain matches queued for the current probe row first;
                    // a wide match set may span several calls without
                    // overshooting `limit`.
                    let mut drained = 0u64;
                    while let Some(bidx) = self.pending.filter(|_| appended < limit) {
                        self.pending = self.table.next_row(bidx);
                        self.matched[bidx] = true;
                        let probe = self.pending_probe.as_ref().expect("probe row queued");
                        out.push(concat_rows(probe, &self.build_rows[bidx]));
                        appended += 1;
                        drained += 1;
                    }
                    scope.rows_out(drained);
                    if appended >= limit || self.scratch.is_empty() {
                        break;
                    }
                    while appended < limit && self.pending.is_none() {
                        let Some(probe_row) = self.scratch.pop_front() else {
                            break;
                        };
                        scope.rows_in(1);
                        scope.cpu(ctx.cost.hash_probe_row_ns * factor);
                        // First build row of the matching key's chain.
                        let (rows, bk, pk) = (&self.build_rows, &self.build_keys, &self.probe_keys);
                        let first = if cols_have_null(&probe_row, pk) {
                            None
                        } else {
                            self.table
                                .find(hash_cols(&probe_row, pk), |r| {
                                    cols_eq(&rows[r], bk, &probe_row, pk)
                                })
                                .map(|group| self.table.first_row(group))
                        };
                        match (self.kind, first) {
                            (
                                JoinKind::Inner | JoinKind::LeftOuter | JoinKind::FullOuter,
                                Some(_),
                            ) => {
                                self.pending = first;
                                self.pending_probe = Some(probe_row);
                            }
                            (JoinKind::LeftOuter | JoinKind::FullOuter, None) => {
                                out.push(concat_rows(
                                    &probe_row,
                                    &super::null_row(self.build_arity),
                                ));
                                scope.rows_out(1);
                                appended += 1;
                            }
                            (JoinKind::LeftSemi, Some(first)) => {
                                let chain =
                                    std::iter::successors(Some(first), |&r| self.table.next_row(r));
                                for m in chain {
                                    self.matched[m] = true;
                                }
                                out.push(probe_row);
                                scope.rows_out(1);
                                appended += 1;
                            }
                            (JoinKind::LeftAnti, None) => {
                                out.push(probe_row);
                                scope.rows_out(1);
                                appended += 1;
                            }
                            (JoinKind::Inner | JoinKind::LeftSemi, None)
                            | (JoinKind::LeftAnti, Some(_)) => {}
                        }
                    }
                }
                scope.finish();
            }
            if appended > 0 {
                break;
            }
            if self.probe_done {
                // FullOuter tail: unmatched build rows padded with NULLs on
                // the probe side. The tail charges nothing, so the post-loop
                // count is snapshot-atomic like the pending drain above.
                if self.kind == JoinKind::FullOuter {
                    let mut padded = 0u64;
                    while self.unmatched_pos < self.build_rows.len() && appended < limit {
                        let i = self.unmatched_pos;
                        self.unmatched_pos += 1;
                        if !self.matched[i] {
                            let pad = super::null_row(self.probe_arity);
                            out.push(concat_rows(&pad, &self.build_rows[i]));
                            appended += 1;
                            padded += 1;
                        }
                    }
                    ctx.count_output(id, padded);
                }
                if appended > 0 {
                    break;
                }
                return false;
            }
            if !self.probe.next_batch(ctx, &mut self.scratch, limit) {
                self.probe_done = true;
            }
        }
        true
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.build.close(ctx);
        self.probe.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, id: NodeId) {
        self.build.rewind(ctx);
        self.probe.rewind(ctx);
        self.build_rows.clear();
        self.matched.clear();
        self.table.clear();
        self.pending = None;
        self.pending_probe = None;
        self.scratch.clear();
        self.probe_done = false;
        self.unmatched_pos = 0;
        self.build_phase(ctx, id);
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

    fn rows(v: &[(i64, i64)]) -> Vec<Vec<Value>> {
        v.iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect()
    }

    fn run_join(kind: JoinKind, build: Vec<Vec<Value>>, probe: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 1, u64::MAX, CostModel::default());
        let b = Box::new(ConstantScanOp::new(NodeId(0), build));
        let p = Box::new(ConstantScanOp::new(NodeId(1), probe));
        let mut j = HashJoinOp::new(
            NodeId(2),
            kind,
            vec![0],
            vec![0],
            None,
            2,
            2,
            16,
            false,
            b,
            p,
        );
        j.open(&ctx);
        let out = drain(&mut j, &ctx).iter().map(|r| r.to_vec()).collect();
        j.close(&ctx);
        out
    }

    #[test]
    fn inner_join_matches() {
        let out = run_join(
            JoinKind::Inner,
            rows(&[(1, 100), (2, 200), (2, 201)]),
            rows(&[(2, 9), (3, 8)]),
        );
        // Probe row (2,9) matches two build rows.
        assert_eq!(out.len(), 2);
        for r in &out {
            assert_eq!(r[0], Value::Int(2)); // probe cols first
            assert_eq!(r[2], Value::Int(2)); // then build cols
        }
    }

    #[test]
    fn left_outer_pads_unmatched_probe() {
        let out = run_join(
            JoinKind::LeftOuter,
            rows(&[(1, 100)]),
            rows(&[(1, 9), (3, 8)]),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[1],
            vec![Value::Int(3), Value::Int(8), Value::Null, Value::Null]
        );
    }

    #[test]
    fn semi_and_anti() {
        let semi = run_join(
            JoinKind::LeftSemi,
            rows(&[(1, 0), (1, 1)]),
            rows(&[(1, 9), (3, 8)]),
        );
        // Semi emits the probe row once despite two matches, probe cols only.
        assert_eq!(semi, vec![vec![Value::Int(1), Value::Int(9)]]);
        let anti = run_join(JoinKind::LeftAnti, rows(&[(1, 0)]), rows(&[(1, 9), (3, 8)]));
        assert_eq!(anti, vec![vec![Value::Int(3), Value::Int(8)]]);
    }

    #[test]
    fn full_outer_emits_both_sides() {
        let out = run_join(
            JoinKind::FullOuter,
            rows(&[(1, 100), (4, 400)]),
            rows(&[(1, 9), (3, 8)]),
        );
        // (1) match, (3) probe-unmatched, (4) build-unmatched.
        assert_eq!(out.len(), 3);
        assert_eq!(out[2][0], Value::Null); // padded probe side
        assert_eq!(out[2][2], Value::Int(4));
    }

    #[test]
    fn null_keys_never_match() {
        let build = vec![vec![Value::Null, Value::Int(1)]];
        let probe = vec![vec![Value::Null, Value::Int(2)]];
        assert!(run_join(JoinKind::Inner, build.clone(), probe.clone()).is_empty());
        // But LeftOuter still preserves the probe row.
        let out = run_join(JoinKind::LeftOuter, build, probe);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][2], Value::Null);
    }

    #[test]
    fn rewind_mid_batch_discards_scratch_and_pending() {
        // A small limit against a multi-match build leaves probe rows
        // staged in scratch and matches queued in pending; a rewind at that
        // point must discard both, rebuild, and replay the complete join
        // output.
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 1, u64::MAX, CostModel::default());
        let build: Vec<Vec<Value>> = (0..4).map(|v| vec![Value::Int(1), Value::Int(v)]).collect();
        let probe: Vec<Vec<Value>> = (0..8).map(|v| vec![Value::Int(1), Value::Int(v)]).collect();
        let b = Box::new(ConstantScanOp::new(NodeId(0), build));
        let p = Box::new(ConstantScanOp::new(NodeId(1), probe));
        let mut j = HashJoinOp::new(
            NodeId(2),
            JoinKind::Inner,
            vec![0],
            vec![0],
            None,
            2,
            2,
            16,
            false,
            b,
            p,
        );
        j.open(&ctx);
        let mut batch = RowBatch::default();
        // Each probe row matches 4 build rows; limit 2 leaves pending
        // matches queued and probe rows staged in scratch.
        assert!(j.next_batch(&ctx, &mut batch, 2));
        assert_eq!(batch.len(), 2);
        j.rewind(&ctx);
        let mut total = 0usize;
        loop {
            batch.clear();
            if !j.next_batch(&ctx, &mut batch, 5) {
                break;
            }
            total += batch.len();
        }
        assert_eq!(total, 8 * 4);
        j.close(&ctx);
    }

    #[test]
    fn bitmap_published_during_build() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 1, u64::MAX, CostModel::default());
        let b = Box::new(ConstantScanOp::new(NodeId(0), rows(&[(1, 0), (2, 0)])));
        let p = Box::new(ConstantScanOp::new(NodeId(1), vec![]));
        let mut j = HashJoinOp::new(
            NodeId(2),
            JoinKind::Inner,
            vec![0],
            vec![0],
            Some(BitmapId(0)),
            2,
            2,
            16,
            false,
            b,
            p,
        );
        j.open(&ctx);
        assert!(ctx.bitmap_may_contain(BitmapId(0), &[Value::Int(1)]));
        assert!(!ctx.bitmap_may_contain(BitmapId(0), &[Value::Int(99)]));
        j.close(&ctx);
    }

    #[test]
    fn build_consumed_during_open() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 1, u64::MAX, CostModel::default());
        let b = Box::new(ConstantScanOp::new(NodeId(0), rows(&[(1, 0), (2, 0)])));
        let p = Box::new(ConstantScanOp::new(NodeId(1), rows(&[(1, 5)])));
        let mut j = HashJoinOp::new(
            NodeId(2),
            JoinKind::Inner,
            vec![0],
            vec![0],
            None,
            2,
            2,
            16,
            false,
            b,
            p,
        );
        j.open(&ctx);
        // Build side (node 0) fully consumed before any next_batch().
        assert_eq!(ctx.counters_of(NodeId(0)).rows_output, 2);
        assert_eq!(ctx.counters_of(NodeId(1)).rows_output, 0);
        j.close(&ctx);
    }
}
