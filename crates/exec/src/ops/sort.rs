//! Blocking sorts: Sort, Top N Sort, Distinct Sort.
//!
//! Sorts are the canonical fully blocking operator of the paper's §4.5: they
//! perform substantial work (consuming and ordering the input) before the
//! first row is output. The implementation charges a configurable fraction
//! of the sort CPU during the input phase and the remainder during the
//! output phase, so DMV snapshots observe the same two-phase counter shape
//! as the real engine (input rows climbing while `k = 0`, then `k` climbing).

use super::node::{Body, Node};
use super::{BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{CostModel, NodeId, SortKey};
use lqs_storage::Row;
use std::cmp::Ordering;

/// Chunk size for internally batched blocking phases.
pub(crate) const CONSUME_BATCH: usize = 1024;

enum Phase {
    Input,
    Output,
}

/// Unified Sort / Top N Sort / Distinct Sort operator.
pub struct SortOp {
    keys: Vec<SortKey>,
    /// `Some(n)` = Top N Sort.
    top_n: Option<usize>,
    /// Distinct Sort: drop adjacent duplicate keys after sorting.
    distinct: bool,
    child: BoxedOperator,
    buffer: Vec<Row>,
    pos: usize,
    phase: Phase,
}

impl SortOp {
    pub(crate) fn new(
        id: NodeId,
        keys: Vec<SortKey>,
        top_n: Option<usize>,
        distinct: bool,
        child: BoxedOperator,
    ) -> Node<Self> {
        SortOp {
            keys,
            top_n,
            distinct,
            child,
            buffer: Vec::new(),
            pos: 0,
            phase: Phase::Input,
        }
        .at(id)
    }

    fn consume_input(&mut self, ctx: &ExecContext, id: NodeId) {
        // Per-row input cost: comparisons against the run being built. The
        // log factor uses the limit for Top N sorts (bounded heap).
        let top_n_depth = self.top_n.map(|n| CostModel::log2_rows(n as f64));
        // A blocking consume multi-pulls within one `next_batch()` whatever
        // the caller's limit, so its chunk size changes no close event.
        let mut scratch = RowBatch::with_capacity(CONSUME_BATCH);
        while self.child.next_batch(ctx, &mut scratch, CONSUME_BATCH) {
            ctx.count_input(id, scratch.len() as u64);
            let mut scope = ctx.batch_charge(id);
            while let Some(row) = scratch.pop_front() {
                let depth = top_n_depth
                    .unwrap_or_else(|| CostModel::log2_rows((self.buffer.len() + 1) as f64));
                scope.cpu(ctx.cost.sort_cmp_ns * depth * ctx.cost.sort_input_fraction);
                self.buffer.push(row);
            }
            scope.finish();
        }
        let keys = &self.keys;
        self.buffer.sort_by(|a, b| compare_rows(keys, a, b));
        if self.distinct {
            self.buffer
                .dedup_by(|a, b| keys.iter().all(|k| a[k.column] == b[k.column]));
        }
        if let Some(n) = self.top_n {
            self.buffer.truncate(n);
        }
        self.phase = Phase::Output;
        self.pos = 0;
        ctx.emit_phase(id, "blocking", "emit");
    }
}

/// Multi-key row comparison with per-key direction.
fn compare_rows(keys: &[SortKey], a: &Row, b: &Row) -> Ordering {
    for k in keys {
        let ord = a[k.column].cmp(&b[k.column]);
        let ord = if k.descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

impl Body for SortOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        if matches!(self.phase, Phase::Input) {
            self.consume_input(ctx, id);
        }
        let n = (self.buffer.len() - self.pos).min(limit);
        if n == 0 {
            return false;
        }
        let log_n = CostModel::log2_rows(self.buffer.len() as f64);
        let row_cpu = ctx.cost.sort_cmp_ns * log_n * (1.0 - ctx.cost.sort_input_fraction);
        let mut scope = ctx.batch_charge(id);
        for row in &self.buffer[self.pos..self.pos + n] {
            scope.cpu(row_cpu);
            out.push(row.clone());
        }
        self.pos += n;
        scope.finish_emitting(n as u64);
        true
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        // Rewind = replay the sorted buffer (a rebind without correlation
        // change does not re-sort, matching the engine's rewind semantics).
        if matches!(self.phase, Phase::Output) {
            self.pos = 0;
        } else {
            self.child.rewind(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecContext;
    use crate::ops::scan::ConstantScanOp;
    use crate::ops::testing::{drain, pull};
    use crate::ops::Operator;
    use lqs_storage::{Database, Value};

    fn run_sort(keys: Vec<SortKey>, top_n: Option<usize>, distinct: bool) -> Vec<i64> {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let rows: Vec<Vec<Value>> = [5i64, 3, 9, 3, 1, 7]
            .iter()
            .map(|&v| vec![Value::Int(v)])
            .collect();
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows));
        let mut sort = SortOp::new(NodeId(1), keys, top_n, distinct, child);
        sort.open(&ctx);
        let out = drain(&mut sort, &ctx)
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        sort.close(&ctx);
        out
    }

    #[test]
    fn ascending_sort() {
        assert_eq!(
            run_sort(vec![SortKey::asc(0)], None, false),
            vec![1, 3, 3, 5, 7, 9]
        );
    }

    #[test]
    fn descending_sort() {
        assert_eq!(
            run_sort(vec![SortKey::desc(0)], None, false),
            vec![9, 7, 5, 3, 3, 1]
        );
    }

    #[test]
    fn top_n_sort() {
        assert_eq!(
            run_sort(vec![SortKey::asc(0)], Some(3), false),
            vec![1, 3, 3]
        );
    }

    #[test]
    fn distinct_sort() {
        assert_eq!(
            run_sort(vec![SortKey::asc(0)], None, true),
            vec![1, 3, 5, 7, 9]
        );
    }

    #[test]
    fn blocking_counters_two_phase() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let rows: Vec<Vec<Value>> = (0..100).map(|v| vec![Value::Int(v)]).collect();
        let child = Box::new(ConstantScanOp::new(NodeId(0), rows));
        let mut sort = SortOp::new(NodeId(1), vec![SortKey::asc(0)], None, false, child);
        sort.open(&ctx);
        // Before the first next_batch(), nothing consumed.
        assert_eq!(ctx.counters_of(NodeId(1)).rows_input, 0);
        let first = pull(&mut sort, &ctx).unwrap();
        assert_eq!(first[0], Value::Int(0));
        // After the first next_batch(), the entire input was consumed
        // (blocking).
        let c = ctx.counters_of(NodeId(1));
        assert_eq!(c.rows_input, 100);
        assert_eq!(c.rows_output, 1);
    }
}
