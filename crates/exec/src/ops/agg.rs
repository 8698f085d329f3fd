//! Aggregation: Stream Aggregate (pipelined over sorted input) and Hash
//! Aggregate (fully blocking).
//!
//! The hash aggregate is the paper's running example of a blocking operator
//! whose progress is badly characterized by output rows alone (Figures
//! 10–11): it consumes (say) 10,000 rows to produce 10. Its counters are
//! therefore the ones the two-phase model of §4.5 targets — `rows_input`
//! climbs during the build while `rows_output` stays 0.

use super::keys::{cols_eq, cols_of, hash_cols, KeyTable};
use super::node::{Body, Node};
use super::sort::CONSUME_BATCH;
use super::{BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{AggState, Aggregate, NodeId};
use lqs_storage::{Row, Value};

fn make_states(aggs: &[Aggregate]) -> Vec<AggState> {
    aggs.iter().map(|a| AggState::new(a.func)).collect()
}

fn fold(aggs: &[Aggregate], states: &mut [AggState], row: &Row) {
    for (a, s) in aggs.iter().zip(states.iter_mut()) {
        s.update(&a.input.eval(row));
    }
}

/// The output row of a group: its key, then the finished aggregates.
fn finish_group(key: impl Iterator<Item = Value>, states: &[AggState]) -> Row {
    key.chain(states.iter().map(AggState::finish)).collect()
}

/// Aggregation over sorted input; emits each group as it completes, so it is
/// pipelined (not blocking) — a group boundary releases the previous group.
pub(crate) struct StreamAggregateOp {
    group_by: Vec<usize>,
    aggs: Vec<Aggregate>,
    child: BoxedOperator,
    /// The group being folded: its first row (the key is read out of it in
    /// place) and its running states.
    current: Option<(Row, Vec<AggState>)>,
    scratch: RowBatch,
    input_done: bool,
    emitted_scalar: bool,
}

impl StreamAggregateOp {
    pub(crate) fn new(
        id: NodeId,
        group_by: Vec<usize>,
        aggs: Vec<Aggregate>,
        child: BoxedOperator,
    ) -> Node<Self> {
        StreamAggregateOp {
            group_by,
            aggs,
            child,
            current: None,
            scratch: RowBatch::default(),
            input_done: false,
            emitted_scalar: false,
        }
        .at(id)
    }
}

impl Body for StreamAggregateOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        let row_cpu =
            ctx.cost.stream_agg_row_ns + self.aggs.len() as f64 * ctx.cost.compute_expr_ns;
        loop {
            if !self.scratch.is_empty() {
                let mut appended = 0u64;
                let mut consumed = 0u64;
                let mut scope = ctx.batch_charge(id);
                while (appended as usize) < limit {
                    let Some(row) = self.scratch.pop_front() else {
                        break;
                    };
                    consumed += 1;
                    scope.cpu(row_cpu);
                    let gb = &self.group_by;
                    match &mut self.current {
                        Some((first, states)) if cols_eq(first, gb, &row, gb) => {
                            fold(&self.aggs, states, &row);
                        }
                        current => {
                            let mut states = make_states(&self.aggs);
                            fold(&self.aggs, &mut states, &row);
                            if let Some((first, done)) = current.replace((row, states)) {
                                out.push(finish_group(cols_of(&first, gb).cloned(), &done));
                                appended += 1;
                            }
                            self.emitted_scalar = true;
                        }
                    }
                }
                scope.finish();
                ctx.count_input(id, consumed);
                if appended > 0 {
                    ctx.count_output(id, appended);
                    return true;
                }
                continue;
            }
            if self.input_done {
                if let Some((first, states)) = self.current.take() {
                    let key = cols_of(&first, &self.group_by).cloned();
                    out.push(finish_group(key, &states));
                    ctx.count_output(id, 1);
                    return true;
                }
                if self.group_by.is_empty() && !self.emitted_scalar {
                    self.emitted_scalar = true;
                    out.push(finish_group(std::iter::empty(), &make_states(&self.aggs)));
                    ctx.count_output(id, 1);
                    return true;
                }
                return false;
            }
            if !self.child.next_batch(ctx, &mut self.scratch, limit) {
                self.input_done = true;
            }
        }
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.child.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.rewind(ctx);
        self.current = None;
        self.scratch.clear();
        self.input_done = false;
        self.emitted_scalar = false;
    }
}

/// Blocking hash aggregation: consumes the entire input into a hash table on
/// first demand, then emits groups (sorted by key for determinism).
pub(crate) struct HashAggregateOp {
    group_by: Vec<usize>,
    aggs: Vec<Aggregate>,
    batch: bool,
    child: BoxedOperator,
    output: Option<Vec<Row>>,
    pos: usize,
}

impl HashAggregateOp {
    pub(crate) fn new(
        id: NodeId,
        group_by: Vec<usize>,
        aggs: Vec<Aggregate>,
        batch: bool,
        child: BoxedOperator,
    ) -> Node<Self> {
        HashAggregateOp {
            group_by,
            aggs,
            batch,
            child,
            output: None,
            pos: 0,
        }
        .at(id)
    }

    fn build(&mut self, ctx: &ExecContext, id: NodeId) {
        let factor = if self.batch { 0.3 } else { 1.0 };
        let row_cpu = (ctx.cost.hash_build_row_ns
            + self.aggs.len() as f64 * ctx.cost.compute_expr_ns)
            * factor;
        let gb = &self.group_by;
        // One entry per group, in first-arrival order: its key and running
        // states. The key is copied out once per *group* — holding the
        // group's first row instead would pin a whole (possibly wide, joined)
        // row per group for the length of the build.
        let mut table = KeyTable::default();
        let mut groups: Vec<(Vec<Value>, Vec<AggState>)> = Vec::new();
        let mut scratch = RowBatch::with_capacity(CONSUME_BATCH);
        while self.child.next_batch(ctx, &mut scratch, CONSUME_BATCH) {
            ctx.count_input(id, scratch.len() as u64);
            let mut scope = ctx.batch_charge(id);
            for row in scratch.iter() {
                scope.cpu(row_cpu);
                let hash = hash_cols(row, gb);
                let g = match table.find(hash, |g| groups[g].0.iter().eq(cols_of(row, gb))) {
                    Some(g) => g,
                    None => {
                        let key = cols_of(row, gb).cloned().collect();
                        groups.push((key, make_states(&self.aggs)));
                        table.add_group(hash, groups.len() - 1)
                    }
                };
                fold(&self.aggs, &mut groups[g].1, row);
            }
            scope.finish();
            scratch.clear();
        }
        // Output order is by key, not by arrival (and never by bucket).
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        self.output = Some(if gb.is_empty() && groups.is_empty() {
            vec![finish_group(std::iter::empty(), &make_states(&self.aggs))]
        } else {
            groups
                .into_iter()
                .map(|(key, states)| finish_group(key.into_iter(), &states))
                .collect()
        });
        self.pos = 0;
        ctx.emit_phase(id, "blocking", "emit");
    }
}

impl Body for HashAggregateOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.child.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool {
        if self.output.is_none() {
            self.build(ctx, id);
        }
        let rows = self.output.as_ref().expect("built above");
        let n = (rows.len() - self.pos).min(limit);
        if n == 0 {
            return false;
        }
        let factor = if self.batch { 0.3 } else { 1.0 };
        let row_cpu = ctx.cost.hash_output_row_ns * factor;
        let mut scope = ctx.batch_charge(id);
        for row in &rows[self.pos..self.pos + n] {
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
        // A rebind re-executes the aggregation (the input may be correlated).
        self.child.rewind(ctx);
        self.output = None;
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::scan::ConstantScanOp;
    use crate::ops::testing::drain;
    use crate::ops::Operator;
    use lqs_plan::{AggFunc, CostModel};
    use lqs_storage::Database;

    fn input_rows() -> Vec<Vec<Value>> {
        // (group, value): groups 0,1,2 with 3/2/1 members.
        vec![
            vec![Value::Int(0), Value::Int(10)],
            vec![Value::Int(0), Value::Int(20)],
            vec![Value::Int(0), Value::Int(30)],
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Int(1), Value::Int(7)],
            vec![Value::Int(2), Value::Int(100)],
        ]
    }

    fn run(op: &mut dyn Operator, ctx: &ExecContext) -> Vec<Vec<Value>> {
        op.open(ctx);
        let out = drain(op, ctx).iter().map(|r| r.to_vec()).collect();
        op.close(ctx);
        out
    }

    #[test]
    fn hash_aggregate_groups_and_sums() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), input_rows()));
        let mut agg = HashAggregateOp::new(
            NodeId(1),
            vec![0],
            vec![Aggregate::of_col(AggFunc::Sum, 1), Aggregate::count_star()],
            false,
            child,
        );
        let out = run(&mut agg, &ctx);
        assert_eq!(
            out,
            vec![
                vec![Value::Int(0), Value::Int(60), Value::Int(3)],
                vec![Value::Int(1), Value::Int(12), Value::Int(2)],
                vec![Value::Int(2), Value::Int(100), Value::Int(1)],
            ]
        );
        // Blocking shape: input fully consumed, 3 outputs.
        let c = ctx.counters_of(NodeId(1));
        assert_eq!(c.rows_input, 6);
        assert_eq!(c.rows_output, 3);
    }

    #[test]
    fn stream_aggregate_matches_hash_on_sorted_input() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), input_rows()));
        let mut agg = StreamAggregateOp::new(
            NodeId(1),
            vec![0],
            vec![Aggregate::of_col(AggFunc::Min, 1)],
            child,
        );
        let out = run(&mut agg, &ctx);
        assert_eq!(
            out,
            vec![
                vec![Value::Int(0), Value::Int(10)],
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(2), Value::Int(100)],
            ]
        );
    }

    #[test]
    fn scalar_aggregate_over_empty_input() {
        let db = Database::new();
        for hash in [false, true] {
            let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
            let child = Box::new(ConstantScanOp::new(NodeId(0), vec![]));
            let out = if hash {
                let mut agg = HashAggregateOp::new(
                    NodeId(1),
                    vec![],
                    vec![Aggregate::count_star()],
                    false,
                    child,
                );
                run(&mut agg, &ctx)
            } else {
                let mut agg =
                    StreamAggregateOp::new(NodeId(1), vec![], vec![Aggregate::count_star()], child);
                run(&mut agg, &ctx)
            };
            assert_eq!(out, vec![vec![Value::Int(0)]], "hash={hash}");
        }
    }

    #[test]
    fn grouped_aggregate_over_empty_input_emits_nothing() {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 2, 0, u64::MAX, CostModel::default());
        let child = Box::new(ConstantScanOp::new(NodeId(0), vec![]));
        let mut agg = HashAggregateOp::new(
            NodeId(1),
            vec![0],
            vec![Aggregate::count_star()],
            false,
            child,
        );
        assert!(run(&mut agg, &ctx).is_empty());
    }
}
