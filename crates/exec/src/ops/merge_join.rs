//! Merge join over key-sorted inputs.
//!
//! Both children must deliver rows ascending in their join keys (guaranteed
//! by the planner: merge joins are placed over index scans or sorts).
//! Duplicate right-side key groups are buffered so each matching left row
//! joins the whole group.

use super::keys::{cols_cmp, cols_eq, cols_have_null};
use super::node::{Body, Node};
use super::{concat_rows, null_row, pull_one, push_one, BoxedOperator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::{JoinKind, NodeId};
use lqs_storage::Row;
use std::cmp::Ordering;

pub struct MergeJoinOp {
    kind: JoinKind,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    left_arity: usize,
    right_arity: usize,
    left: BoxedOperator,
    right: BoxedOperator,
    cur_left: Option<Row>,
    left_done: bool,
    /// Buffered right rows sharing one key — read in place from
    /// `group[0]`. Empty before the first group and once the right side is
    /// exhausted.
    group: Vec<Row>,
    group_matched: bool,
    /// Lookahead right row not yet in a group.
    right_peek: Option<Row>,
    right_done: bool,
    emit_idx: usize,
    /// Whether the current left row already matched the current group.
    started: bool,
    /// One-row batch both child pulls go through.
    scratch: RowBatch,
}

/// Count and charge one row pulled from either side.
fn charge_pulled(ctx: &ExecContext, id: NodeId) {
    let mut scope = ctx.row_charge(id);
    scope.rows_in(1);
    scope.cpu(ctx.cost.merge_row_ns);
    scope.finish();
}

impl MergeJoinOp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        kind: JoinKind,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        left_arity: usize,
        right_arity: usize,
        left: BoxedOperator,
        right: BoxedOperator,
    ) -> Node<Self> {
        MergeJoinOp {
            kind,
            left_keys,
            right_keys,
            left_arity,
            right_arity,
            left,
            right,
            cur_left: None,
            left_done: false,
            group: Vec::new(),
            group_matched: false,
            right_peek: None,
            right_done: false,
            emit_idx: 0,
            started: false,
            scratch: RowBatch::with_capacity(1),
        }
        .at(id)
    }

    fn pull_left(&mut self, ctx: &ExecContext, id: NodeId) {
        self.cur_left = pull_one(self.left.as_mut(), ctx, &mut self.scratch);
        match self.cur_left {
            Some(_) => charge_pulled(ctx, id),
            None => self.left_done = true,
        }
    }

    fn pull_right(&mut self, ctx: &ExecContext, id: NodeId) -> Option<Row> {
        if let Some(r) = self.right_peek.take() {
            return Some(r);
        }
        if self.right_done {
            return None;
        }
        let pulled = pull_one(self.right.as_mut(), ctx, &mut self.scratch);
        match pulled {
            Some(_) => charge_pulled(ctx, id),
            None => self.right_done = true,
        }
        pulled
    }

    /// Load the next right-side group (consecutive equal keys) into
    /// `self.group`. Returns false when the right side is exhausted.
    fn load_group(&mut self, ctx: &ExecContext, id: NodeId) -> bool {
        self.group.clear();
        self.group_matched = false;
        let Some(first) = self.pull_right(ctx, id) else {
            return false;
        };
        self.group.push(first);
        while let Some(next) = self.pull_right(ctx, id) {
            let rk = &self.right_keys;
            if cols_eq(&next, rk, &self.group[0], rk) {
                self.group.push(next);
            } else {
                self.right_peek = Some(next);
                break;
            }
        }
        true
    }

    /// The current group's key against the current left row's: `None` when
    /// there is no group, `Less` also when the group's key has a NULL (such
    /// a group joins nothing and is passed over like a smaller key).
    fn group_vs_left(&self) -> Option<Ordering> {
        let group = self.group.first()?;
        let left = self.cur_left.as_ref().expect("left row present");
        Some(if cols_have_null(group, &self.right_keys) {
            Ordering::Less
        } else {
            cols_cmp(group, &self.right_keys, left, &self.left_keys)
        })
    }

    /// Handle a left row with no matching right group.
    fn left_unmatched(&mut self) -> Option<Row> {
        let left = self.cur_left.take().expect("left row present");
        match self.kind {
            JoinKind::LeftOuter | JoinKind::FullOuter => {
                Some(concat_rows(&left, &null_row(self.right_arity)))
            }
            JoinKind::LeftAnti => Some(left),
            _ => None,
        }
    }

    /// Handle a right group with no matching left row (FullOuter only).
    fn group_unmatched(&mut self) -> Option<Row> {
        if self.kind == JoinKind::FullOuter
            && !self.group_matched
            && self.emit_idx < self.group.len()
        {
            let r = self.group[self.emit_idx].clone();
            self.emit_idx += 1;
            return Some(concat_rows(&null_row(self.left_arity), &r));
        }
        None
    }

    /// The merge state machine: the next joined row, or `None` when both
    /// sides are exhausted.
    fn next_row(&mut self, ctx: &ExecContext, id: NodeId) -> Option<Row> {
        loop {
            // Emit remaining cross-product rows for the current match.
            if self.started {
                if let Some(left) = &self.cur_left {
                    if self.emit_idx < self.group.len() {
                        let out = concat_rows(left, &self.group[self.emit_idx]);
                        self.emit_idx += 1;
                        return Some(out);
                    }
                }
                // Current left row finished with this group.
                self.started = false;
                self.cur_left = None;
            }
            if self.cur_left.is_none() && !self.left_done {
                self.pull_left(ctx, id);
            }
            if self.cur_left.is_none() {
                // Left exhausted: FullOuter drains remaining right rows.
                if self.kind == JoinKind::FullOuter {
                    if !self.group_matched {
                        if let Some(r) = self.group_unmatched() {
                            return Some(r);
                        }
                    }
                    if self.load_group(ctx, id) {
                        self.emit_idx = 0;
                        continue;
                    }
                }
                return None;
            }
            let left = self.cur_left.as_ref().expect("checked above");
            if cols_have_null(left, &self.left_keys) {
                if let Some(r) = self.left_unmatched() {
                    return Some(r);
                }
                continue;
            }
            // Ensure we have a group at or above the left key.
            loop {
                match self.group_vs_left() {
                    None => {
                        if !self.load_group(ctx, id) {
                            break; // right exhausted
                        }
                        self.emit_idx = 0;
                    }
                    Some(Ordering::Less) => {
                        // Advance past this group; FullOuter emits it first.
                        if self.kind == JoinKind::FullOuter && !self.group_matched {
                            if let Some(r) = self.group_unmatched() {
                                return Some(r);
                            }
                        }
                        if !self.load_group(ctx, id) {
                            break;
                        }
                        self.emit_idx = 0;
                    }
                    Some(_) => break,
                }
            }
            match self.group_vs_left() {
                Some(Ordering::Equal) => {
                    self.group_matched = true;
                    match self.kind {
                        JoinKind::LeftSemi => {
                            return self.cur_left.take();
                        }
                        JoinKind::LeftAnti => {
                            self.cur_left = None;
                        }
                        _ => {
                            self.started = true;
                            self.emit_idx = 0;
                        }
                    }
                }
                _ => {
                    // No group matches this left row (right ahead/exhausted).
                    if let Some(r) = self.left_unmatched() {
                        return Some(r);
                    }
                }
            }
        }
    }
}

impl Body for MergeJoinOp {
    fn open(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.left.open(ctx);
        self.right.open(ctx);
    }

    #[inline]
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, _: usize) -> bool {
        let row = self.next_row(ctx, id);
        push_one(ctx, id, row, out)
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.left.close(ctx);
        self.right.close(ctx);
    }

    fn rewind(&mut self, ctx: &ExecContext, _id: NodeId) {
        self.left.rewind(ctx);
        self.right.rewind(ctx);
        self.cur_left = None;
        self.left_done = false;
        self.group.clear();
        self.group_matched = false;
        self.right_peek = None;
        self.right_done = false;
        self.emit_idx = 0;
        self.started = false;
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

    fn run_join(kind: JoinKind, left: Vec<Vec<Value>>, right: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        let db = Database::new();
        let ctx = ExecContext::new(&db, 3, 0, u64::MAX, CostModel::default());
        let l = Box::new(ConstantScanOp::new(NodeId(0), left));
        let r = Box::new(ConstantScanOp::new(NodeId(1), right));
        let mut j = MergeJoinOp::new(NodeId(2), kind, vec![0], vec![0], 2, 2, l, r);
        j.open(&ctx);
        let out = drain(&mut j, &ctx).iter().map(|r| r.to_vec()).collect();
        j.close(&ctx);
        out
    }

    #[test]
    fn inner_merge_with_duplicates() {
        let out = run_join(
            JoinKind::Inner,
            rows(&[(1, 0), (2, 0), (2, 1), (4, 0)]),
            rows(&[(2, 10), (2, 11), (3, 12)]),
        );
        // Left rows (2,0) and (2,1) each join right group {(2,10),(2,11)}.
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|r| r[0] == Value::Int(2)));
    }

    #[test]
    fn left_outer_merge() {
        let out = run_join(
            JoinKind::LeftOuter,
            rows(&[(1, 0), (2, 0)]),
            rows(&[(2, 10)]),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0],
            vec![Value::Int(1), Value::Int(0), Value::Null, Value::Null]
        );
        assert_eq!(out[1][2], Value::Int(2));
    }

    #[test]
    fn semi_anti_merge() {
        let semi = run_join(
            JoinKind::LeftSemi,
            rows(&[(1, 0), (2, 0), (3, 0)]),
            rows(&[(2, 10), (2, 11)]),
        );
        assert_eq!(semi, vec![vec![Value::Int(2), Value::Int(0)]]);
        let anti = run_join(
            JoinKind::LeftAnti,
            rows(&[(1, 0), (2, 0), (3, 0)]),
            rows(&[(2, 10)]),
        );
        assert_eq!(anti.len(), 2);
        assert_eq!(anti[0][0], Value::Int(1));
        assert_eq!(anti[1][0], Value::Int(3));
    }

    #[test]
    fn full_outer_merge() {
        let out = run_join(
            JoinKind::FullOuter,
            rows(&[(1, 0), (3, 0)]),
            rows(&[(2, 10), (3, 11), (5, 12)]),
        );
        // 1 left-only, 2 right-only, 3 match, 5 right-only.
        assert_eq!(out.len(), 4);
        let left_only = out.iter().filter(|r| r[2] == Value::Null).count();
        let right_only = out.iter().filter(|r| r[0] == Value::Null).count();
        assert_eq!(left_only, 1);
        assert_eq!(right_only, 2);
    }

    #[test]
    fn null_keys_do_not_join() {
        let left = vec![
            vec![Value::Null, Value::Int(0)],
            vec![Value::Int(1), Value::Int(0)],
        ];
        let right = vec![
            vec![Value::Null, Value::Int(9)],
            vec![Value::Int(1), Value::Int(9)],
        ];
        let out = run_join(JoinKind::Inner, left, right);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(1));
    }

    #[test]
    fn empty_sides() {
        assert!(run_join(JoinKind::Inner, vec![], rows(&[(1, 0)])).is_empty());
        assert!(run_join(JoinKind::Inner, rows(&[(1, 0)]), vec![]).is_empty());
        let out = run_join(JoinKind::LeftOuter, rows(&[(1, 0)]), vec![]);
        assert_eq!(out.len(), 1);
    }
}
