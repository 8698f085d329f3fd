//! Property test: the three join algorithms (hash, merge, nested loops)
//! must produce identical result multisets for every join kind they all
//! support, on randomized inputs — including NULL keys, duplicates, and
//! empty sides. This pins down the engine's join semantics, which the
//! progress experiments silently rely on (a wrong join would corrupt every
//! cardinality ground truth).

use lqs_exec::{execute, ExecOptions};
use lqs_plan::{Expr, JoinKind, PlanBuilder, SortKey};
use lqs_storage::{Column, DataType, Database, Schema, Table, Value};
use proptest::prelude::*;

/// Input rows: (key or NULL, payload).
type Side = Vec<(Option<i64>, i64)>;

fn side_strategy() -> impl Strategy<Value = Side> {
    prop::collection::vec((prop::option::weighted(0.9, -5i64..15), 0i64..1000), 0..40)
}

fn make_db(left: &Side, right: &Side) -> (Database, lqs_storage::TableId, lqs_storage::TableId) {
    let schema = || {
        Schema::new(vec![
            Column::nullable("k", DataType::Int),
            Column::new("p", DataType::Int),
        ])
    };
    let mut lt = Table::new("l", schema());
    for &(k, p) in left {
        lt.insert(vec![k.map_or(Value::Null, Value::Int), Value::Int(p)])
            .unwrap();
    }
    let mut rt = Table::new("r", schema());
    for &(k, p) in right {
        rt.insert(vec![k.map_or(Value::Null, Value::Int), Value::Int(p)])
            .unwrap();
    }
    let mut db = Database::new();
    let l = db.add_table_analyzed(lt);
    let r = db.add_table_analyzed(rt);
    (db, l, r)
}

/// Execute a plan and collect its output rows (sorted for comparison).
fn collect(db: &Database, plan: &lqs_plan::PhysicalPlan) -> Vec<Vec<String>> {
    // Re-execute with a collector: easiest is to wrap in a sort and read the
    // engine's output through a scalar trace — instead we re-run the
    // operator tree directly.
    let ctx =
        lqs_exec::ExecContext::new(db, plan.len(), 8, u64::MAX, lqs_plan::CostModel::default());
    let mut root = lqs_exec::build_operator(plan, db, plan.root());
    root.open(&ctx);
    let mut batch = lqs_exec::RowBatch::default();
    while root.next_batch(&ctx, &mut batch, 64) {}
    root.close(&ctx);
    let mut out: Vec<Vec<String>> = batch
        .iter()
        .map(|row| row.iter().map(|v| v.to_string()).collect())
        .collect();
    out.sort();
    out
}

fn hash_plan(
    db: &Database,
    l: lqs_storage::TableId,
    r: lqs_storage::TableId,
    kind: JoinKind,
) -> lqs_plan::PhysicalPlan {
    let mut b = PlanBuilder::new(db);
    // probe = left, build = right (kind applies to probe side).
    let rs = b.table_scan(r);
    let ls = b.table_scan(l);
    let j = b.hash_join(kind, rs, ls, vec![0], vec![0]);
    b.finish(j)
}

fn merge_plan(
    db: &Database,
    l: lqs_storage::TableId,
    r: lqs_storage::TableId,
    kind: JoinKind,
) -> lqs_plan::PhysicalPlan {
    let mut b = PlanBuilder::new(db);
    let ls = b.table_scan(l);
    let lsort = b.sort(ls, vec![SortKey::asc(0)]);
    let rs = b.table_scan(r);
    let rsort = b.sort(rs, vec![SortKey::asc(0)]);
    let j = b.merge_join(kind, lsort, rsort, vec![0], vec![0]);
    b.finish(j)
}

fn nl_plan(
    db: &Database,
    l: lqs_storage::TableId,
    r: lqs_storage::TableId,
    kind: JoinKind,
    buffer: usize,
) -> lqs_plan::PhysicalPlan {
    let mut b = PlanBuilder::new(db);
    let ls = b.table_scan(l);
    let rs = b.table_scan(r);
    let arity = 2;
    let pred = Expr::col(0).eq(Expr::col(arity));
    let j = b.nested_loops(kind, ls, rs, Some(pred), buffer);
    b.finish(j)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn join_algorithms_agree(left in side_strategy(), right in side_strategy()) {
        let (db, l, r) = make_db(&left, &right);
        for kind in [JoinKind::Inner, JoinKind::LeftOuter, JoinKind::LeftSemi, JoinKind::LeftAnti] {
            let h = collect(&db, &hash_plan(&db, l, r, kind));
            let m = collect(&db, &merge_plan(&db, l, r, kind));
            prop_assert_eq!(&h, &m, "hash vs merge disagree for {:?}", kind);
            for buffer in [1usize, 7, 4096] {
                let n = collect(&db, &nl_plan(&db, l, r, kind, buffer));
                prop_assert_eq!(&h, &n, "hash vs NL(buffer={}) disagree for {:?}", buffer, kind);
            }
        }
    }

    #[test]
    fn full_outer_hash_equals_merge(left in side_strategy(), right in side_strategy()) {
        let (db, l, r) = make_db(&left, &right);
        let h = collect(&db, &hash_plan(&db, l, r, JoinKind::FullOuter));
        let m = collect(&db, &merge_plan(&db, l, r, JoinKind::FullOuter));
        prop_assert_eq!(h, m);
    }

    #[test]
    fn join_row_counts_match_ground_truth(left in side_strategy(), right in side_strategy()) {
        // Independent oracle: count matches in plain Rust.
        let (db, l, r) = make_db(&left, &right);
        let expected: usize = left
            .iter()
            .map(|(lk, _)| match lk {
                None => 0,
                Some(k) => right.iter().filter(|(rk, _)| *rk == Some(*k)).count(),
            })
            .sum();
        let plan = hash_plan(&db, l, r, JoinKind::Inner);
        let run = execute(&db, &plan, &ExecOptions::default());
        prop_assert_eq!(run.rows_returned as usize, expected);
    }
}
