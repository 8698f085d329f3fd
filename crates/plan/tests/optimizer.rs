//! Tests for the mini-optimizer: cardinality estimation accuracy on
//! well-behaved data, its *documented* failure modes on skew/correlation
//! (the error regimes the paper's techniques correct), and cost-model
//! consistency.

use lqs_plan::{
    cardinality, AggFunc, Aggregate, CmpOp, Expr, JoinKind, PlanBuilder, SeekKey, SeekRange,
    SortKey,
};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};

/// Uniform table: estimation should be accurate.
fn uniform_db(rows: i64) -> (Database, TableId) {
    let mut t = Table::new(
        "u",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int), // 100 distinct, uniform
            Column::new("val", DataType::Int), // 0..1000 uniform
        ]),
    );
    for i in 0..rows {
        t.insert(vec![
            Value::Int(i),
            Value::Int(i % 100),
            Value::Int((i * 37) % 1000),
        ])
        .unwrap();
    }
    let mut db = Database::new();
    let id = db.add_table_analyzed(t);
    (db, id)
}

/// Correlated table: two columns always equal — independence breaks.
fn correlated_db(rows: i64) -> (Database, TableId) {
    let mut t = Table::new(
        "c",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..rows {
        let v = i % 10;
        t.insert(vec![Value::Int(i), Value::Int(v), Value::Int(v)])
            .unwrap();
    }
    let mut db = Database::new();
    let id = db.add_table_analyzed(t);
    (db, id)
}

fn est_rows(db: &Database, t: TableId, pred: Expr) -> f64 {
    let mut b = PlanBuilder::new(db);
    let scan = b.table_scan_filtered(t, pred, true);
    let plan = b.finish(scan);
    plan.node(scan).est_total_rows()
}

#[test]
fn equality_selectivity_on_uniform_data() {
    let (db, t) = uniform_db(10_000);
    let est = est_rows(&db, t, Expr::col(1).eq(Expr::lit(42i64)));
    // 10000 / 100 distinct = 100 per value.
    assert!((est - 100.0).abs() < 40.0, "estimate {est}");
}

#[test]
fn range_selectivity_on_uniform_data() {
    let (db, t) = uniform_db(10_000);
    let est = est_rows(&db, t, Expr::col(2).lt(Expr::lit(250i64)));
    assert!((est - 2500.0).abs() < 400.0, "estimate {est}");
}

#[test]
fn conjunction_underestimates_on_correlated_data() {
    // The documented failure mode: independence multiplies two 10%
    // selectivities into 1% when the true conjunction selectivity is 10%.
    let (db, t) = correlated_db(10_000);
    let pred = Expr::col(1)
        .eq(Expr::lit(3i64))
        .and(Expr::col(2).eq(Expr::lit(3i64)));
    let est = est_rows(&db, t, pred);
    let truth = 1000.0;
    assert!(
        est < truth / 3.0,
        "expected a strong underestimate, got {est} vs true {truth}"
    );
}

#[test]
fn negation_and_disjunction() {
    let (db, t) = uniform_db(10_000);
    let not_est = est_rows(
        &db,
        t,
        Expr::Not(Box::new(Expr::col(1).eq(Expr::lit(5i64)))),
    );
    assert!((not_est - 9900.0).abs() < 200.0, "NOT estimate {not_est}");
    let or_est = est_rows(
        &db,
        t,
        Expr::col(1)
            .eq(Expr::lit(1i64))
            .or(Expr::col(1).eq(Expr::lit(2i64))),
    );
    assert!((or_est - 200.0).abs() < 80.0, "OR estimate {or_est}");
}

#[test]
fn join_estimate_fk_pk_accuracy() {
    // FK→PK join over uniform keys: output ≈ fact rows.
    let (mut db, fact) = uniform_db(10_000);
    let mut dim = Table::new(
        "dim",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("x", DataType::Int),
        ]),
    );
    for i in 0..100i64 {
        dim.insert(vec![Value::Int(i), Value::Int(i)]).unwrap();
    }
    let dim = db.add_table_analyzed(dim);
    let mut b = PlanBuilder::new(&db);
    let d = b.table_scan(dim);
    let f = b.table_scan(fact);
    let j = b.hash_join(JoinKind::Inner, d, f, vec![0], vec![1]);
    let plan = b.finish(j);
    let est = plan.node(j).est_total_rows();
    assert!(
        (est - 10_000.0).abs() < 2_000.0,
        "FK join estimate {est}, expected ~10000"
    );
}

#[test]
fn aggregate_group_estimates() {
    let (db, t) = uniform_db(10_000);
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan(t);
    let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 2)]);
    let plan = b.finish(agg);
    let est = plan.node(agg).est_total_rows();
    assert!((est - 100.0).abs() < 10.0, "group estimate {est}");
}

#[test]
fn scalar_aggregate_estimates_one() {
    let (db, t) = uniform_db(1000);
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan(t);
    let agg = b.stream_aggregate(scan, vec![], vec![Aggregate::count_star()]);
    let plan = b.finish(agg);
    assert_eq!(plan.node(agg).est_total_rows(), 1.0);
}

#[test]
fn nested_loops_inner_executions() {
    let (mut db, t) = uniform_db(5000);
    let ix = db.create_btree_index("ix", t, vec![0]);
    let mut b = PlanBuilder::new(&db);
    let outer = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(10i64)), true);
    let seek = b.index_seek(ix, SeekRange::eq(vec![SeekKey::OuterRef(0)]));
    let nl = b.nested_loops(JoinKind::Inner, outer, seek, None, 1);
    let plan = b.finish(nl);
    // The inner seek's executions equal the outer estimate.
    let outer_est = plan.node(outer).est_total_rows();
    assert!((plan.node(seek).est_executions - outer_est).abs() < 1.0);
    // Unique-PK seek: ~1 row per execution.
    assert!(plan.node(seek).est_rows_per_exec <= 2.0);
}

#[test]
fn top_n_caps_estimates() {
    let (db, t) = uniform_db(5000);
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan(t);
    let top = b.top_n_sort(scan, 25, vec![SortKey::desc(2)]);
    let plan = b.finish(top);
    assert_eq!(plan.node(top).est_total_rows(), 25.0);
}

#[test]
fn cost_estimates_track_execution_within_factor() {
    // The optimizer's duration estimate should be within ~3x of actual
    // virtual duration for a simple, well-estimated plan — the property the
    // §4.6 weights rely on.
    let (db, t) = uniform_db(20_000);
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan_filtered(t, Expr::col(2).lt(Expr::lit(500i64)), true);
    let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 2)]);
    let sort = b.sort(agg, vec![SortKey::asc(0)]);
    let plan = b.finish(sort);
    let cost = lqs_plan::CostModel::default();
    let est_ns = lqs_exec::estimated_duration_ns(&plan, &cost);
    let run = lqs_exec::execute(&db, &plan, &lqs_exec::ExecOptions::default());
    let ratio = run.duration_ns as f64 / est_ns;
    assert!(
        (0.33..3.0).contains(&ratio),
        "actual/estimated duration ratio {ratio}"
    );
}

#[test]
fn selectivity_helper_clamps_to_unit_range() {
    let (db, t) = uniform_db(100);
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan(t);
    let plan = b.finish(scan);
    let prov = &plan.node(scan).provenance;
    for op in [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ] {
        for v in [-100i64, 0, 50, 99, 10_000] {
            let sel = cardinality::selectivity(&Expr::col(0).cmp(op, Expr::lit(v)), prov, &db);
            assert!((0.0..=1.0).contains(&sel), "{op:?} {v}: sel {sel}");
        }
    }
}
