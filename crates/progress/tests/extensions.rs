//! Tests for the §7 future-work extensions implemented in this
//! reproduction: refined-cardinality propagation across pipeline boundaries
//! and per-operator weight feedback.

use lqs_exec::{execute, ExecOptions};
use lqs_plan::{AggFunc, Aggregate, Expr, JoinKind, PlanBuilder, SortKey};
use lqs_progress::{EstimatorConfig, ProgressEstimator};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};

/// Correlated data so the optimizer badly underestimates the filter, and a
/// downstream (second-pipeline) node that depends on that estimate.
fn build() -> (Database, TableId) {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..30_000i64 {
        let v = i % 8;
        t.insert(vec![Value::Int(i), Value::Int(v), Value::Int(v)])
            .unwrap();
    }
    let mut db = Database::new();
    let id = db.add_table_analyzed(t);
    (db, id)
}

#[test]
fn propagation_improves_downstream_pipeline_estimates() {
    let (db, t) = build();
    // Pipeline 1: badly underestimated filter feeding a sort.
    // Pipeline 2: sort output feeding a grouped aggregate.
    let mut b = PlanBuilder::new(&db);
    let pred = Expr::col(1)
        .eq(Expr::lit(3i64))
        .and(Expr::col(2).eq(Expr::lit(3i64)));
    let scan = b.table_scan_filtered(t, pred, true);
    let sort = b.sort(scan, vec![SortKey::asc(0)]);
    let agg = b.hash_aggregate(sort, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
    let plan = b.finish(agg);
    let run = execute(&db, &plan, &ExecOptions::default());

    // Bounds off in both, to isolate the propagation effect.
    let unbounded = |config| {
        let config = EstimatorConfig {
            bound_cardinality: false,
            ..config
        };
        ProgressEstimator::with_cost_model(&plan, &db, config, &run.cost_model)
    };
    let base = unbounded(EstimatorConfig::full());
    let ext = unbounded(EstimatorConfig::extended());

    // Mid-way through pipeline 1: both see the same upstream refinement, and
    // the extended config pushes it through to the sort's denominator.
    let mid = &run.snapshots[run.snapshots.len() / 3];
    let base_sort_n = base.estimate(mid).nodes[sort.0].refined_n;
    let ext_sort_n = ext.estimate(mid).nodes[sort.0].refined_n;
    let true_sort_n = run.true_n(sort.0);
    let base_err = (base_sort_n - true_sort_n).abs();
    let ext_err = (ext_sort_n - true_sort_n).abs();
    assert!(
        ext_err <= base_err + 1.0,
        "propagation made the sort estimate worse: base {base_sort_n}, ext {ext_sort_n}, true {true_sort_n}"
    );
    // And it must be a real improvement at some snapshot during pipeline 1.
    let improved = run.snapshots.iter().any(|s| {
        let b_n = base.estimate(s).nodes[sort.0].refined_n;
        let e_n = ext.estimate(s).nodes[sort.0].refined_n;
        (e_n - true_sort_n).abs() + 1.0 < (b_n - true_sort_n).abs()
    });
    assert!(
        improved,
        "propagation never improved the downstream estimate"
    );
}

#[test]
fn weight_feedback_rescales_query_progress() {
    let (db, t) = build();
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan(t);
    let dim = b.table_scan_filtered(t, Expr::col(1).eq(Expr::lit(1i64)), true);
    let join = b.hash_join(JoinKind::Inner, dim, scan, vec![0], vec![0]);
    let agg = b.hash_aggregate(join, vec![1], vec![Aggregate::count_star()]);
    let plan = b.finish(agg);
    let run = execute(&db, &plan, &ExecOptions::default());

    let plain =
        ProgressEstimator::with_cost_model(&plan, &db, EstimatorConfig::full(), &run.cost_model);
    // Pretend calibration says scans are 10x more expensive per tuple than
    // the optimizer believes: scan progress should dominate more.
    let mut feedback = std::collections::BTreeMap::new();
    feedback.insert("Table Scan", 10.0);
    let fed = ProgressEstimator::with_cost_model(
        &plan,
        &db,
        EstimatorConfig::full().with_weight_feedback(feedback),
        &run.cost_model,
    );
    let mid = &run.snapshots[run.snapshots.len() / 2];
    let p_plain = plain.estimate(mid).query_progress;
    let p_fed = fed.estimate(mid).query_progress;
    assert!(
        (p_plain - p_fed).abs() > 1e-6,
        "feedback had no effect: {p_plain} vs {p_fed}"
    );
    assert!((0.0..=1.0).contains(&p_fed));
}

#[test]
fn extended_config_keeps_all_invariants() {
    let (db, t) = build();
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(4i64)), true);
    let agg = b.hash_aggregate(scan, vec![2], vec![Aggregate::count_star()]);
    let sort = b.sort(agg, vec![SortKey::desc(1)]);
    let plan = b.finish(sort);
    let run = execute(&db, &plan, &ExecOptions::default());
    let est = ProgressEstimator::with_cost_model(
        &plan,
        &db,
        EstimatorConfig::extended(),
        &run.cost_model,
    );
    for s in &run.snapshots {
        let r = est.estimate(s);
        assert!((0.0..=1.0).contains(&r.query_progress));
        for np in &r.nodes {
            assert!((0.0..=1.0).contains(&np.progress));
            assert!(
                np.refined_n >= np.bounds.lb - 1e-6 && np.refined_n <= np.bounds.ub + 1e-6,
                "refined N outside bounds under extended config"
            );
        }
    }
}
