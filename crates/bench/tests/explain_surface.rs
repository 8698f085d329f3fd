//! The harness surfaces the estimator's explain diagnostics, and replays
//! runs with the cost model they actually executed under.

use lqs::exec::ExecOptions;
use lqs::plan::{AggFunc, Aggregate, CostModel, Expr, JoinKind, PlanBuilder, SortKey};
use lqs::progress::EstimatorConfig;
use lqs::storage::{Column, DataType, Database, Schema, Table, TableId, Value};
use lqs_bench::report::render_explain;
use lqs_bench::run::{run_query, trace_estimator};

fn db() -> (Database, TableId, TableId) {
    let mut fact = Table::new(
        "fact",
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ]),
    );
    for i in 0..3000 {
        fact.insert(vec![Value::Int(i % 100), Value::Int(i)])
            .unwrap();
    }
    let mut dim = Table::new(
        "dim",
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("name", DataType::Int),
        ]),
    );
    for i in 0..100 {
        dim.insert(vec![Value::Int(i), Value::Int(i)]).unwrap();
    }
    let mut db = Database::new();
    let f = db.add_table_analyzed(fact);
    let d = db.add_table_analyzed(dim);
    (db, f, d)
}

fn plan(db: &Database, f: TableId, d: TableId) -> lqs::plan::PhysicalPlan {
    let mut b = PlanBuilder::new(db);
    let dim_scan = b.table_scan(d);
    let fact_scan = b.table_scan_filtered(f, Expr::col(1).lt(Expr::lit(2500i64)), true);
    let join = b.hash_join(JoinKind::Inner, dim_scan, fact_scan, vec![0], vec![0]);
    let agg = b.hash_aggregate(join, vec![0], vec![Aggregate::of_col(AggFunc::Sum, 3)]);
    let sort = b.sort(agg, vec![SortKey::desc(1)]);
    b.finish(sort)
}

#[test]
fn every_report_node_has_explanation_and_counters_aggregate() {
    let (db, f, d) = db();
    let plan = plan(&db, f, d);
    let run = run_query(&db, &plan, &ExecOptions::default());
    let trace = trace_estimator(&plan, &db, &run, EstimatorConfig::full());

    assert!(!trace.reports.is_empty());
    for rep in &trace.reports {
        for np in &rep.nodes {
            assert!(!np.explanation.path.label().is_empty());
            assert!(!np.explanation.refinement.label().is_empty());
        }
    }
    // The run has blocking operators (sort, hash agg, hash join), so full
    // config must price some nodes with a special model at some snapshot.
    let totals = trace.explain_totals();
    assert!(totals.special_model_nodes > 0, "totals: {totals:?}");

    let text = render_explain("explain", &trace);
    assert!(text.contains("refinements:"));
    assert!(text.contains("clamps:"));
    // Every operator of the final snapshot appears in the breakdown.
    for np in &trace.reports.last().unwrap().nodes {
        assert!(text.contains(np.explanation.path.label()));
    }
}

#[test]
fn replay_uses_the_runs_cost_model() {
    let (db, f, d) = db();
    let plan = plan(&db, f, d);

    // Execute under a cost model with I/O 50x more expensive than default.
    let mut opts = ExecOptions::default();
    opts.cost_model = CostModel {
        io_page_ns: CostModel::default().io_page_ns * 50.0,
        ..opts.cost_model
    };
    let run = run_query(&db, &plan, &opts);
    assert_eq!(run.cost_model.io_page_ns, opts.cost_model.io_page_ns);

    // A weighted estimator replayed over the run must match an estimator
    // explicitly constructed with the run's cost model — and differ from the
    // default-cost-model estimator (the bug this guards against).
    let cfg = EstimatorConfig::full();
    let traced = trace_estimator(&plan, &db, &run, cfg.clone());
    let explicit = lqs::progress::ProgressEstimator::with_cost_model(
        &plan,
        &db,
        cfg.clone(),
        &opts.cost_model,
    );
    let wrong = lqs::progress::ProgressEstimator::new(&plan, &db, cfg);

    let mut diverged = false;
    for (s, est) in run.snapshots.iter().zip(&traced.estimates) {
        let want = explicit.estimate(s).query_progress;
        assert!(
            (est - want).abs() < 1e-12,
            "replay diverged from run cost model: {est} vs {want}"
        );
        if (est - wrong.estimate(s).query_progress).abs() > 1e-9 {
            diverged = true;
        }
    }
    assert!(
        diverged,
        "a 50x I/O cost model should change weighted progress estimates"
    );
}
