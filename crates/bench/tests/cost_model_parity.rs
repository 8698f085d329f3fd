//! Regression tests for the estimator/run cost-model mismatch (the PR 1
//! bug class, re-found at `experiment.rs`'s per-operator path): every
//! harness estimator paired with an executed run must be built from the
//! *run's* recorded cost model, not `CostModel::default()`.

use lqs::plan::{CostModel, Expr, PlanBuilder, SortKey};
use lqs::progress::{EstimatorConfig, ProgressEstimator};
use lqs::storage::{Column, DataType, Database, Schema, Table, Value};
use lqs::workloads::{NamedQuery, Workload};
use lqs_bench::experiment::{per_operator_errors, workload_errors, ConfigSpec, Metric};
use lqs_bench::run::{estimator_for_run, run_query};

/// An I/O-heavy cost model far from the default (io_page_ns 40_000).
fn weird_cost_model() -> CostModel {
    CostModel {
        io_page_ns: 2_000_000.0,
        ..CostModel::default()
    }
}

fn tiny_workload() -> Workload {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..4000i64 {
        t.insert(vec![Value::Int(i), Value::Int(i % 37)]).unwrap();
    }
    let mut db = Database::new();
    let id = db.add_table_analyzed(t);
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan_filtered(id, Expr::col(1).lt(Expr::lit(20i64)), true);
    let sort = b.sort(scan, vec![SortKey::desc(0)]);
    let plan = b.finish(sort);
    Workload {
        name: "cost-model-parity",
        db,
        queries: vec![NamedQuery {
            name: "q1".to_string(),
            plan,
        }],
    }
}

/// The estimator the harness pairs with a run must carry the run's cost
/// model. Fails on the pre-fix code path (`ProgressEstimator::new`), whose
/// statics bake in default-model weights.
#[test]
fn estimator_for_run_uses_the_runs_cost_model() {
    let w = tiny_workload();
    let q = &w.queries[0];
    let opts = lqs::exec::ExecOptions {
        cost_model: weird_cost_model(),
        ..Default::default()
    };
    let run = run_query(&w.db, &q.plan, &opts);
    assert_eq!(run.cost_model.io_page_ns, weird_cost_model().io_page_ns);

    let harness_est = estimator_for_run(&q.plan, &w.db, &run, EstimatorConfig::full());
    let matched = ProgressEstimator::with_cost_model(
        &q.plan,
        &w.db,
        EstimatorConfig::full(),
        &run.cost_model,
    );
    let defaulted = ProgressEstimator::new(&q.plan, &w.db, EstimatorConfig::full());

    let weights = |e: &ProgressEstimator| -> Vec<f64> {
        e.statics().nodes.iter().map(|n| n.weight).collect()
    };
    assert_eq!(weights(&harness_est), weights(&matched));
    // Sanity: under an I/O-heavy model the weights genuinely differ, so the
    // equality above is not vacuous.
    assert_ne!(weights(&harness_est), weights(&defaulted));
}

/// End-to-end: the experiment drivers run cleanly under a non-default cost
/// model and produce finite, in-range errors.
#[test]
fn experiment_spec_under_non_default_cost_model() {
    let w = tiny_workload();
    let configs = [
        ConfigSpec {
            label: "TGN",
            config: EstimatorConfig::tgn(),
        },
        ConfigSpec {
            label: "LQS",
            config: EstimatorConfig::full(),
        },
    ];
    let opts = lqs::exec::ExecOptions {
        cost_model: weird_cost_model(),
        ..Default::default()
    };

    let errs = workload_errors(&w, &configs, Metric::Time, &opts);
    assert_eq!(errs.queries, 1);
    for (label, e) in &errs.errors {
        assert!(e.is_finite() && (0.0..=1.0).contains(e), "{label}: {e}");
    }

    let per_op = per_operator_errors(&w, &configs, Metric::Count, &opts);
    assert_eq!(per_op.by_config.len(), configs.len());
    for (label, map) in &per_op.by_config {
        assert!(!map.is_empty(), "{label} produced no per-operator errors");
        for (op, e) in map {
            assert!(
                e.is_finite() && (0.0..=1.0).contains(e),
                "{label}/{op}: {e}"
            );
        }
    }
}
