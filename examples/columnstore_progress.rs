//! Batch-mode progress (§4.7): for columnstore pipelines the GetNext model
//! breaks down (operators process whole segments at a time), so LQS bases
//! progress on the fraction of column segments processed, with totals drawn
//! from the `sys.column_store_segments` analog.
//!
//! Run with: `cargo run --release --example columnstore_progress`

use lqs::prelude::*;
use lqs::workloads::{tpch, PhysicalDesign, WorkloadScale};

fn main() {
    let scale = WorkloadScale {
        data_scale: 1.0,
        query_limit: usize::MAX,
        seed: 42,
    };
    let t = tpch::build_db(scale, PhysicalDesign::Columnstore);

    // The simulated sys.column_store_segments DMV.
    let segs = t.db.column_store_segments();
    println!("sys.column_store_segments ({} rows):", segs.len());
    let mut per_table = std::collections::BTreeMap::new();
    for r in &segs {
        *per_table
            .entry(t.db.table(r.table).name().to_string())
            .or_insert(0usize) += 1;
    }
    for (table, n) in &per_table {
        println!("  {table:<12} {n:>4} segments");
    }

    // TPC-H Q1 over the columnstore design: a batch-mode scan + aggregate.
    let queries = tpch::queries(&t);
    let q = queries.iter().find(|q| q.name == "tpch-q01").expect("q01");
    println!("\nplan:\n{}", q.plan.display_tree());

    let run = execute(&t.db, &q.plan, &ExecOptions::default());
    let estimator = ProgressEstimator::with_cost_model(
        &q.plan,
        &t.db,
        EstimatorConfig::full(),
        &run.cost_model,
    );
    // The scan is the leaf of the plan.
    let scan = q
        .plan
        .nodes()
        .iter()
        .find(|n| matches!(n.op, PhysicalOp::ColumnstoreScan { .. }))
        .expect("columnstore scan")
        .id;

    println!(
        "{:>6} {:>22} {:>16} {:>14}",
        "time", "segments processed", "scan progress", "query progress"
    );
    for i in (0..run.snapshots.len()).step_by((run.snapshots.len() / 12).max(1)) {
        let s = &run.snapshots[i];
        let report = estimator.estimate(s);
        println!(
            "{:>5.0}% {:>22} {:>15.1}% {:>13.1}%",
            run.time_fraction(s) * 100.0,
            s.node(scan.0).segments_processed,
            report.nodes[scan.0].progress * 100.0,
            report.query_progress * 100.0
        );
    }
    println!(
        "\nnote: scan progress advances in segment-sized steps — the batch-mode\n\
         granularity the paper's §4.7 technique works at."
    );
}
