//! Quickstart: build a database, author a plan, execute it on the virtual
//! clock, and replay its DMV snapshots through the LQS progress estimator.
//!
//! Run with: `cargo run --release --example quickstart`

use lqs::prelude::*;

fn main() {
    // 1. A small orders table.
    let mut table = Table::new(
        "orders",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("customer", DataType::Int),
            Column::new("amount", DataType::Int),
        ]),
    );
    for i in 0..50_000i64 {
        table
            .insert(vec![
                Value::Int(i),
                Value::Int((i * i) % 1000), // skewed customer ids
                Value::Int(i % 500),
            ])
            .unwrap();
    }
    let mut db = Database::new();
    let orders = db.add_table_analyzed(table);

    // 2. A plan: filtered scan → hash aggregate → sort. (Like the real LQS
    //    client, the estimator works from compiled plans, not SQL.)
    let mut b = PlanBuilder::new(&db);
    let scan = b.table_scan_filtered(orders, Expr::col(2).lt(Expr::lit(400i64)), true);
    let agg = b.hash_aggregate(
        scan,
        vec![1],
        vec![Aggregate::of_col(AggFunc::Sum, 2), Aggregate::count_star()],
    );
    let sort = b.sort(agg, vec![SortKey::desc(1)]);
    let plan = b.finish(sort);
    println!("plan:\n{}", plan.display_tree());

    // 3. Execute. The engine charges deterministic virtual time and records
    //    a DMV snapshot trace (the analog of polling
    //    sys.dm_exec_query_profiles every 500 ms).
    let run = execute(&db, &plan, &ExecOptions::default());
    println!(
        "executed: {} rows returned, {:.2} virtual ms, {} DMV snapshots\n",
        run.rows_returned,
        run.duration_ns as f64 / 1e6,
        run.snapshots.len()
    );

    // 4. Replay snapshots through the estimator, as the SSMS client would.
    let estimator =
        ProgressEstimator::with_cost_model(&plan, &db, EstimatorConfig::full(), &run.cost_model);
    println!("{:>8} {:>10} {:>10}", "time", "estimate", "true");
    for i in (0..run.snapshots.len()).step_by((run.snapshots.len() / 10).max(1)) {
        let s = &run.snapshots[i];
        let report = estimator.estimate(s);
        println!(
            "{:>7.0}% {:>9.1}% {:>9.1}%",
            run.time_fraction(s) * 100.0,
            report.query_progress * 100.0,
            run.time_fraction(s) * 100.0
        );
    }

    // 5. Per-operator progress at the midpoint (Equation 1 of the paper).
    let mid = &run.snapshots[run.snapshots.len() / 2];
    let report = estimator.estimate(mid);
    println!("\nper-operator progress at t=50%:");
    for np in &report.nodes {
        println!(
            "  {:<28} {:>6.1}%   (k={:.0}, N-est={:.0})",
            np.name,
            np.progress * 100.0,
            np.k,
            np.refined_n
        );
    }
}
