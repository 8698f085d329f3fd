//! The paper's motivating DBA scenario (§1): a nested-loops join runs for a
//! long time while its progress estimate stays low; comparing the rows seen
//! so far on the outer side with the optimizer's estimate reveals a
//! cardinality-estimation problem live, mid-query.
//!
//! We engineer exactly that situation: a filter whose predicate is highly
//! correlated (two attributes always equal), which the optimizer's
//! independence assumption underestimates ~100x, feeding the outer side of
//! an index nested-loops join.
//!
//! Run with: `cargo run --release --example troubleshoot_cardinality`

use lqs::prelude::*;

fn main() {
    // orders(id, status_a, status_b, customer): status_a == status_b always,
    // breaking the optimizer's independence assumption.
    let mut orders = Table::new(
        "orders",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("status_a", DataType::Int),
            Column::new("status_b", DataType::Int),
            Column::new("customer", DataType::Int),
        ]),
    );
    for i in 0..40_000i64 {
        let s = i % 10;
        orders
            .insert(vec![
                Value::Int(i),
                Value::Int(s),
                Value::Int(s),
                Value::Int(i % 2000),
            ])
            .unwrap();
    }
    let mut customers = Table::new(
        "customers",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("segment", DataType::Int),
        ]),
    );
    for i in 0..2000i64 {
        customers
            .insert(vec![Value::Int(i), Value::Int(i % 7)])
            .unwrap();
    }
    let mut db = Database::new();
    let orders_id = db.add_table_analyzed(orders);
    let customers_id = db.add_table_analyzed(customers);
    let cust_pk = db.create_btree_index("pk_customers", customers_id, vec![0]);

    // Correlated conjunction: the optimizer multiplies the two ~10%
    // selectivities, estimating ~1% when the true selectivity is 10%.
    let mut b = PlanBuilder::new(&db);
    let pred = Expr::col(1)
        .eq(Expr::lit(3i64))
        .and(Expr::col(2).eq(Expr::lit(3i64)));
    let scan = b.table_scan_filtered(orders_id, pred, true);
    let seek = b.index_seek(cust_pk, SeekRange::eq(vec![SeekKey::OuterRef(3)]));
    let nl = b.nested_loops(JoinKind::Inner, scan, seek, None, 128);
    let agg = b.hash_aggregate(nl, vec![5], vec![Aggregate::count_star()]);
    let plan = b.finish(agg);

    println!(
        "plan (note the optimizer's estimate at the scan):\n{}",
        plan.display_tree()
    );

    let run = execute(&db, &plan, &ExecOptions::default());
    let naive =
        ProgressEstimator::with_cost_model(&plan, &db, EstimatorConfig::tgn(), &run.cost_model);
    let lqs =
        ProgressEstimator::with_cost_model(&plan, &db, EstimatorConfig::full(), &run.cost_model);

    let scan_est = plan.node(scan).est_total_rows();
    println!("optimizer estimate for the filtered scan: {scan_est:.0} rows");
    println!(
        "true cardinality                        : {:.0} rows\n",
        run.true_n(scan.0)
    );

    println!(
        "{:>6} {:>14} {:>16} {:>16} {:>18}",
        "time", "scan rows", "naive progress", "LQS progress", "LQS refined-N(scan)"
    );
    let mut alerted = false;
    for i in (0..run.snapshots.len()).step_by((run.snapshots.len() / 12).max(1)) {
        let s = &run.snapshots[i];
        let rn = naive.estimate(s);
        let rl = lqs.estimate(s);
        let k_scan = s.node(scan.0).rows_output;
        println!(
            "{:>5.0}% {:>14} {:>15.1}% {:>15.1}% {:>18.0}",
            run.time_fraction(s) * 100.0,
            k_scan,
            rn.query_progress * 100.0,
            rl.query_progress * 100.0,
            rl.nodes[scan.0].refined_n,
        );
        // The DBA moment: rows observed on the outer side already exceed the
        // optimizer's *total* estimate while the join is far from done.
        if !alerted && (k_scan as f64) > scan_est && rl.query_progress < 0.8 {
            alerted = true;
            println!(
                "        ^^^ rows seen ({k_scan}) already exceed the optimizer estimate ({scan_est:.0})"
            );
            println!("            -> cardinality estimation problem detected mid-query (paper §1)");
        }
    }
    assert!(alerted, "the misestimate should be observable mid-query");
}
