//! Execution tracing end to end: run a query with a recording sink, then
//! export the event stream as JSONL and as Chrome trace-event JSON
//! (loadable in `chrome://tracing` / Perfetto).
//!
//! Run with: `cargo run --release --example trace_export [out_dir]`

use lqs::prelude::*;

fn main() {
    let mut orders = Table::new(
        "orders",
        Schema::new(vec![
            Column::new("cust", DataType::Int),
            Column::new("amount", DataType::Int),
        ]),
    );
    for i in 0..20_000i64 {
        orders
            .insert(vec![Value::Int(i % 500), Value::Int(i % 997)])
            .unwrap();
    }
    let mut cust = Table::new(
        "customers",
        Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("segment", DataType::Int),
        ]),
    );
    for i in 0..500i64 {
        cust.insert(vec![Value::Int(i), Value::Int(i % 7)]).unwrap();
    }
    let mut db = Database::new();
    let orders = db.add_table_analyzed(orders);
    let cust = db.add_table_analyzed(cust);

    let mut b = PlanBuilder::new(&db);
    let c = b.table_scan(cust);
    let o = b.table_scan_filtered(orders, Expr::col(1).lt(Expr::lit(800i64)), true);
    let join = b.hash_join(JoinKind::Inner, c, o, vec![0], vec![0]);
    let agg = b.hash_aggregate(join, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 3)]);
    let sort = b.sort(agg, vec![SortKey::desc(1)]);
    let plan = b.finish(sort);

    let sink = RingBufferSink::new(1 << 16);
    let run = execute_traced(&db, &plan, &ExecOptions::default(), &sink);
    let events = sink.into_events();
    let names = plan_node_names(&plan);
    println!(
        "traced {} events over {} snapshots ({} rows returned)",
        events.len(),
        run.snapshots.len(),
        run.rows_returned
    );

    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let jsonl_path = format!("{out_dir}/trace.jsonl");
    let chrome_path = format!("{out_dir}/trace.chrome.json");
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    std::fs::write(&jsonl_path, to_jsonl(&events, &names)).expect("write jsonl");
    std::fs::write(&chrome_path, to_chrome_trace(&events, &names)).expect("write chrome trace");
    println!("wrote {jsonl_path} and {chrome_path}");
}
