//! `lqs_metrics_smoke` — end-to-end scrape check for the telemetry stack.
//!
//! Starts a metrics-enabled query service and poller, serves the shared
//! registry over [`MetricsServer`], runs a small mixed workload to
//! completion, polls once so accuracy is scored, then scrapes the live
//! endpoints over a raw socket exactly like a Prometheus client would:
//!
//! * `GET /metrics` must be 0.0.4 text exposition covering the operator,
//!   session-lifecycle, poller, and estimator-accuracy families;
//! * `GET /sessions` must be JSON listing every session as `succeeded`.
//!
//! Exits non-zero on the first violated check — CI runs this as the
//! scrape smoke test.

use lqs::prelude::*;
use lqs_bench::{fail, http_get};
use std::sync::Arc;

fn main() {
    // A small table and three plan shapes, each tagged with its own
    // workload so accuracy lands in distinct labeled histograms.
    let mut table = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..4000i64 {
        table
            .insert(vec![Value::Int(i), Value::Int(i % 64)])
            .unwrap();
    }
    let mut db = Database::new();
    let t = db.add_table_analyzed(table);
    let mut plans = Vec::new();
    {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(t);
        plans.push(("scan", Arc::new(b.finish(scan))));
    }
    {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(32i64)), true);
        let sort = b.sort(scan, vec![SortKey::desc(0)]);
        plans.push(("filter-sort", Arc::new(b.finish(sort))));
    }
    {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(t);
        let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
        plans.push(("aggregate", Arc::new(b.finish(agg))));
    }
    let db = Arc::new(db);

    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::with_metrics(
        Arc::clone(&db),
        2,
        ServiceMetrics::new(Arc::clone(&registry)),
    );
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    )
    .with_metrics(PollerMetrics::new(Arc::clone(&registry)));
    let server = MetricsServer::start(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Arc::clone(service.registry()),
    )
    .unwrap_or_else(|e| fail(&format!("cannot start metrics server: {e}")));
    println!("serving {}", server.url());

    for (workload, plan) in &plans {
        service.submit(
            QuerySpec::new(format!("{workload}-q"), Arc::clone(plan)).with_workload(*workload),
        );
    }
    service.wait_all();
    poller.poll(); // first terminal sighting scores estimator accuracy

    let (status, body) = http_get(server.addr(), "/metrics");
    if status != 200 {
        fail(&format!("GET /metrics returned {status}"));
    }
    for family in [
        // operator close-time telemetry (lqs-exec)
        "lqs_operator_rows_output",
        "lqs_operator_logical_reads",
        "lqs_operator_cpu_virtual_ns",
        "lqs_queries_executed_total",
        // session lifecycle (lqs-server service)
        "lqs_sessions_submitted_total",
        "lqs_sessions_finished_total",
        "lqs_session_queue_wait_seconds",
        "lqs_session_run_seconds",
        "lqs_session_virtual_ns",
        // poller + estimator accuracy (lqs-server poller)
        "lqs_poll_latency_seconds",
        "lqs_accuracy_sessions_total",
        "lqs_estimator_error_count",
        "lqs_estimator_error_time",
    ] {
        if !body.contains(&format!("# TYPE {family} ")) {
            fail(&format!("/metrics missing family {family}"));
        }
    }
    if !body.contains("lqs_sessions_finished_total{outcome=\"succeeded\"} 3") {
        fail("expected 3 succeeded sessions in /metrics");
    }
    for (workload, _) in &plans {
        let sample = format!(
            "lqs_estimator_error_count_count{{estimator=\"lqs\",workload=\"{workload}\"}} 1"
        );
        if !body.contains(&sample) {
            fail(&format!(
                "accuracy not scored for workload {workload}: missing {sample}"
            ));
        }
    }

    let (status, body) = http_get(server.addr(), "/sessions");
    if status != 200 {
        fail(&format!("GET /sessions returned {status}"));
    }
    let parsed = serde_json::from_str(&body)
        .unwrap_or_else(|e| fail(&format!("/sessions is not valid JSON: {e:?}")));
    let rows = parsed
        .as_array()
        .unwrap_or_else(|| fail("/sessions is not a JSON array"));
    if rows.len() != plans.len() {
        fail(&format!(
            "/sessions has {} rows, want {}",
            rows.len(),
            plans.len()
        ));
    }
    for row in rows {
        match row.get("state").and_then(|s| s.as_str()) {
            Some("succeeded") => {}
            other => fail(&format!("session not succeeded in /sessions: {other:?}")),
        }
    }

    server.stop();
    service.shutdown();
    println!("lqs_metrics_smoke: OK — all families present, accuracy scored, sessions listed");
}
