//! `lqs_history_smoke` — end-to-end check for the journal-backed history
//! and prediction layer.
//!
//! Journals a mixed workload through a cost-admitted query service (two
//! rounds: the first is cold and warms the store, the second is admitted
//! on exact-history predictions), then:
//!
//! * scans the journal directory into a fleet history and prints the
//!   per-session and per-workload analytics;
//! * serves the same directory over [`MetricsServer`] and scrapes all
//!   four history endpoints plus `/healthz` and `/metrics` over a raw
//!   socket, checking shapes and the explicit no-history answer for an
//!   unseen fingerprint;
//! * scrapes every journal-backed endpoint **twice** and requires the two
//!   bodies to be byte-for-byte identical — the determinism contract.
//!
//! Everything printed to stdout is derived from virtual clocks and
//! journal bytes, so CI runs the whole binary twice and diffs the output.
//! Exits non-zero on the first violated check.
//!
//! ```text
//! lqs_history_smoke [--out DIR]
//! ```

use lqs::history::{history_from_scan, HistoryResolver, ResolvedPlan};
use lqs::journal::{plan_fingerprint, scan_dir};
use lqs::prelude::*;
use lqs_bench::{fail, http_get, http_get_deterministic};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut journal_dir = PathBuf::from("target/lqs-history-smoke-journal");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                journal_dir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}\nusage: lqs_history_smoke [--out DIR]");
                exit(2);
            }
        }
    }
    // A fresh directory every run: the journal epoch (and hence every
    // printed session key) must not depend on prior runs.
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create journal dir: {e}")));

    // The mixed workload: three plan shapes over one small table, each its
    // own workload class.
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
    let mut plans: Vec<(&str, Arc<PhysicalPlan>)> = Vec::new();
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
    let store = Arc::new(HistoryStore::new());
    let history_metrics = HistoryMetrics::new(Arc::clone(&registry));
    let journal = Journal::open(JournalConfig::new(&journal_dir))
        .unwrap_or_else(|e| fail(&format!("cannot open journal: {e}")));
    let service = QueryService::with_metrics(
        Arc::clone(&db),
        2,
        ServiceMetrics::new(Arc::clone(&registry)),
    )
    .with_journal(journal)
    .with_admission_limit(64)
    .with_cost_admission(
        Arc::clone(&store),
        u64::MAX / 4,
        Some(history_metrics.clone()),
    );

    // Round 1: the store is cold — every submission is an explicit
    // no-history miss that falls back to the fixed limit, then warms the
    // store on completion.
    for (workload, plan) in &plans {
        service.submit(
            QuerySpec::new(format!("{workload}-q"), Arc::clone(plan)).with_workload(*workload),
        );
    }
    service.wait_all();
    if store.total_runs() != plans.len() {
        fail(&format!(
            "store should hold {} runs after round 1, has {}",
            plans.len(),
            store.total_runs()
        ));
    }
    // Round 2: every plan now has exact history; admission is predicted.
    for (workload, plan) in &plans {
        let h = service.submit(
            QuerySpec::new(format!("{workload}-q2"), Arc::clone(plan)).with_workload(*workload),
        );
        if h.predicted_cost().is_none() {
            fail(&format!("round-2 {workload} submission was not predicted"));
        }
    }
    service.wait_all();
    println!(
        "journaled {} sessions over {} workloads (round 2 admitted on exact predictions)",
        2 * plans.len(),
        plans.len()
    );
    service.shutdown(); // clean-shutdown sentinel + flush

    // Offline scan: the analytics view, straight from journal bytes.
    let catalog: Vec<(String, Arc<PhysicalPlan>)> = plans
        .iter()
        .flat_map(|(w, p)| {
            [
                (format!("{w}-q"), Arc::clone(p)),
                (format!("{w}-q2"), Arc::clone(p)),
            ]
        })
        .collect();
    let resolver = {
        let db = Arc::clone(&db);
        let catalog = catalog.clone();
        move |meta: &lqs::journal::SessionMeta| {
            catalog
                .iter()
                .find(|(name, _)| *name == meta.name)
                .map(|(_, plan)| ResolvedPlan {
                    plan: Arc::clone(plan),
                    db: Arc::clone(&db),
                })
        }
    };
    let scan = scan_dir(&journal_dir).unwrap_or_else(|e| fail(&format!("scan failed: {e}")));
    let fleet = history_from_scan(&scan, Some(&resolver as &dyn HistoryResolver));
    if fleet.sessions.len() != 2 * plans.len() {
        fail(&format!(
            "scan found {} sessions, want {}",
            fleet.sessions.len(),
            2 * plans.len()
        ));
    }
    for s in &fleet.sessions {
        let (Some(ea), Some(et)) = (s.error_avg, s.error_time) else {
            fail(&format!("session {} has no accuracy replay", s.key()));
        };
        println!(
            "  {} {:<16} {:<12} {} runtime={}ns cpu={}ns reads={} snaps={} ErrorAvg={ea:.4} ErrorTime={et:.4}",
            s.key(),
            s.name,
            s.workload,
            s.outcome,
            s.runtime_ns,
            s.total_cpu_ns,
            s.total_logical_reads,
            s.snapshots,
        );
    }
    for w in fleet.percentiles() {
        println!(
            "  {:<12} {}x runtime p50={}ns p99={}ns reads p50={}",
            w.workload, w.succeeded, w.runtime_ns.p50, w.runtime_ns.p99, w.logical_reads.p50
        );
    }
    for n in fleet.slowest_nodes(3) {
        println!(
            "  slowest: {:<16} node {} {:<24} cpu={}ns over {} runs",
            n.name,
            n.node,
            n.op.as_deref().unwrap_or("<unresolved>"),
            n.cpu_ns,
            n.sessions
        );
    }

    // Serve the journal dir and scrape the four history endpoints.
    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Arc::new(SessionRegistry::new()),
        ServerConfig {
            history: Some(HistoryEndpoints {
                journal_dir: journal_dir.clone(),
                resolver: Some(Arc::new(resolver)),
                store: Some(Arc::clone(&store)),
                metrics: Some(history_metrics.clone()),
            }),
            recovered_sessions: 0,
            watchdog: None,
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("cannot start server: {e}")));
    let addr = server.addr();

    let (status, sessions_body) = http_get_deterministic(addr, "/history/sessions");
    if status != 200 {
        fail(&format!("GET /history/sessions returned {status}"));
    }
    let parsed = serde_json::from_str(&sessions_body)
        .unwrap_or_else(|e| fail(&format!("/history/sessions is not JSON: {e:?}")));
    let rows = parsed
        .get("sessions")
        .and_then(|s| s.as_array())
        .unwrap_or_else(|| fail("/history/sessions has no sessions array"));
    if rows.len() != 2 * plans.len() {
        fail(&format!("/history/sessions has {} rows", rows.len()));
    }
    for row in rows {
        match row.get("outcome").and_then(|o| o.as_str()) {
            Some("succeeded") => {}
            other => fail(&format!("journaled session not succeeded: {other:?}")),
        }
    }
    let first_key = rows[0]
        .get("key")
        .and_then(|k| k.as_str())
        .unwrap_or_else(|| fail("first session row has no key"));

    let (status, curve_body) =
        http_get_deterministic(addr, &format!("/history/session/{first_key}/curve"));
    if status != 200 {
        fail(&format!(
            "GET /history/session/{first_key}/curve returned {status}"
        ));
    }
    let curve = serde_json::from_str(&curve_body)
        .unwrap_or_else(|e| fail(&format!("curve is not JSON: {e:?}")));
    let points = curve
        .get("curve")
        .and_then(|c| c.as_array())
        .unwrap_or_else(|| fail("curve response has no curve array"));
    if points.is_empty() {
        fail("curve has no points");
    }
    println!("curve for {first_key}: {} points", points.len());

    let (status, pct_body) = http_get_deterministic(addr, "/history/percentiles");
    if status != 200 {
        fail(&format!("GET /history/percentiles returned {status}"));
    }
    print!("{pct_body}");

    // Prediction: a journaled fingerprint answers with exact history...
    let fp = plan_fingerprint(&plans[0].1);
    let (status, body) = http_get(addr, &format!("/history/predict?fingerprint={fp}"));
    if status != 200 {
        fail(&format!("GET /history/predict returned {status}"));
    }
    let predicted = serde_json::from_str(&body)
        .unwrap_or_else(|e| fail(&format!("predict response is not JSON: {e:?}")));
    if predicted.get("no_history").and_then(|v| v.as_bool()) != Some(false) {
        fail("journaled fingerprint unexpectedly answered no-history");
    }
    print!("predict known fingerprint: {body}");
    // ... and an unseen fingerprint answers an explicit no-history, never
    // a zero estimate.
    let (status, body) = http_get(addr, "/history/predict?fingerprint=123456789");
    if status != 200 {
        fail(&format!("GET /history/predict (unseen) returned {status}"));
    }
    let missed = serde_json::from_str(&body)
        .unwrap_or_else(|e| fail(&format!("no-history response is not JSON: {e:?}")));
    if missed.get("no_history").and_then(|v| v.as_bool()) != Some(true) {
        fail("unseen fingerprint did not answer an explicit no-history");
    }
    println!("predict unseen fingerprint: explicit no_history");

    let (status, body) = http_get(addr, "/healthz");
    if status != 200 {
        fail(&format!("GET /healthz returned {status}"));
    }
    let health =
        serde_json::from_str(&body).unwrap_or_else(|e| fail(&format!("/healthz not JSON: {e:?}")));
    if health.get("status").and_then(|s| s.as_str()) != Some("ok") {
        fail("/healthz status is not ok");
    }
    if health
        .get("journal")
        .and_then(|j| j.get("dir_exists"))
        .and_then(|v| v.as_bool())
        != Some(true)
    {
        fail("/healthz does not report the journal dir");
    }

    let (status, metrics_body) = http_get(addr, "/metrics");
    if status != 200 {
        fail(&format!("GET /metrics returned {status}"));
    }
    for family in [
        "lqs_history_predictions_total",
        "lqs_history_cold_misses_total",
        "lqs_history_prediction_error",
    ] {
        if !metrics_body.contains(&format!("# TYPE {family} ")) {
            fail(&format!("/metrics missing family {family}"));
        }
    }
    // Round 1 was three cold submissions, plus the unseen-fingerprint
    // probe above; round 2 scored three exact predictions against their
    // observed runs.
    if !metrics_body.contains("lqs_history_cold_misses_total 4") {
        fail("expected 4 cold misses in /metrics");
    }
    if !metrics_body.contains("lqs_history_prediction_error_count{resource=\"cpu_ns\"} 3") {
        fail("expected 3 scored cpu_ns predictions in /metrics");
    }

    server.stop();
    println!(
        "lqs_history_smoke: OK — {} sessions journaled, endpoints deterministic, \
         predictions exact on second sight, cold fingerprints answer no-history",
        2 * plans.len()
    );
}
