//! Full-stack telemetry: sessions run under a metrics-recording service,
//! a metrics-recording poller scores estimator accuracy online, and the
//! HTTP endpoint serves it all.
//!
//! The headline assertion is *exactness*: the accuracy figures folded into
//! the per-workload histograms must equal — bit for bit — a direct
//! `lqs_progress::error_count` / `error_time` computation over the same
//! run, because both sides replay the same deterministic virtual-clock
//! trace through identically-constructed estimators.

use lqs_journal::{Journal, JournalConfig, SessionMeta};
use lqs_metrics::MetricsRegistry;
use lqs_progress::{error_count, error_time, EstimatorConfig, ProgressEstimator};
use lqs_server::{
    MetricsServer, PollerMetrics, QueryService, QuerySpec, RecoveryManager, RegistryPoller,
    ServerConfig, ServiceMetrics, SessionRegistry, SessionResult, SessionState, Watchdog,
    WatchdogConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{
    body_of, http_get, metric_value, mixed_db, mixed_plans, orders_db, scan_sort_plan,
    sweep_until_raised, tmpdir, Gate,
};

#[test]
fn accuracy_telemetry_matches_direct_computation_exactly() {
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = mixed_plans(&db, t);
    let registry = Arc::new(MetricsRegistry::new());
    let service_metrics = ServiceMetrics::new(Arc::clone(&registry));
    let service = QueryService::with_metrics(Arc::clone(&db), 2, Arc::clone(&service_metrics));
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    )
    .with_metrics(PollerMetrics::new(Arc::clone(&registry)));

    let handles: Vec<_> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            service.submit(
                QuerySpec::new(format!("q{i}"), Arc::clone(plan)).with_workload(format!("w{i}")),
            )
        })
        .collect();
    // Poll while running (exercises the live path), then once after
    // completion — that final poll is what scores accuracy.
    poller.poll();
    service.wait_all();
    poller.poll();

    for (i, handle) in handles.iter().enumerate() {
        let Some(SessionResult::Completed(run)) = handle.result() else {
            panic!("session {i} did not complete");
        };
        // Direct §5 computation, independent of the poller: the estimator
        // parity rule (same plan, db, config, and the run's cost model).
        let estimator = ProgressEstimator::with_cost_model(
            handle.plan(),
            &db,
            EstimatorConfig::full(),
            &run.cost_model,
        );
        let estimates: Vec<f64> = run
            .snapshots
            .iter()
            .map(|s| estimator.estimate(s).query_progress)
            .collect();
        let expect_count = error_count(&run, &estimates);
        let expect_time = error_time(&run, &estimates);

        let workload = format!("w{i}");
        let labels = [("estimator", "lqs"), ("workload", workload.as_str())];
        let h_count = registry.histogram("lqs_estimator_error_count", "", &labels);
        let h_time = registry.histogram("lqs_estimator_error_time", "", &labels);
        assert_eq!(h_count.count(), 1, "one scored session per workload");
        assert_eq!(h_time.count(), 1);
        // One observation per histogram → the sum IS the observation, and
        // the virtual clock makes the replay bit-for-bit reproducible.
        assert_eq!(h_count.sum(), expect_count, "workload {workload}");
        assert_eq!(h_time.sum(), expect_time, "workload {workload}");
        // Sanity: the full estimator should beat the degenerate baselines.
        assert!(expect_count < 0.5, "error_count {expect_count}");
    }

    // Re-polling a terminal session must not double-score it.
    poller.poll();
    poller.poll();
    for i in 0..plans.len() {
        let workload = format!("w{i}");
        let labels = [("estimator", "lqs"), ("workload", workload.as_str())];
        assert_eq!(
            registry
                .histogram("lqs_estimator_error_count", "", &labels)
                .count(),
            1
        );
    }
    assert_eq!(
        registry
            .counter("lqs_accuracy_sessions_total", "", &[])
            .get(),
        plans.len() as u64
    );

    // Lifecycle counters recorded by the service side.
    assert_eq!(
        registry
            .counter("lqs_sessions_submitted_total", "", &[])
            .get(),
        plans.len() as u64
    );
    assert_eq!(
        registry
            .counter(
                "lqs_sessions_finished_total",
                "",
                &[("outcome", "succeeded")]
            )
            .get(),
        plans.len() as u64
    );
    assert_eq!(registry.gauge("lqs_sessions_running", "", &[]).get(), 0);
    // Poll latency saw every poll() call above.
    assert_eq!(
        registry
            .histogram("lqs_poll_latency_seconds", "", &[])
            .count(),
        4
    );
}

#[test]
fn metrics_server_serves_exposition_and_sessions() {
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = mixed_plans(&db, t);
    let registry = Arc::new(MetricsRegistry::new());
    let service_metrics = ServiceMetrics::new(Arc::clone(&registry));
    let service = QueryService::with_metrics(Arc::clone(&db), 2, service_metrics);
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    )
    .with_metrics(PollerMetrics::new(Arc::clone(&registry)));

    for (i, plan) in plans.iter().enumerate() {
        service.submit(QuerySpec::new(format!("q{i}"), Arc::clone(plan)));
    }
    service.wait_all();
    poller.poll();

    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Arc::clone(service.registry()),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // /metrics: correct status, content type, and family coverage.
    let response = http_get(addr, "/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let exposition = body_of(&response);
    for family in [
        "lqs_sessions_submitted_total",
        "lqs_sessions_finished_total",
        "lqs_session_queue_wait_seconds",
        "lqs_session_run_seconds",
        "lqs_operator_rows_output",
        "lqs_poll_latency_seconds",
        "lqs_estimator_error_count",
        "lqs_estimator_error_time",
    ] {
        assert!(
            exposition.contains(&format!("# TYPE {family} ")),
            "scrape missing {family}"
        );
    }
    // Well-formed text format: every sample line is `name[{labels}] value`
    // with a parseable value.
    for line in exposition
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
            "unparseable sample value in {line:?}"
        );
    }

    // /sessions: JSON array, one row per registered session.
    let response = http_get(addr, "/sessions");
    assert!(response.starts_with("HTTP/1.1 200 OK"));
    assert!(response.contains("Content-Type: application/json"));
    let rows = serde_json::from_str(body_of(&response)).expect("valid JSON");
    let rows = match rows {
        serde_json::Value::Array(rows) => rows,
        other => panic!("expected array, got {}", other.to_json()),
    };
    assert_eq!(rows.len(), plans.len());
    for row in &rows {
        assert_eq!(row["state"].as_str(), Some("succeeded"));
        assert!(row["published_seq"].as_u64().unwrap() > 0);
        assert!(row["snapshot_ts_ns"].as_u64().is_some());
    }

    // Unknown routes and methods are rejected, and the server survives to
    // answer again afterwards.
    assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"));
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "POST /metrics HTTP/1.1\r\nHost: lqs\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 405"));
    assert!(http_get(addr, "/metrics").starts_with("HTTP/1.1 200"));

    server.stop();
}

/// There is no telemetry-off path: a stack none of whose parts was handed a
/// shared registry still counts, each part into the registry it owns.
#[test]
fn components_without_a_shared_registry_count_into_their_own() {
    let dir = tmpdir("own-registries");
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let service = QueryService::new(Arc::clone(&db), 1).with_journal(journal);
    let sessions = Arc::clone(service.registry());
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(&sessions),
        EstimatorConfig::full(),
    );
    let mut watchdog = Watchdog::new(
        Arc::clone(&db),
        sessions,
        EstimatorConfig::full(),
        WatchdogConfig {
            stall_sweeps: 2,
            stall_wall: Duration::ZERO,
            ..WatchdogConfig::default()
        },
    );

    // One session, wedged on its first page until the watchdog has raised
    // its stall alert, then released to finish and be scored.
    let gate = Gate::new(0);
    let session = service
        .submit(QuerySpec::new("wedged", Arc::clone(&plan)).with_fault(Arc::clone(&gate) as _));
    assert_eq!(sweep_until_raised(&mut watchdog, 2000).len(), 1);
    gate.open();
    assert_eq!(session.wait_terminal(), SessionState::Succeeded);
    poller.poll();

    let count = |registry: &MetricsRegistry, family: &str| {
        metric_value(&registry.render(), family).unwrap_or(0.0)
    };
    assert_eq!(
        count(service.metrics().registry(), "lqs_sessions_submitted_total"),
        1.0
    );
    let journal = service.journal().expect("journaled service");
    assert!(
        count(
            journal.metrics().registry(),
            "lqs_journal_records_appended_total"
        ) >= 3.0,
        "meta, at least one snapshot, terminal"
    );
    assert_eq!(count(watchdog.metrics(), "lqs_watchdog_alerts_total"), 1.0);
    assert_eq!(
        count(poller.metrics().registry(), "lqs_accuracy_sessions_total"),
        1.0
    );

    service.shutdown();
    let recovery = RecoveryManager::new(move |_: &SessionMeta| Some(Arc::clone(&plan)));
    recovery
        .recover(&dir, &SessionRegistry::new())
        .expect("recovery scan");
    assert_eq!(
        count(
            recovery.metrics().registry(),
            "lqs_sessions_recovered_total"
        ),
        1.0
    );
    let _ = std::fs::remove_dir_all(&dir);
}
