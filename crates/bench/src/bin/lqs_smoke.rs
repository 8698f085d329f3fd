//! `lqs_smoke` — end-to-end smoke scenes through the service stack.
//!
//! Every scene runs the shared [`SmokeFixture`] workload (the `service`
//! scene: TPC-H) through a real [`QueryService`], scrapes what the stack
//! serves over a raw socket exactly like a Prometheus client would, and
//! exits non-zero on the first violated check. One scene per run:
//!
//! * `metrics` — the telemetry stack: `/metrics` covers the operator,
//!   session-lifecycle, poller and estimator-accuracy families; `/sessions`
//!   lists every session as `succeeded`.
//! * `history` — the journal-backed history and prediction layer: a
//!   cost-admitted service journals two rounds (the first cold, warming the
//!   store; the second admitted on exact-history predictions), then the
//!   scan, the fleet analytics and all four `/history/*` endpoints.
//! * `profile` — batch-native profiling and the live watchdog: exact
//!   per-operator attribution served at `/profile/{session}`; a session
//!   wedged on a [`PageGate`] is classified as stalled on a fixed sweep
//!   schedule — exactly one alert at `/alerts`, journaled durably, cleared
//!   on recovery.
//! * `ensemble` — the competing-estimator ensemble: online accuracy
//!   bit-identical to offline replay, selections in `/sessions`, in the
//!   journal's trailing estimator record and in the history scan.
//! * `service` — concurrency: 16 TPC-H sessions over 4 workers polled live;
//!   all succeed, at least 4 run at once, no poll is older than the one
//!   before, every final report is at 100 %. (Throughput and poll latency
//!   are the benchmark ledger's to measure, not a smoke's.)
//!
//! Everything `history`, `profile` and `ensemble` print derives from
//! virtual clocks, journal bytes and deterministic replays, and every
//! journal- or profile-backed endpoint is scraped **twice** and must answer
//! byte-identically — so CI runs those scenes twice and diffs the output.
//!
//! ```text
//! lqs_smoke --scene metrics|history|profile|ensemble|service [--out DIR]
//! ```
//!
//! `--out` is the journal directory of the journaled scenes (default
//! `target/lqs-smoke-<scene>-journal`, emptied first).

use lqs::chaos::PageGate;
use lqs::history::{
    history_from_scan, scan_history, HistoryMetrics, HistoryResolver, HistoryStore, ResolvedPlan,
};
use lqs::journal::{plan_fingerprint, scan_dir, AlertKind, SessionMeta};
use lqs::metrics::MetricsRegistry;
use lqs::prelude::*;
use lqs::prof::ProfileReport;
use lqs::progress::{error_count, error_time, EnsembleConfig, EnsembleEstimator};
use lqs::server::{
    Health, HistoryEndpoints, MetricsServer, PollerMetrics, QueryService, QuerySpec,
    RegistryPoller, ServerConfig, ServiceMetrics, SessionHandle, SessionRegistry, SessionResult,
    SessionState, Watchdog, WatchdogConfig,
};
use lqs::workloads::{tpch, PhysicalDesign, WorkloadScale};
use lqs_bench::{
    fail, fresh_journal, http_get, http_get_deterministic, http_get_ok, parse_json, Cli, Kind,
    SmokeFixture,
};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CLI: Cli = Cli {
    usage: "usage: lqs_smoke --scene metrics|history|profile|ensemble|service [--out DIR]",
    flags: &[("--scene", Kind::Text), ("--out", Kind::Text)],
};

/// A scene, handed `--out`'s value.
type Scene = fn(Option<&str>);

const SCENES: &[(&str, Scene)] = &[
    ("metrics", metrics),
    ("history", history),
    ("profile", profile),
    ("ensemble", ensemble),
    ("service", service),
];

fn main() {
    let flags = CLI.parse_env();
    CLI.select(&flags, "--scene", SCENES)(flags.text("--out"));
}

/// Submit each plan as `<workload><suffix>`, tagged with its workload.
fn submit_all(
    service: &QueryService,
    plans: &[(&str, Arc<PhysicalPlan>)],
    suffix: &str,
) -> Vec<Arc<SessionHandle>> {
    plans
        .iter()
        .map(|(workload, plan)| {
            service.submit(
                QuerySpec::new(format!("{workload}{suffix}"), Arc::clone(plan))
                    .with_workload(*workload),
            )
        })
        .collect()
}

fn require_families(metrics_body: &str, families: &[&str]) {
    for family in families {
        if !metrics_body.contains(&format!("# TYPE {family} ")) {
            fail(&format!("/metrics missing family {family}"));
        }
    }
}

/// Resolves journaled sessions back to plans by session name.
fn catalog_resolver(
    db: &Arc<Database>,
    catalog: Vec<(String, Arc<PhysicalPlan>)>,
) -> impl Fn(&SessionMeta) -> Option<ResolvedPlan> {
    let db = Arc::clone(db);
    move |meta: &SessionMeta| {
        catalog
            .iter()
            .find(|(name, _)| *name == meta.name)
            .map(|(_, plan)| ResolvedPlan {
                plan: Arc::clone(plan),
                db: Arc::clone(&db),
            })
    }
}

/// A service over the fixture's database recording into `registry`.
fn metered_service(
    fx: &SmokeFixture,
    registry: &Arc<MetricsRegistry>,
    workers: usize,
) -> QueryService {
    let metrics = ServiceMetrics::new(Arc::clone(registry));
    QueryService::with_metrics(Arc::clone(&fx.db), workers, metrics)
}

/// A full-config poller over `service`'s sessions recording into `registry`.
fn metered_poller(
    fx: &SmokeFixture,
    service: &QueryService,
    registry: &Arc<MetricsRegistry>,
) -> RegistryPoller {
    let sessions = Arc::clone(service.registry());
    RegistryPoller::new(Arc::clone(&fx.db), sessions, EstimatorConfig::full())
        .with_metrics(PollerMetrics::new(Arc::clone(registry)))
}

/// Serve `registry` and `sessions` on an ephemeral local port.
fn serve(
    registry: &Arc<MetricsRegistry>,
    sessions: &Arc<SessionRegistry>,
    config: ServerConfig,
) -> MetricsServer {
    let (registry, sessions) = (Arc::clone(registry), Arc::clone(sessions));
    MetricsServer::start_with("127.0.0.1:0", registry, sessions, config)
        .unwrap_or_else(|e| fail(&format!("cannot start server: {e}")))
}

/// `/sessions`, scraped twice byte-identically, as its `expected` rows.
fn session_rows(addr: SocketAddr, expected: usize) -> Vec<serde_json::Value> {
    match parse_json("/sessions", &http_get_deterministic(addr, "/sessions")) {
        serde_json::Value::Array(rows) if rows.len() == expected => rows,
        other => fail(&format!("/sessions is not {expected} rows: {other:?}")),
    }
}

/// The array under `key` of a scraped JSON object.
fn array_at<'a>(body: &'a serde_json::Value, key: &str) -> &'a [serde_json::Value] {
    match body.get(key).and_then(|v| v.as_array()) {
        Some(items) => items,
        None => fail(&format!("response has no {key} array: {body:?}")),
    }
}

fn metrics(_out: Option<&str>) {
    let fx = SmokeFixture::build();
    let plans = fx.mixed();

    let registry = Arc::new(MetricsRegistry::new());
    let service = metered_service(&fx, &registry, 2);
    let mut poller = metered_poller(&fx, &service, &registry);
    let server = serve(&registry, service.registry(), ServerConfig::default());
    println!("serving {}", server.url());

    submit_all(&service, &plans, "-q");
    service.wait_all();
    poller.poll(); // first terminal sighting scores estimator accuracy

    let body = http_get_ok(server.addr(), "/metrics");
    require_families(
        &body,
        &[
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
        ],
    );
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

    for row in session_rows(server.addr(), plans.len()) {
        match row.get("state").and_then(|s| s.as_str()) {
            Some("succeeded") => {}
            other => fail(&format!("session not succeeded in /sessions: {other:?}")),
        }
    }

    server.stop();
    service.shutdown();
    println!("lqs_smoke metrics: OK — all families present, accuracy scored, sessions listed");
}

fn history(out: Option<&str>) {
    let (journal_dir, journal) = fresh_journal(out, "history");
    let fx = SmokeFixture::build();
    let plans = fx.mixed();

    let registry = Arc::new(MetricsRegistry::new());
    let store = Arc::new(HistoryStore::new());
    let history_metrics = HistoryMetrics::new(Arc::clone(&registry));
    let service = metered_service(&fx, &registry, 2)
        .with_journal(journal)
        .with_admission_limit(64)
        .with_cost_admission(Arc::clone(&store), u64::MAX / 4);

    // Round 1: the store is cold — every submission is an explicit
    // no-history miss that falls back to the fixed limit, then warms the
    // store on completion.
    submit_all(&service, &plans, "-q");
    service.wait_all();
    if store.total_runs() != plans.len() {
        fail(&format!(
            "store should hold {} runs after round 1, has {}",
            plans.len(),
            store.total_runs()
        ));
    }
    // Round 2: every plan now has exact history; admission is predicted.
    for h in submit_all(&service, &plans, "-q2") {
        if h.predicted_cost().is_none() {
            fail(&format!(
                "round-2 {} submission was not predicted",
                h.name()
            ));
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
    let catalog = plans
        .iter()
        .flat_map(|(w, p)| {
            [
                (format!("{w}-q"), Arc::clone(p)),
                (format!("{w}-q2"), Arc::clone(p)),
            ]
        })
        .collect();
    let resolver = catalog_resolver(&fx.db, catalog);
    let fleet = scan_history(&journal_dir, None, Some(&resolver as &dyn HistoryResolver))
        .unwrap_or_else(|e| fail(&format!("scan failed: {e}")));
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
    let server = serve(
        &registry,
        &Arc::new(SessionRegistry::new()),
        ServerConfig {
            history: Some(HistoryEndpoints {
                journal_dir: journal_dir.clone(),
                resolver: Some(Arc::new(resolver)),
                store: Some(Arc::clone(&store)),
                metrics: Some(history_metrics.clone()),
            }),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    let sessions_body = http_get_deterministic(addr, "/history/sessions");
    let parsed = parse_json("/history/sessions", &sessions_body);
    let rows = array_at(&parsed, "sessions");
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

    let curve_path = format!("/history/session/{first_key}/curve");
    let curve = parse_json(&curve_path, &http_get_deterministic(addr, &curve_path));
    let points = array_at(&curve, "curve");
    if points.is_empty() {
        fail("curve has no points");
    }
    println!("curve for {first_key}: {} points", points.len());

    print!("{}", http_get_deterministic(addr, "/history/percentiles"));

    // Prediction: a journaled fingerprint answers with exact history...
    let fp = plan_fingerprint(&plans[0].1);
    let body = http_get_ok(addr, &format!("/history/predict?fingerprint={fp}"));
    let predicted = parse_json("/history/predict", &body);
    if predicted.get("no_history").and_then(|v| v.as_bool()) != Some(false) {
        fail("journaled fingerprint unexpectedly answered no-history");
    }
    print!("predict known fingerprint: {body}");
    // ... and an unseen fingerprint answers an explicit no-history, never
    // a zero estimate.
    let body = http_get_ok(addr, "/history/predict?fingerprint=123456789");
    let missed = parse_json("/history/predict (unseen)", &body);
    if missed.get("no_history").and_then(|v| v.as_bool()) != Some(true) {
        fail("unseen fingerprint did not answer an explicit no-history");
    }
    println!("predict unseen fingerprint: explicit no_history");

    let health = parse_json("/healthz", &http_get_ok(addr, "/healthz"));
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

    let metrics_body = http_get_ok(addr, "/metrics");
    require_families(
        &metrics_body,
        &[
            "lqs_history_predictions_total",
            "lqs_history_cold_misses_total",
            "lqs_history_prediction_error",
        ],
    );
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
        "lqs_smoke history: OK — {} sessions journaled, endpoints deterministic, \
         predictions exact on second sight, cold fingerprints answer no-history",
        2 * plans.len()
    );
}

/// Fetch `/profile/{id}`, check the conservation law against the served
/// JSON, and print the locally rendered attribution table (same data — the
/// served `total_ns` must match the handle's run).
fn check_profile(addr: SocketAddr, handle: &SessionHandle) {
    let id = handle.id().0;
    let path = format!("/profile/{id}");
    let body = http_get_deterministic(addr, &path);
    let parsed = parse_json(&path, &body);
    if parsed.get("available").and_then(|v| v.as_bool()) != Some(true) {
        fail(&format!("{path} is not available: {body}"));
    }
    let total = parsed
        .get("total_ns")
        .and_then(|v| v.as_i64())
        .unwrap_or_else(|| fail(&format!("{path} has no total_ns")));
    let self_sum: i64 = array_at(&parsed, "nodes")
        .iter()
        .map(|n| n.get("self_ns").and_then(|v| v.as_i64()).unwrap_or(0))
        .sum();
    if self_sum != total {
        fail(&format!(
            "{path} self-times sum to {self_sum}, total is {total}"
        ));
    }

    let Some(SessionResult::Completed(run)) = handle.result() else {
        fail(&format!("session {id} has no completed run"));
    };
    let report = ProfileReport::from_run(handle.plan(), &run)
        .unwrap_or_else(|| fail(&format!("session {id} run carries no attribution")));
    report
        .check_exact()
        .unwrap_or_else(|e| fail(&format!("session {id} attribution inexact: {e}")));
    if report.total_ns as i64 != total {
        fail(&format!(
            "served total_ns {total} != run total {}",
            report.total_ns
        ));
    }
    println!("profile session-{id} {}:", handle.name());
    print!("{}", report.render_text());

    let collapsed = http_get_deterministic(addr, &format!("{path}?format=collapsed"));
    if collapsed != report.collapsed_stacks() {
        fail(&format!("served collapsed stacks differ for session {id}"));
    }
    print!("{collapsed}");
}

fn profile(out: Option<&str>) {
    let (journal_dir, journal) = fresh_journal(out, "profile");
    let fx = SmokeFixture::build();

    let registry = Arc::new(MetricsRegistry::new());
    let service = metered_service(&fx, &registry, 1).with_journal(journal);

    // Two clean sessions first: both complete and carry attribution.
    let clean = vec![
        service.submit(QuerySpec::new("scan-agg", fx.plan("aggregate"))),
        service.submit(QuerySpec::new("filter-sort", fx.plan("filter-sort"))),
    ];
    service.wait_all();

    // Then the chaos arm: gate the very first page so the session wedges
    // before its first snapshot publish.
    let gate = PageGate::new(0);
    let wedged = service.submit(
        QuerySpec::new("wedged-sort", fx.plan("scan-sort")).with_fault(Arc::clone(&gate) as _),
    );
    while wedged.state() != SessionState::Running {
        std::thread::sleep(Duration::from_millis(1));
    }

    // A fixed sweep schedule makes classification (and the served sweep
    // counter) deterministic: sweep 1 baselines the publish sequence,
    // sweeps 2–4 count it unchanged, and the stall window (3 sweeps, zero
    // wall) closes exactly on sweep 4.
    let watchdog = Arc::new(Mutex::new(
        Watchdog::new(
            Arc::clone(&fx.db),
            Arc::clone(service.registry()),
            EstimatorConfig::full(),
            WatchdogConfig {
                stall_sweeps: 3,
                stall_wall: Duration::ZERO,
                ..WatchdogConfig::default()
            },
        )
        .with_metrics(Arc::clone(&registry)),
    ));
    for sweep in 1..=4u32 {
        let raised = watchdog.lock().unwrap().sweep();
        match (sweep, raised.len()) {
            (1..=3, 0) | (4, 1) => {}
            (s, n) => fail(&format!("sweep {s} raised {n} alert(s)")),
        }
    }
    if watchdog.lock().unwrap().health(wedged.id()) != Some(Health::Stalled) {
        fail("wedged session not classified Stalled after sweep 4");
    }

    let server = serve(
        &registry,
        service.registry(),
        ServerConfig {
            watchdog: Some(Arc::clone(&watchdog)),
            ..ServerConfig::default()
        },
    );
    let addr = server.addr();

    // Completed sessions: served profile and local attribution agree, and
    // both obey the conservation law.
    for handle in &clean {
        check_profile(addr, handle);
    }

    // The wedged session is still running: an explicit not-available
    // answer, never an empty-but-plausible profile.
    let body = http_get_deterministic(addr, &format!("/profile/{}", wedged.id().0));
    let parsed = parse_json("running-session profile", &body);
    if parsed.get("available").and_then(|v| v.as_bool()) != Some(false)
        || parsed.get("reason").and_then(|v| v.as_str()) != Some("session not terminal yet")
    {
        fail(&format!("running session served a profile: {body}"));
    }
    print!("profile while running: {body}");
    let (status, _) = http_get(addr, "/profile/999999");
    if status != 404 {
        fail(&format!("GET /profile/999999 returned {status}, want 404"));
    }

    // The live alert, twice, byte-identical.
    let alerts_body = http_get_deterministic(addr, "/alerts");
    print!("alerts while wedged: {alerts_body}");
    let parsed = parse_json("/alerts", &alerts_body);
    let rows = array_at(&parsed, "alerts");
    if rows.len() != 1
        || rows[0].get("kind").and_then(|k| k.as_str()) != Some("stalled")
        || rows[0].get("seq").and_then(|s| s.as_i64()) != Some(0)
    {
        fail(&format!("unexpected /alerts payload: {alerts_body}"));
    }
    if !http_get_ok(addr, "/metrics").contains("lqs_watchdog_alerts_total{kind=\"stalled\"} 1") {
        fail("/metrics missing the stalled alert counter");
    }

    // Recovery: open the gate, let the session finish, and one more sweep
    // clears the live alert; its profile becomes available.
    gate.open();
    if wedged.wait_terminal() != SessionState::Succeeded {
        fail("wedged session did not succeed after the gate opened");
    }
    watchdog.lock().unwrap().sweep();
    let cleared = http_get_deterministic(addr, "/alerts");
    print!("alerts after recovery: {cleared}");
    if !array_at(&parse_json("cleared /alerts", &cleared), "alerts").is_empty() {
        fail(&format!("alerts did not clear on recovery: {cleared}"));
    }
    check_profile(addr, &wedged);

    server.stop();
    service.shutdown();

    // The alert outlives the process: the journal scan surfaces it.
    let scan = scan_dir(&journal_dir).unwrap_or_else(|e| fail(&format!("scan failed: {e}")));
    let journaled = scan
        .sessions
        .iter()
        .find(|s| s.meta.as_ref().is_some_and(|m| m.name == "wedged-sort"))
        .unwrap_or_else(|| fail("wedged session missing from journal"));
    if journaled.alerts.len() != 1 || journaled.alerts[0].kind != AlertKind::Stalled {
        fail(&format!(
            "journal carries {} alert(s), want one stalled",
            journaled.alerts.len()
        ));
    }
    println!(
        "lqs_smoke profile: OK — {} profiles exact, stall classified on schedule, \
         alert journaled and cleared on recovery",
        clean.len() + 1
    );
}

fn ensemble(out: Option<&str>) {
    let (journal_dir, journal) = fresh_journal(out, "ensemble");
    let fx = SmokeFixture::build();
    let plans = fx.mixed();

    let ensemble_config = EnsembleConfig::standard(42);
    let registry = Arc::new(MetricsRegistry::new());
    let service = metered_service(&fx, &registry, 2).with_journal(journal);
    let mut poller =
        metered_poller(&fx, &service, &registry).with_ensemble(ensemble_config.clone());
    let server = serve(&registry, service.registry(), ServerConfig::default());

    submit_all(&service, &plans, "-q");
    service.wait_all();
    poller.poll(); // first terminal sighting scores every member + ensemble

    // The determinism contract: each online per-estimator accuracy figure
    // in the registry must be bit-identical (f64 ==) to an offline replay
    // of the same session's full snapshot trace through a freshly built
    // ensemble.
    let handles = service.registry().sessions();
    if handles.len() != plans.len() {
        fail(&format!("registry has {} sessions", handles.len()));
    }
    for handle in handles.iter() {
        let Some(SessionResult::Completed(run)) = handle.result() else {
            fail(&format!("session {} did not complete", handle.name()));
        };
        let ens = EnsembleEstimator::build(
            handle.plan(),
            &fx.db,
            &run.cost_model,
            ensemble_config.clone(),
        );
        let replay = ens.replay(&run.snapshots);
        let workload = handle.workload().to_owned();
        let mut scored: Vec<(&str, f64, f64)> = ens
            .members()
            .zip(&replay.member_estimates)
            .map(|(m, est)| (m.id(), error_count(&run, est), error_time(&run, est)))
            .collect();
        scored.push((
            "ensemble",
            error_count(&run, &replay.estimates),
            error_time(&run, &replay.estimates),
        ));
        for (estimator, offline_count, offline_time) in &scored {
            let labels = [("estimator", *estimator), ("workload", workload.as_str())];
            let online_count = registry.histogram("lqs_estimator_error_count", "", &labels);
            let online_time = registry.histogram("lqs_estimator_error_time", "", &labels);
            if online_count.count() != 1 || online_time.count() != 1 {
                fail(&format!(
                    "{workload}/{estimator}: expected exactly one online accuracy sample"
                ));
            }
            if online_count.sum() != *offline_count || online_time.sum() != *offline_time {
                fail(&format!(
                    "{workload}/{estimator}: online accuracy ({}, {}) is not bit-identical \
                     to offline replay ({offline_count}, {offline_time})",
                    online_count.sum(),
                    online_time.sum(),
                ));
            }
        }
        let live = handle
            .estimator_selection()
            .unwrap_or_else(|| fail(&format!("{workload}: no live selection stashed")));
        let picked = live.selected;
        if replay.selection.as_ref() != Some(&live) {
            fail(&format!(
                "{workload}: live selection {picked} differs from replay selection {:?}",
                replay.selection
            ));
        }
        let errs: Vec<String> = scored
            .iter()
            .map(|(id, c, _)| format!("{id}={c:.6}"))
            .collect();
        println!(
            "{workload:<12} selected={picked:<8} snapshots={} {}",
            run.snapshots.len(),
            errs.join(" ")
        );
    }

    // /metrics: family presence plus the per-estimator sample counts (the
    // full exposition holds wall-clock families, so only virtual-clock
    // lines are checked, never printed).
    let metrics_body = http_get_ok(server.addr(), "/metrics");
    require_families(
        &metrics_body,
        &[
            "lqs_estimator_error_count",
            "lqs_estimator_error_time",
            "lqs_accuracy_sessions_total",
        ],
    );
    if !metrics_body.contains(&format!("lqs_accuracy_sessions_total {}", plans.len())) {
        fail(&format!(
            "expected {} scored sessions in /metrics",
            plans.len()
        ));
    }
    for (workload, _) in &plans {
        for estimator in ["lqs", "dne", "tgn", "norefine", "pmax", "safe", "ensemble"] {
            let sample = format!(
                "lqs_estimator_error_count_count{{estimator=\"{estimator}\",workload=\"{workload}\"}} 1"
            );
            if !metrics_body.contains(&sample) {
                fail(&format!("/metrics missing sample {sample}"));
            }
        }
    }
    println!(
        "metrics: {} accuracy samples per workload (6 members + ensemble), all bit-identical to replay",
        7 * plans.len()
    );

    // /sessions: every row carries the replay-final selection + weights,
    // and two scrapes are byte-for-byte identical.
    for row in session_rows(server.addr(), plans.len()) {
        let workload = row.get("workload").and_then(|w| w.as_str()).unwrap_or("?");
        let selected = row
            .get("estimator")
            .and_then(|e| e.as_str())
            .unwrap_or_else(|| fail(&format!("{workload}: /sessions row has no estimator")));
        let weights = match row.get("weights") {
            Some(serde_json::Value::Object(fields)) => fields,
            _ => fail(&format!("{workload}: /sessions row has no weights object")),
        };
        if weights.len() != 6 {
            fail(&format!(
                "{workload}: expected 6 member weights, got {}",
                weights.len()
            ));
        }
        let total: f64 = weights.iter().filter_map(|(_, v)| v.as_f64()).sum();
        if (total - 1.0).abs() > 1e-9 {
            fail(&format!("{workload}: weights sum to {total}, not 1"));
        }
        println!("session {workload:<12} estimator={selected} weights normalized");
    }

    server.stop();
    service.shutdown(); // clean-shutdown sentinel + flush

    // The journal carries the selection: every session ends with a trailing
    // estimator record, and the history scan segments accuracy by it.
    let scan = scan_dir(&journal_dir).unwrap_or_else(|e| fail(&format!("scan failed: {e}")));
    if scan.sessions.len() != plans.len() {
        fail(&format!(
            "journal scan found {} sessions",
            scan.sessions.len()
        ));
    }
    for s in &scan.sessions {
        let name = s.meta.as_ref().map(|m| m.name.as_str()).unwrap_or("?");
        let est = s
            .estimator
            .as_ref()
            .unwrap_or_else(|| fail(&format!("journaled session {name} has no estimator record")));
        if est.weights.len() != 6 {
            fail(&format!(
                "journaled session {name} has {} weights",
                est.weights.len()
            ));
        }
        println!("journal {name:<14} estimator={}", est.selected);
    }
    let catalog = plans
        .iter()
        .map(|(w, p)| (format!("{w}-q"), Arc::clone(p)))
        .collect();
    let resolver = catalog_resolver(&fx.db, catalog);
    let fleet = history_from_scan(&scan, Some(&resolver as &dyn HistoryResolver));
    let by_estimator = fleet.accuracy_by_estimator();
    if by_estimator.is_empty() {
        fail("history scan segments no estimators");
    }
    for acc in &by_estimator {
        if acc.scored == 0 {
            fail(&format!(
                "estimator {} segmented but unscored",
                acc.estimator
            ));
        }
        let avg = acc
            .error_avg
            .as_ref()
            .unwrap_or_else(|| fail(&format!("estimator {} has no ErrorAvg", acc.estimator)));
        println!(
            "history estimator={:<8} sessions={} ErrorAvg p50={:.4}",
            acc.estimator, acc.sessions, avg.p50
        );
    }

    println!(
        "lqs_smoke ensemble: OK — {} sessions, online accuracy bit-identical to replay, \
         selections journaled and segmented",
        plans.len()
    );
}

/// The `service` scene's shape: what CI has always run. Smaller scales can
/// legitimately miss the concurrency check — queries finish before they
/// overlap.
const SESSIONS: usize = 16;
const WORKERS: usize = 4;
const POLL_EVERY: Duration = Duration::from_millis(2);
const TPCH_SCALE: WorkloadScale = WorkloadScale {
    data_scale: 0.3,
    query_limit: usize::MAX,
    seed: 42,
};

/// Submits a mixed TPC-H workload to a bounded worker pool and, while it
/// runs, polls the session registry live the way an SSMS client polls
/// `sys.dm_exec_query_profiles` (§2.2). What must be monotone is the
/// publish order; estimated progress itself *legitimately* dips when
/// cardinality refinement revises N̂ upward mid-run (the fluctuations of
/// the paper's Figure 8).
fn service(_out: Option<&str>) {
    let t = tpch::build_db(TPCH_SCALE, PhysicalDesign::RowStore);
    let plans: Vec<(String, Arc<PhysicalPlan>)> = tpch::queries(&t)
        .into_iter()
        .map(|q| (q.name, Arc::new(q.plan)))
        .collect();
    let db = Arc::new(t.db);
    println!(
        "lqs_smoke service: {SESSIONS} sessions over {} plans, {WORKERS} workers, poll every {POLL_EVERY:?}",
        plans.len(),
    );

    let service = QueryService::new(Arc::clone(&db), WORKERS);
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    );
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let (name, plan) = &plans[i % plans.len()];
            service.submit(QuerySpec::new(format!("{name}#{i}"), Arc::clone(plan)))
        })
        .collect();

    // Live poll loop: run until every session is terminal, then one final
    // poll so each session's last report reflects its final snapshot.
    let mut last_progress: Vec<Option<f64>> = vec![None; SESSIONS];
    let mut last_seq: Vec<u64> = vec![0; SESSIONS];
    let mut last_ts: Vec<u64> = vec![0; SESSIONS];
    let mut publish_order_violations = 0usize;
    loop {
        let all_done = sessions.iter().all(|s| s.state().is_terminal());
        for (i, p) in poller.poll().iter().enumerate() {
            let Some(report) = &p.report else { continue };
            // The service's hard guarantee: every poll reflects a
            // later-or-equal published snapshot, never an older one.
            let ts = p.ts_ns.unwrap_or(0);
            if p.seq < last_seq[i] || ts < last_ts[i] {
                publish_order_violations += 1;
            }
            last_seq[i] = last_seq[i].max(p.seq);
            last_ts[i] = last_ts[i].max(ts);
            last_progress[i] = Some(report.query_progress);
        }
        if all_done {
            break;
        }
        std::thread::sleep(POLL_EVERY);
    }
    // The gauge is maintained on session state transitions, so it counts
    // every overlap — sampling `Running` states per poll can miss short
    // ones on a loaded machine.
    let peak_running = service.registry().peak_running();
    service.shutdown();

    let succeeded = sessions
        .iter()
        .filter(|s| s.state() == SessionState::Succeeded)
        .count();
    let finished_at_one = last_progress
        .iter()
        .filter(|p| p.is_some_and(|v| v >= 1.0 - 1e-9))
        .count();
    println!(
        "completed {succeeded}/{SESSIONS} sessions, {finished_at_one}/{SESSIONS} ending at 100%"
    );
    println!("peak concurrent running sessions: {peak_running} (workers: {WORKERS})");
    println!("publish-order violations: {publish_order_violations}");

    if succeeded != SESSIONS {
        fail("not all sessions succeeded");
    }
    if peak_running < 4 {
        fail(&format!(
            "fewer than 4 sessions ever ran concurrently (peak {peak_running})"
        ));
    }
    if publish_order_violations > 0 {
        fail("a poll reflected an older snapshot than a previous poll");
    }
    if finished_at_one != SESSIONS {
        fail("not every session's final report reached 100%");
    }
    println!("lqs_smoke service: OK");
}
