//! `lqs_profile_smoke` — end-to-end check for the batch-native profiling
//! and live-watchdog layer.
//!
//! Runs a small mixed workload through a journaled query service, then:
//!
//! * renders each completed session's per-operator time-attribution table
//!   and collapsed flamegraph stacks (virtual-clock exact: self-times sum
//!   to the run's total, checked here);
//! * wedges a chaos-gated session mid-run and drives a [`Watchdog`]
//!   through a fixed sweep schedule until it classifies the session as
//!   stalled — exactly one alert, journaled durably;
//! * serves everything over [`MetricsServer`] and scrapes
//!   `/profile/{session}` (JSON and `?format=collapsed`), `/alerts`, and
//!   `/metrics` over a raw socket, checking shapes, the explicit
//!   `available: false` answer for a still-running session, and the 404
//!   for an unknown one;
//! * scrapes every endpoint **twice** and requires byte-identical bodies —
//!   profile and alert payloads are pure functions of virtual clocks and
//!   sweep counts, never of wall time.
//!
//! Everything printed to stdout derives from virtual clocks, journal
//! bytes, and the fixed sweep schedule, so CI runs the whole binary twice
//! and diffs the output. Exits non-zero on the first violated check.
//!
//! ```text
//! lqs_profile_smoke [--out DIR]
//! ```

use lqs::exec::{FaultInjector, IoVerdict};
use lqs::journal::{scan_dir, AlertKind};
use lqs::plan::NodeId;
use lqs::prelude::*;
use lqs_bench::{fail, http_get, http_get_deterministic};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Blocks the executing worker inside an I/O charge once `after_pages`
/// cumulative logical reads have passed, until released — the stall shape
/// the watchdog must classify.
struct Gate {
    after_pages: u64,
    release: AtomicBool,
}

impl Gate {
    fn new(after_pages: u64) -> Arc<Self> {
        Arc::new(Gate {
            after_pages,
            release: AtomicBool::new(false),
        })
    }

    fn open(&self) {
        self.release.store(true, Ordering::Release);
    }
}

impl FaultInjector for Gate {
    fn on_io(&self, _node: NodeId, total_pages: u64, _now_ns: u64) -> IoVerdict {
        if total_pages > self.after_pages {
            while !self.release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        IoVerdict::Ok
    }
}

/// Fetch `/profile/{id}`, check the conservation law against the served
/// JSON, and print the locally rendered attribution table (same data — the
/// served `total_ns` must match the handle's run).
fn check_profile(addr: SocketAddr, handle: &lqs::server::SessionHandle) {
    let id = handle.id().0;
    let (status, body) = http_get_deterministic(addr, &format!("/profile/{id}"));
    if status != 200 {
        fail(&format!("GET /profile/{id} returned {status}"));
    }
    let parsed = serde_json::from_str(&body)
        .unwrap_or_else(|e| fail(&format!("/profile/{id} is not JSON: {e:?}")));
    if parsed.get("available").and_then(|v| v.as_bool()) != Some(true) {
        fail(&format!("/profile/{id} is not available: {body}"));
    }
    let total = parsed
        .get("total_ns")
        .and_then(|v| v.as_i64())
        .unwrap_or_else(|| fail(&format!("/profile/{id} has no total_ns")));
    let self_sum: i64 = parsed
        .get("nodes")
        .and_then(|n| n.as_array())
        .unwrap_or_else(|| fail(&format!("/profile/{id} has no nodes array")))
        .iter()
        .map(|n| n.get("self_ns").and_then(|v| v.as_i64()).unwrap_or(0))
        .sum();
    if self_sum != total {
        fail(&format!(
            "/profile/{id} self-times sum to {self_sum}, total is {total}"
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

    let (status, collapsed) =
        http_get_deterministic(addr, &format!("/profile/{id}?format=collapsed"));
    if status != 200 {
        fail(&format!("GET /profile/{id}?format=collapsed → {status}"));
    }
    if collapsed != report.collapsed_stacks() {
        fail(&format!("served collapsed stacks differ for session {id}"));
    }
    print!("{collapsed}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut journal_dir = PathBuf::from("target/lqs-profile-smoke-journal");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                journal_dir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}\nusage: lqs_profile_smoke [--out DIR]");
                exit(2);
            }
        }
    }
    // A fresh directory every run: journaled epochs must not depend on
    // prior runs.
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create journal dir: {e}")));

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
    let scan_agg = {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(t);
        let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
        Arc::new(b.finish(agg))
    };
    let filter_sort = {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(32i64)), true);
        let sort = b.sort(scan, vec![SortKey::desc(0)]);
        Arc::new(b.finish(sort))
    };
    let scan_sort = {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(t);
        let sort = b.sort(scan, vec![SortKey::desc(1)]);
        Arc::new(b.finish(sort))
    };
    let db = Arc::new(db);

    let registry = Arc::new(MetricsRegistry::new());
    let journal = Journal::open(JournalConfig::new(&journal_dir))
        .unwrap_or_else(|e| fail(&format!("cannot open journal: {e}")));
    let service = QueryService::with_metrics(
        Arc::clone(&db),
        1,
        ServiceMetrics::new(Arc::clone(&registry)),
    )
    .with_journal(journal);

    // Two clean sessions first: both complete and carry attribution.
    let clean = vec![
        service.submit(QuerySpec::new("scan-agg", Arc::clone(&scan_agg))),
        service.submit(QuerySpec::new("filter-sort", Arc::clone(&filter_sort))),
    ];
    service.wait_all();

    // Then the chaos arm: gate the very first page so the session wedges
    // before its first snapshot publish.
    let gate = Gate::new(0);
    let wedged = service.submit(
        QuerySpec::new("wedged-sort", Arc::clone(&scan_sort)).with_fault(Arc::clone(&gate) as _),
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
            Arc::clone(&db),
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
    {
        let wd = watchdog.lock().unwrap();
        if wd.health(wedged.id()) != Some(Health::Stalled) {
            fail("wedged session not classified Stalled after sweep 4");
        }
    }

    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Arc::clone(service.registry()),
        ServerConfig {
            history: None,
            recovered_sessions: 0,
            watchdog: Some(Arc::clone(&watchdog)),
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| fail(&format!("cannot start server: {e}")));
    let addr = server.addr();

    // Completed sessions: served profile and local attribution agree, and
    // both obey the conservation law.
    for handle in &clean {
        check_profile(addr, handle);
    }

    // The wedged session is still running: an explicit not-available
    // answer, never an empty-but-plausible profile.
    let (status, body) = http_get_deterministic(addr, &format!("/profile/{}", wedged.id().0));
    if status != 200 {
        fail(&format!("GET /profile (running) returned {status}"));
    }
    let parsed = serde_json::from_str(&body)
        .unwrap_or_else(|e| fail(&format!("running-session profile not JSON: {e:?}")));
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
    let (status, alerts_body) = http_get_deterministic(addr, "/alerts");
    if status != 200 {
        fail(&format!("GET /alerts returned {status}"));
    }
    print!("alerts while wedged: {alerts_body}");
    let parsed = serde_json::from_str(&alerts_body)
        .unwrap_or_else(|e| fail(&format!("/alerts is not JSON: {e:?}")));
    let rows = parsed
        .get("alerts")
        .and_then(|a| a.as_array())
        .unwrap_or_else(|| fail("/alerts has no alerts array"));
    if rows.len() != 1
        || rows[0].get("kind").and_then(|k| k.as_str()) != Some("stalled")
        || rows[0].get("seq").and_then(|s| s.as_i64()) != Some(0)
    {
        fail(&format!("unexpected /alerts payload: {alerts_body}"));
    }
    let (status, metrics_body) = http_get(addr, "/metrics");
    if status != 200 {
        fail(&format!("GET /metrics returned {status}"));
    }
    if !metrics_body.contains("lqs_watchdog_alerts_total{kind=\"stalled\"} 1") {
        fail("/metrics missing the stalled alert counter");
    }

    // Recovery: open the gate, let the session finish, and one more sweep
    // clears the live alert; its profile becomes available.
    gate.open();
    if wedged.wait_terminal() != SessionState::Succeeded {
        fail("wedged session did not succeed after the gate opened");
    }
    watchdog.lock().unwrap().sweep();
    let (status, cleared) = http_get_deterministic(addr, "/alerts");
    if status != 200 {
        fail(&format!("GET /alerts (cleared) returned {status}"));
    }
    print!("alerts after recovery: {cleared}");
    let parsed = serde_json::from_str(&cleared)
        .unwrap_or_else(|e| fail(&format!("cleared /alerts is not JSON: {e:?}")));
    if parsed
        .get("alerts")
        .and_then(|a| a.as_array())
        .is_none_or(|a| !a.is_empty())
    {
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
        "lqs_profile_smoke: OK — {} profiles exact, stall classified on schedule, \
         alert journaled and cleared on recovery",
        clean.len() + 1
    );
}
