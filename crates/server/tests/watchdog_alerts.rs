//! Deterministic watchdog classification: a chaos-injected stalled
//! session and a divergence-mangled session each raise exactly the right
//! `/alerts` entry, the alert is journaled, and recovery clears when the
//! session finishes.
//!
//! Determinism contract: classification depends only on sweep counts and
//! the published snapshot sequence (the tests zero / inflate the wall
//! windows), so the same injected chaos always yields the same alerts.

use lqs_exec::{DmvSnapshot, ExecOptions, SnapshotFilter};
use lqs_journal::{scan_dir, AlertKind, Journal, JournalConfig};
use lqs_metrics::MetricsRegistry;
use lqs_plan::NodeId;
use lqs_progress::EstimatorConfig;
use lqs_server::{
    Health, MetricsServer, QueryService, QuerySpec, ServerConfig, SessionState, Watchdog,
    WatchdogConfig,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::{
    body_of, http_get, metric_value, orders_db, scan_sort_plan, sweep_until_raised, tmpdir, Gate,
};

/// Telemetry mangler: every mid-run snapshot claims the scan is fully
/// done and everything downstream has produced nothing — the counters a
/// buggy publisher (or a wildly mis-costed plan) would show. The
/// work-weighted estimate and the raw observed-rows fraction then tell
/// different stories sweep after sweep.
struct Mangler {
    scan_node: usize,
    scan_rows: u64,
}

impl SnapshotFilter for Mangler {
    fn filter(&self, snapshot: &DmvSnapshot) -> Vec<DmvSnapshot> {
        let mut m = snapshot.clone();
        for (i, n) in m.nodes.iter_mut().enumerate() {
            if i == self.scan_node {
                n.rows_output = self.scan_rows;
            } else {
                n.rows_output = 0;
                n.rows_input = 0;
            }
        }
        vec![m]
    }
}

#[test]
fn stalled_session_raises_one_journaled_alert_and_clears_on_finish() {
    let dir = tmpdir("stalled");
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);

    let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let service = QueryService::new(Arc::clone(&db), 1).with_journal(journal);
    let metrics = Arc::new(MetricsRegistry::new());
    let mut wd = Watchdog::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
        WatchdogConfig {
            stall_sweeps: 3,
            stall_wall: Duration::ZERO,
            ..WatchdogConfig::default()
        },
    )
    .with_metrics(Arc::clone(&metrics));

    // Gate on the very first page: the session blocks before it can
    // publish a single snapshot.
    let gate = Gate::new(0);
    let handle = service
        .submit(QuerySpec::new("wedged", Arc::clone(&plan)).with_fault(Arc::clone(&gate) as _));
    while handle.state() != SessionState::Running {
        std::thread::sleep(Duration::from_millis(1));
    }

    let raised = sweep_until_raised(&mut wd, 200);
    assert_eq!(raised.len(), 1, "exactly one alert per stall episode");
    assert_eq!(raised[0].kind, AlertKind::Stalled);
    assert_eq!(raised[0].id, handle.id());
    assert_eq!(raised[0].seq, 0, "stalled before the first publish");
    assert_eq!(wd.health(handle.id()), Some(Health::Stalled));
    assert_eq!(wd.alerts().len(), 1);

    // Staying stalled raises nothing new.
    for _ in 0..3 {
        assert!(wd.sweep().is_empty());
    }
    let rendered = metrics.render();
    assert!(
        rendered.contains("lqs_watchdog_alerts_total{kind=\"stalled\"} 1"),
        "metric missing from:\n{rendered}"
    );

    // Release the gate; the session finishes and the live alert clears.
    gate.open();
    assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
    wd.sweep();
    assert!(wd.alerts().is_empty());
    assert_eq!(wd.health(handle.id()), None);

    // The alert is durable: the journal scan surfaces it post-mortem.
    service.shutdown();
    let scan = scan_dir(&dir).expect("scan journal dir");
    let session = scan
        .sessions
        .iter()
        .find(|s| s.meta.as_ref().is_some_and(|m| m.name == "wedged"))
        .expect("journaled session");
    assert_eq!(session.alerts.len(), 1);
    assert_eq!(session.alerts[0].kind, AlertKind::Stalled);
    assert_eq!(session.alerts[0].seq, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn divergence_mangled_session_raises_diverging_alert() {
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);
    let scan = NodeId(0);

    let service = QueryService::new(Arc::clone(&db), 1);
    let metrics = Arc::new(MetricsRegistry::new());
    let mut wd = Watchdog::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
        WatchdogConfig {
            // Never stall-classify: this session's sequence freezes at the
            // gate too, and stalled would take priority.
            stall_sweeps: u64::MAX,
            stall_wall: Duration::ZERO,
            divergence_band: 0.15,
            ..WatchdogConfig::default()
        },
    )
    .with_metrics(Arc::clone(&metrics));

    // Let some I/O through first so mangled snapshots actually publish,
    // then hold the session mid-scan while the watchdog inspects them.
    // The 6000-row table packs into 18 pages (24-byte rows, 8 KiB pages),
    // so the gate must sit well below that or it never engages and the
    // session races to completion under the sweeper.
    let gate = Gate::new(8);
    let opts = ExecOptions {
        snapshot_interval_ns: Some(1),
        ..Default::default()
    };
    let handle = service.submit(
        QuerySpec::new("gaslit", Arc::clone(&plan))
            .with_opts(opts)
            .with_fault(Arc::clone(&gate) as _)
            .with_snapshot_filter(Arc::new(Mangler {
                scan_node: scan.0,
                scan_rows: 6000,
            })),
    );
    while handle.published_seq() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let raised = sweep_until_raised(&mut wd, 200);
    assert_eq!(raised.len(), 1, "exactly one alert per divergence episode");
    assert_eq!(raised[0].kind, AlertKind::Diverging);
    assert_eq!(raised[0].id, handle.id());
    assert!(raised[0].detail.contains("estimated progress"));
    assert_eq!(wd.health(handle.id()), Some(Health::Diverging));
    assert!(metrics
        .render()
        .contains("lqs_watchdog_alerts_total{kind=\"diverging\"} 1"));

    gate.open();
    assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
    wd.sweep();
    assert!(wd.alerts().is_empty());
}

#[test]
fn healthy_sessions_never_alert() {
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);
    let service = QueryService::new(Arc::clone(&db), 1);
    let mut wd = Watchdog::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
        WatchdogConfig {
            // Generous stall window: a healthy run on a loaded CI box may
            // legitimately publish slower than we sweep.
            stall_sweeps: u64::MAX,
            ..WatchdogConfig::default()
        },
    );
    let handle = service.submit(QuerySpec::new("fine", Arc::clone(&plan)));
    while !handle.state().is_terminal() {
        assert!(wd.sweep().is_empty());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(handle.state(), SessionState::Succeeded);
    wd.sweep();
    assert!(wd.alerts().is_empty());
    assert!(wd.sweeps() >= 1);
}

/// A sweep that panics with the shared watchdog locked costs `/alerts` a
/// 500 that says why — an answer, not a panicking handler — and every
/// other route keeps answering.
#[test]
fn a_poisoned_watchdog_answers_alerts_with_a_500() {
    let db = Arc::new(orders_db(10));
    let service = QueryService::new(Arc::clone(&db), 1);
    let wd = Arc::new(Mutex::new(Watchdog::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
        WatchdogConfig::default(),
    )));
    let metrics = Arc::new(MetricsRegistry::new());
    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&metrics),
        Arc::clone(service.registry()),
        ServerConfig {
            watchdog: Some(Arc::clone(&wd)),
            ..ServerConfig::default()
        },
    )
    .expect("bind metrics server");
    assert!(http_get(server.addr(), "/alerts").starts_with("HTTP/1.1 200"));

    let poisoner = Arc::clone(&wd);
    let panicked = std::thread::spawn(move || {
        let _held = poisoner.lock().unwrap();
        panic!("poison the watchdog");
    })
    .join();
    assert!(panicked.is_err() && wd.is_poisoned());

    let alerts = http_get(server.addr(), "/alerts");
    assert!(alerts.starts_with("HTTP/1.1 500"), "{alerts}");
    assert_eq!(body_of(&alerts), "watchdog poisoned\n");
    assert!(http_get(server.addr(), "/healthz").starts_with("HTTP/1.1 200"));
    let rendered = metrics.render();
    assert_eq!(
        metric_value(&rendered, "lqs_http_handler_panics_total"),
        Some(0.0)
    );
    server.stop();
}
