//! Self-healing end-to-end: watchdog remediation (cancel / quarantine)
//! lands stalled sessions terminal without burning their transient-fault
//! retry budget, the journal circuit breaker degrades durability instead
//! of blocking executors, breaker-open completions recover as `Orphaned`
//! (never mis-recovered as durable successes), and overload brownout
//! sheds queue-expired sessions with an explicit reason while widening
//! the snapshot cadence of admitted ones.

use lqs_journal::{
    scan_dir, AlertKind, BreakerConfig, BreakerState, Journal, JournalConfig, JournalFaultInjector,
    SessionMeta,
};
use lqs_metrics::MetricsRegistry;
use lqs_progress::{EstimateQuality, EstimatorConfig};
use lqs_server::{
    BrownoutConfig, QueryService, QuerySpec, RecoveredOutcome, RecoveryManager, RegistryPoller,
    RemediationPolicy, ServiceMetrics, SessionDurability, SessionRegistry, SessionState, Watchdog,
    WatchdogConfig,
};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{metric_value, orders_db, scan_sort_plan, tmpdir, Gate};

/// Fails every journal append whose 0-based logical index is >= `from`
/// (index 0 is the session meta record).
struct FailFrom {
    from: u64,
}

impl JournalFaultInjector for FailFrom {
    fn append_fails(&self, _session_key: &str, nth: u64) -> bool {
        nth >= self.from
    }
}

#[test]
fn cancel_remediation_lands_terminal_without_burning_retries() {
    let dir = tmpdir("cancel");
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);

    let mreg = Arc::new(MetricsRegistry::new());
    let smetrics = ServiceMetrics::new(Arc::clone(&mreg));
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let service = QueryService::with_metrics(Arc::clone(&db), 1, smetrics).with_journal(journal);
    let mut wd = Watchdog::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
        WatchdogConfig {
            stall_sweeps: 2,
            stall_wall: Duration::ZERO,
            remediation: RemediationPolicy::Cancel {
                after_stalled_sweeps: 3,
            },
            ..WatchdogConfig::default()
        },
    )
    .with_metrics(Arc::clone(&mreg));

    let gate = Gate::new(8);
    // A retry budget the remediation must NOT consume: a watchdog cancel is
    // an operator decision, not a transient fault.
    let handle = service.submit(
        QuerySpec::new("stuck", Arc::clone(&plan))
            .with_retry_budget(3)
            .with_fault(Arc::clone(&gate) as Arc<dyn lqs_exec::FaultInjector + Send>),
    );
    while handle.state() != SessionState::Running {
        std::thread::sleep(Duration::from_millis(1));
    }

    for _ in 0..500 {
        wd.sweep();
        if wd.remediations() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        wd.remediations(),
        1,
        "watchdog must fire exactly one cancel"
    );
    assert!(
        handle.cancel_token().is_cancelled(),
        "remediation rides the session's own cancellation token"
    );

    gate.open();
    assert_eq!(handle.wait_terminal(), SessionState::Cancelled);
    // Re-sweeping after terminal must not re-fire.
    wd.sweep();
    assert_eq!(wd.remediations(), 1);

    let rendered = mreg.render();
    assert!(
        rendered.contains("lqs_watchdog_remediations_total{action=\"cancel\"} 1"),
        "remediation counter missing:\n{rendered}"
    );
    assert_eq!(
        metric_value(&rendered, "lqs_session_retries_total").unwrap_or(0.0),
        0.0,
        "a remediation cancel must not consume the transient-fault retry budget"
    );

    // The action is journaled as an alert record on the session.
    service.shutdown();
    let scan = scan_dir(&dir).expect("scan journal dir");
    let session = scan
        .sessions
        .iter()
        .find(|s| s.meta.as_ref().is_some_and(|m| m.name == "stuck"))
        .expect("journaled session");
    assert!(
        session
            .alerts
            .iter()
            .any(|a| a.kind == AlertKind::Remediated
                && a.detail
                    .contains("cancel after 3 consecutive stalled sweeps")),
        "alerts: {:?}",
        session.alerts
    );
}

#[test]
fn quarantine_remediation_flags_session_and_degrades_reports() {
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);

    let mreg = Arc::new(MetricsRegistry::new());
    let service = QueryService::new(Arc::clone(&db), 1);
    let mut wd = Watchdog::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
        WatchdogConfig {
            stall_sweeps: 1,
            stall_wall: Duration::ZERO,
            remediation: RemediationPolicy::Quarantine {
                after_stalled_sweeps: 2,
            },
            ..WatchdogConfig::default()
        },
    )
    .with_metrics(Arc::clone(&mreg));
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    );

    // Let some I/O pass before the stall so snapshots may publish and give
    // the poller a report to downgrade (tolerated as absent below).
    let gate = Gate::new(16);
    let handle = service.submit(
        QuerySpec::new("suspect", Arc::clone(&plan))
            .with_fault(Arc::clone(&gate) as Arc<dyn lqs_exec::FaultInjector + Send>),
    );
    while handle.state() != SessionState::Running {
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..500 {
        wd.sweep();
        if wd.remediations() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(wd.remediations(), 1);
    assert!(handle.is_quarantined(), "quarantine must flag the handle");
    assert!(mreg
        .render()
        .contains("lqs_watchdog_remediations_total{action=\"quarantine\"} 1"));

    gate.open();
    assert_eq!(handle.wait_terminal(), SessionState::Cancelled);
    // A quarantined session's telemetry is suspect: whatever the poller
    // still serves for it is capped at Degraded.
    let p = poller.poll_session(&handle);
    if let Some(report) = p.report {
        assert_eq!(report.quality, EstimateQuality::Degraded);
    }
    service.wait_all();
}

#[test]
fn breaker_open_completion_recovers_as_orphaned_never_durable() {
    let dir = tmpdir("breaker-recovery");
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);

    {
        // Disk dies right after the meta record: the breaker trips on the
        // first data append and stays open (probe window far away), so the
        // run completes in memory with zero journaled snapshots and no
        // terminal record.
        let journal = Journal::open(
            JournalConfig::new(&dir)
                .with_write_fault(Arc::new(FailFrom { from: 1 }))
                .with_breaker(BreakerConfig {
                    trip_after: 1,
                    probe_after: Duration::from_secs(3600),
                }),
        )
        .expect("open journal");
        let service = QueryService::new(Arc::clone(&db), 1).with_journal(journal);
        let breaker = Arc::clone(service.journal().expect("journal attached").breaker());

        let handle = service.submit(QuerySpec::new("undurable", Arc::clone(&plan)));
        assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(
            handle.durability(),
            SessionDurability::Lost,
            "records were dropped, the handle must say so"
        );
        // Even an orderly shutdown cannot stamp the clean-shutdown
        // sentinel through an open breaker.
        service.shutdown();
    }

    let registry = Arc::new(SessionRegistry::new());
    let resolve_plan = Arc::clone(&plan);
    let report = RecoveryManager::new(move |meta: &SessionMeta| {
        (meta.name == "undurable").then(|| Arc::clone(&resolve_plan))
    })
    .recover(&dir, &registry)
    .expect("recovery scan");

    let summary = report
        .sessions
        .iter()
        .find(|s| s.name == "undurable")
        .expect("session present in recovery report");
    assert_eq!(
        summary.outcome,
        RecoveredOutcome::Orphaned,
        "a breaker-open completion has no durable terminal record and must \
         come back Orphaned, not as a durable success"
    );
    assert!(!summary.clean_shutdown);
    let handle = registry
        .sessions()
        .into_iter()
        .find(|h| h.name() == "undurable")
        .expect("recovered handle");
    assert_eq!(handle.state(), SessionState::Orphaned);
}

#[test]
fn brownout_sheds_expired_queue_waits_with_reason() {
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);

    let mreg = Arc::new(MetricsRegistry::new());
    let smetrics = ServiceMetrics::new(Arc::clone(&mreg));
    // A zero queue-wait deadline sheds every session at dequeue — the
    // deterministic extreme of "shed with a reason instead of run to
    // certain deadline failure".
    let service =
        QueryService::with_metrics(Arc::clone(&db), 1, smetrics).with_brownout(BrownoutConfig {
            queue_high: usize::MAX,
            queue_deadline: Some(Duration::ZERO),
            ..BrownoutConfig::default()
        });

    let handles: Vec<_> = (0..3)
        .map(|i| service.submit(QuerySpec::new(format!("shed-{i}"), Arc::clone(&plan))))
        .collect();
    service.wait_all();
    for h in &handles {
        assert_eq!(h.state(), SessionState::Rejected);
        let reason = h.reject_reason().expect("shed sessions carry a reason");
        assert!(
            reason.contains("queue-wait deadline exceeded"),
            "reason: {reason}"
        );
    }
    let rendered = mreg.render();
    assert!(
        rendered.contains("lqs_sessions_shed_total{reason=\"queue_deadline\"} 3"),
        "shed counter missing:\n{rendered}"
    );
    assert_eq!(
        metric_value(&rendered, "lqs_sessions_rejected_total").unwrap_or(0.0),
        0.0,
        "brownout sheds are not admission-queue rejections"
    );
}

/// A session shed with a reason keeps it across a restart: the reason is
/// journaled on the terminal record, and recovery reads it back.
#[test]
fn recovery_restores_a_shed_sessions_reason() {
    let dir = tmpdir("shed-reason");
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let service = QueryService::new(Arc::clone(&db), 1)
        .with_journal(journal)
        .with_brownout(BrownoutConfig {
            queue_high: usize::MAX,
            queue_deadline: Some(Duration::ZERO),
            ..BrownoutConfig::default()
        });
    let handles: Vec<_> = (0..3)
        .map(|i| service.submit(QuerySpec::new(format!("shed-{i}"), Arc::clone(&plan))))
        .collect();
    service.wait_all();
    let shed: Vec<(String, String)> = handles
        .iter()
        .map(|h| {
            let reason = h.reject_reason().expect("shed sessions carry a reason");
            (h.name().to_owned(), reason.to_string())
        })
        .collect();
    service.shutdown();

    let registry = SessionRegistry::new();
    let resolve_plan = Arc::clone(&plan);
    let report = RecoveryManager::new(move |_: &SessionMeta| Some(Arc::clone(&resolve_plan)))
        .recover(&dir, &registry)
        .expect("recovery scan");
    assert_eq!(report.restored(), shed.len());
    for (name, reason) in &shed {
        let h = (registry.sessions().into_iter())
            .find(|h| h.name() == name)
            .expect("recovered handle");
        assert_eq!(h.state(), SessionState::Rejected);
        assert_eq!(
            h.reject_reason().map(|r| r.to_string()).as_ref(),
            Some(reason),
            "{name}: the journaled reason must survive recovery"
        );
    }
}

#[test]
fn brownout_widens_snapshot_cadence_under_sustained_overload() {
    let db = Arc::new(orders_db(6000));
    let plan = scan_sort_plan(&db);

    let mreg = Arc::new(MetricsRegistry::new());
    let smetrics = ServiceMetrics::new(Arc::clone(&mreg));
    // queue_high 0 marks every submission as overloaded; sustain 2 needs
    // two in a row before the brownout engages.
    let service =
        QueryService::with_metrics(Arc::clone(&db), 1, smetrics).with_brownout(BrownoutConfig {
            queue_high: 0,
            sustain: 2,
            widen_factor: 4,
            queue_deadline: None,
        });

    let opts = lqs_exec::ExecOptions {
        snapshot_interval_ns: Some(1_000),
        ..Default::default()
    };
    let first =
        service.submit(QuerySpec::new("pre-brownout", Arc::clone(&plan)).with_opts(opts.clone()));
    assert_eq!(
        first.opts().snapshot_interval_ns,
        Some(1_000),
        "below the sustain threshold nothing is widened"
    );
    assert!(!service.brownout_active());
    let second =
        service.submit(QuerySpec::new("browned-out", Arc::clone(&plan)).with_opts(opts.clone()));
    assert!(service.brownout_active());
    assert_eq!(
        second.opts().snapshot_interval_ns,
        Some(4_000),
        "sustained overload widens the publish interval by the factor"
    );
    let rendered = mreg.render();
    assert!(rendered.contains("lqs_brownout_active 1"));
    assert!(rendered.contains("lqs_brownout_sessions_total 1"));
    service.wait_all();
    assert_eq!(first.state(), SessionState::Succeeded);
    assert_eq!(second.state(), SessionState::Succeeded);
}
