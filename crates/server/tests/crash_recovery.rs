//! Crash recovery end-to-end: a journaled service is killed, a fresh
//! incarnation rebuilds its registry from the journal directory, and
//! pollers re-attach.
//!
//! The acceptance bar: a `Succeeded` session recovered from the journal is
//! indistinguishable from the uninterrupted original — same result, and
//! the re-attached poller's final report is **bit-identical**. A session
//! whose journal writer died mid-run comes back `Orphaned`, serving its
//! last journaled snapshot at `Degraded` quality. A clean shutdown stamps
//! every journal, so a restart recovers zero orphans.

use lqs_journal::{Journal, JournalConfig, JournalMetrics, SessionMeta, WriteCrashPoint};
use lqs_metrics::MetricsRegistry;
use lqs_plan::PhysicalPlan;
use lqs_progress::{EstimateQuality, EstimatorConfig, ProgressReport};
use lqs_server::{
    MetricsServer, QueryService, QuerySpec, RecoveredOutcome, RecoveryManager, RegistryPoller,
    ServerConfig, SessionRegistry, SessionResult, SessionState,
};
use lqs_storage::{Database, TableId};
use std::path::Path;
use std::sync::Arc;

mod common;
use common::{body_of, http_get, mixed_db, mixed_plans, tmpdir};

/// The first two [`mixed_plans`] shapes, under the names they journal as.
fn plans(db: &Database, t: TableId) -> Vec<(String, Arc<PhysicalPlan>)> {
    ["scan-sort", "hash-agg"]
        .into_iter()
        .map(str::to_string)
        .zip(mixed_plans(db, t))
        .collect()
}

fn resolver(
    plans: Vec<(String, Arc<PhysicalPlan>)>,
) -> impl Fn(&SessionMeta) -> Option<Arc<PhysicalPlan>> {
    move |meta: &SessionMeta| {
        plans
            .iter()
            .find(|(n, _)| *n == meta.name)
            .map(|(_, p)| Arc::clone(p))
    }
}

/// The progress bit-patterns a poller serves for a terminal session.
fn report_bits(r: &ProgressReport) -> Vec<u64> {
    let mut bits = vec![r.query_progress.to_bits()];
    bits.extend(r.nodes.iter().map(|n| n.progress.to_bits()));
    bits
}

/// Kill exactly the session named `name` once its journal passes `at`
/// bytes; everyone else journals normally.
struct CrashNamed {
    name: &'static str,
    at: u64,
}

impl WriteCrashPoint for CrashNamed {
    fn crash_after_bytes(&self, session_key: &str) -> Option<u64> {
        (session_key == self.name).then_some(self.at)
    }
}

#[test]
fn recovered_succeeded_session_replays_bit_identically() {
    let dir = tmpdir("bitident");
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = plans(&db, t);

    // First incarnation: run both queries journaled, record what the
    // attached poller serves as each session's final report. The process
    // then "dies" — no shutdown call; the terminal records are already
    // durable, only clean-shutdown sentinels go missing.
    let mut baseline: Vec<(String, SessionResult, Vec<u64>)> = Vec::new();
    {
        let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
        let service = QueryService::new(Arc::clone(&db), 2).with_journal(journal);
        let mut poller = RegistryPoller::new(
            Arc::clone(&db),
            Arc::clone(service.registry()),
            EstimatorConfig::full(),
        );
        let handles: Vec<_> = plans
            .iter()
            .map(|(name, plan)| service.submit(QuerySpec::new(name.clone(), Arc::clone(plan))))
            .collect();
        service.wait_all();
        for h in &handles {
            assert_eq!(h.state(), SessionState::Succeeded);
            let p = poller.poll_session(h);
            let report = p.report.expect("terminal session serves a report");
            baseline.push((
                h.name().to_string(),
                h.result().expect("terminal session has a result"),
                report_bits(&report),
            ));
        }
        std::mem::drop(handles);
        // Simulated death: forget the service so neither `shutdown` nor
        // `Drop` runs the durability epilogue.
        std::mem::forget(service);
    }

    // Second incarnation: rebuild the registry from the journal.
    let registry = Arc::new(SessionRegistry::new());
    let report = RecoveryManager::new(resolver(plans.clone()))
        .recover(&dir, &registry)
        .expect("recovery scan");
    assert_eq!(report.sessions.len(), 2);
    assert_eq!(report.restored(), 2, "sessions: {:?}", report.sessions);
    assert_eq!(report.corrupt_records, 0);
    for s in &report.sessions {
        assert!(
            !s.clean_shutdown,
            "no sentinel was written, journals must not claim a clean shutdown"
        );
    }

    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(&registry),
        EstimatorConfig::full(),
    );
    for (name, original_result, original_bits) in &baseline {
        let handle = registry
            .sessions()
            .into_iter()
            .find(|h| h.name() == name)
            .expect("recovered session is registered");
        assert!(handle.recovered());
        assert_eq!(handle.state(), SessionState::Succeeded);
        let (SessionResult::Completed(original), Some(SessionResult::Completed(recovered))) =
            (original_result, handle.result())
        else {
            panic!("{name}: expected Completed results on both sides");
        };
        assert_eq!(original.snapshots, recovered.snapshots, "{name}: trace");
        assert_eq!(
            original.final_counters, recovered.final_counters,
            "{name}: final counters"
        );
        assert_eq!(original.duration_ns, recovered.duration_ns);
        assert_eq!(original.rows_returned, recovered.rows_returned);

        let p = poller.poll_session(&handle);
        let report = p.report.expect("recovered session serves a report");
        assert_eq!(
            &report_bits(&report),
            original_bits,
            "{name}: re-attached poller must serve a bit-identical final report"
        );
        assert!(report.query_progress >= 1.0 - 1e-9);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Run `plans` under a journal in `dir` whose "scan-sort" writer dies
/// 700 bytes in, so recovery finds one orphan and one restored session.
fn journal_with_one_crash(dir: &Path, db: &Arc<Database>, plans: &[(String, Arc<PhysicalPlan>)]) {
    let journal = Journal::open(JournalConfig::new(dir).with_crash(Arc::new(CrashNamed {
        name: "scan-sort",
        at: 700,
    })))
    .expect("open journal");
    let service = QueryService::new(Arc::clone(db), 2).with_journal(journal);
    for (name, plan) in plans {
        service.submit(QuerySpec::new(name.clone(), Arc::clone(plan)));
    }
    service.wait_all();
    service.shutdown();
}

#[test]
fn crashed_journal_recovers_orphaned_and_degraded() {
    let dir = tmpdir("orphan");
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = plans(&db, t);
    journal_with_one_crash(&dir, &db, &plans);

    let mreg = Arc::new(MetricsRegistry::new());
    let registry = Arc::new(SessionRegistry::new());
    let report = RecoveryManager::new(resolver(plans.clone()))
        .with_metrics(JournalMetrics::new(Arc::clone(&mreg)))
        .recover(&dir, &registry)
        .expect("recovery scan");
    assert_eq!(report.sessions.len(), 2);
    assert_eq!(report.orphaned(), 1, "sessions: {:?}", report.sessions);
    assert_eq!(report.restored(), 1);
    assert_eq!(report.unrecovered(), 0);
    assert!(
        report.corrupt_records >= 1,
        "the torn tail must be tallied as corruption"
    );

    let orphan = report
        .sessions
        .iter()
        .find(|s| s.outcome == RecoveredOutcome::Orphaned)
        .expect("one orphan");
    assert_eq!(orphan.name, "scan-sort");
    assert!(!orphan.clean_shutdown);
    let handle = registry
        .session(orphan.id.expect("orphan is registered"))
        .expect("orphan handle");
    assert_eq!(handle.state(), SessionState::Orphaned);
    assert!(handle.state().is_terminal());
    assert!(matches!(handle.result(), Some(SessionResult::Orphaned)));

    // The re-attached poller serves the orphan's last journaled snapshot —
    // bounded progress, explicitly degraded quality.
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(&registry),
        EstimatorConfig::full(),
    );
    let p = poller.poll_session(&handle);
    let r = p
        .report
        .expect("orphan with journaled snapshots serves a report");
    assert_eq!(r.quality, EstimateQuality::Degraded);
    assert!(r.query_progress >= 0.0 && r.query_progress <= 1.0 + 1e-9);

    // Recovery outcomes land on the labeled counter.
    let text = mreg.render();
    assert!(
        text.contains("lqs_sessions_recovered_total{outcome=\"orphaned\"} 1"),
        "exposition:\n{text}"
    );
    assert!(
        text.contains("lqs_sessions_recovered_total{outcome=\"succeeded\"} 1"),
        "exposition:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `/healthz` counts the sessions recovery registered, with nothing set
/// in the server's config.
#[test]
fn healthz_counts_what_recovery_registered() {
    let dir = tmpdir("healthz");
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = plans(&db, t);
    journal_with_one_crash(&dir, &db, &plans);

    let registry = Arc::new(SessionRegistry::new());
    let report = RecoveryManager::new(resolver(plans))
        .recover(&dir, &registry)
        .expect("recovery scan");
    assert_eq!((report.restored(), report.orphaned()), (1, 1));
    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::new(MetricsRegistry::new()),
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port");
    let health = http_get(server.addr(), "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
    let parsed = serde_json::from_str(body_of(&health)).expect("valid JSON");
    assert_eq!(
        parsed["sessions_recovered"].as_u64(),
        Some((report.restored() + report.orphaned()) as u64)
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_shutdown_recovers_zero_orphans() {
    let dir = tmpdir("clean");
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = plans(&db, t);

    {
        let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
        let service = QueryService::new(Arc::clone(&db), 2).with_journal(journal);
        for (name, plan) in &plans {
            service.submit(QuerySpec::new(name.clone(), Arc::clone(plan)));
        }
        service.wait_all();
        service.shutdown();
    }

    let registry = Arc::new(SessionRegistry::new());
    let report = RecoveryManager::new(resolver(plans.clone()))
        .recover(&dir, &registry)
        .expect("recovery scan");
    assert_eq!(report.sessions.len(), 2);
    assert_eq!(report.restored(), 2);
    assert_eq!(report.orphaned(), 0, "sessions: {:?}", report.sessions);
    assert_eq!(report.corrupt_records, 0);
    for s in &report.sessions {
        assert!(
            s.clean_shutdown,
            "orderly shutdown must stamp every journal: {s:?}"
        );
    }

    // Dropping the service (instead of calling shutdown) must reach the
    // same durable state: the Drop path runs the same epilogue once.
    let dir2 = tmpdir("clean-drop");
    {
        let journal = Journal::open(JournalConfig::new(&dir2)).expect("open journal");
        let service = QueryService::new(Arc::clone(&db), 2).with_journal(journal);
        let h = service.submit(QuerySpec::new("hash-agg", Arc::clone(&plans[1].1)));
        h.wait_terminal();
        // service dropped here
    }
    let registry2 = Arc::new(SessionRegistry::new());
    let report2 = RecoveryManager::new(resolver(plans.clone()))
        .recover(&dir2, &registry2)
        .expect("recovery scan");
    assert_eq!(report2.sessions.len(), 1);
    assert!(report2.sessions[0].clean_shutdown);
    assert_eq!(report2.orphaned(), 0);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}
