//! Failure-path regressions: a session cancelled while still queued must
//! stay pollable, a malformed published snapshot must not panic the poller,
//! a genuine execution panic must fail only its own session — the worker,
//! later sessions, and shutdown all survive — and a fault-injected session
//! runs (and retries) on the same batch path as a clean one.

use lqs_exec::{AbortReason, FaultInjector, IoVerdict, SnapshotPublisher};
use lqs_journal::{scan_dir, Journal, JournalConfig, JournalExecMode};
use lqs_metrics::MetricsRegistry;
use lqs_progress::EstimatorConfig;
use lqs_server::{
    QueryService, QuerySpec, RegistryPoller, ServiceMetrics, SessionResult, SessionState,
};
use lqs_storage::{Column, DataType, Schema, Table};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::{orders_db, scan_sort_plan};

/// Regression: cancelling a still-queued session used to publish a snapshot
/// with *empty* per-node counters; the next registry poll then indexed the
/// snapshot by every plan node and panicked out of bounds.
#[test]
fn cancel_while_queued_session_is_pollable() {
    let db = Arc::new(orders_db(60_000));
    let plan = scan_sort_plan(&db);

    let service = QueryService::new(Arc::clone(&db), 1);
    let busy = service.submit(QuerySpec::new("busy", Arc::clone(&plan)));
    let victim = service.submit(QuerySpec::new("victim", Arc::clone(&plan)));
    victim.cancel();
    assert_eq!(victim.wait_terminal(), SessionState::Cancelled);

    // The published abort snapshot is well-formed: one (all-zero) counter
    // row per plan node at virtual time 0.
    let latest = victim.latest_snapshot().expect("abort publishes once");
    assert_eq!(latest.ts_ns, 0);
    assert_eq!(latest.nodes.len(), plan.len());
    assert!(latest.nodes.iter().all(|c| c.rows_output == 0));
    let Some(SessionResult::Aborted(aborted)) = victim.result() else {
        panic!("cancelled session must leave an aborted result");
    };
    assert_eq!(aborted.reason, AbortReason::Cancelled);
    assert_eq!(aborted.partial_counters.len(), plan.len());

    // Polling the cancelled session must not panic and reports zero
    // progress for a run that never started.
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    );
    let progress = poller.poll();
    let victim_progress = progress
        .iter()
        .find(|p| p.id == victim.id())
        .expect("victim listed");
    assert_eq!(victim_progress.state, SessionState::Cancelled);
    assert_eq!(victim_progress.ts_ns, Some(0));
    let report = victim_progress.report.as_ref().expect("snapshot published");
    assert!(report.query_progress.abs() < 1e-9);

    busy.wait_terminal();
    service.shutdown();
}

/// A snapshot whose node count does not match the plan (only possible from
/// a buggy publisher) is treated as "nothing published", not a panic.
#[test]
fn mismatched_snapshot_yields_no_report() {
    let db = Arc::new(orders_db(60_000));
    let plan = scan_sort_plan(&db);

    let service = QueryService::new(Arc::clone(&db), 1);
    let _busy = service.submit(QuerySpec::new("busy", Arc::clone(&plan)));
    // Still queued behind `busy`, so nothing races our bogus publish.
    let target = service.submit(QuerySpec::new("target", Arc::clone(&plan)));
    target.publish(&lqs_exec::DmvSnapshot {
        ts_ns: 7,
        nodes: Vec::new(), // wrong: plan has `plan.len()` nodes
    });

    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    );
    let progress = poller.poll_session(&target);
    assert!(progress.report.is_none());
    assert!(progress.ts_ns.is_none());

    target.cancel();
    service.wait_all();
    service.shutdown();
}

/// Regression: a genuine (non-abort) panic during execution used to unwind
/// out of the worker thread, leaving the session `Running` forever (so
/// `wait_terminal` hung) and turning shutdown's `join()` into a
/// double-panic abort inside `Drop`. It must instead fail that session
/// alone, keep the worker serving later sessions, and shut down cleanly.
#[test]
fn execution_panic_fails_session_and_spares_the_worker() {
    let served_db = Arc::new(orders_db(2_000));
    // A plan compiled against a *different* catalog: its TableId is out of
    // range for `served_db`, so executing it panics (the stand-in for any
    // genuine execution bug).
    let other_db = {
        let mut db = orders_db(2_000);
        db.add_table_analyzed(Table::new(
            "extra",
            Schema::new(vec![Column::new("x", DataType::Int)]),
        ));
        db
    };
    let extra = other_db.table_by_name("extra").unwrap();
    let poisoned_plan = {
        let mut b = lqs_plan::PlanBuilder::new(&other_db);
        let scan = b.table_scan(extra);
        Arc::new(b.finish(scan))
    };

    let service = QueryService::new(Arc::clone(&served_db), 1);
    let poisoned = service.submit(QuerySpec::new("poisoned", poisoned_plan));
    assert_eq!(poisoned.wait_terminal(), SessionState::Failed);
    let Some(SessionResult::Failed(message)) = poisoned.result() else {
        panic!("panicked session must record a Failed result");
    };
    assert!(!message.is_empty());

    // The same worker thread is still alive and serves the next session.
    let good = service.submit(QuerySpec::new("good", scan_sort_plan(&served_db)));
    assert_eq!(good.wait_terminal(), SessionState::Succeeded);

    // No panic out of shutdown (this also exercises the Drop path's join).
    service.shutdown();
}

/// Fails the first read that reaches page 20 of any node with a transient
/// error, once: the retry's reads all succeed.
struct FailOnce(AtomicBool);

impl FaultInjector for FailOnce {
    fn on_io(&self, _node: lqs_plan::NodeId, total_pages: u64, _now_ns: u64) -> IoVerdict {
        if total_pages >= 20 && !self.0.swap(true, Ordering::Relaxed) {
            return IoVerdict::Error {
                message: "injected transient read error".into(),
                transient: true,
            };
        }
        IoVerdict::Ok
    }
}

/// A fault injector used to drop the session to the tuple loop, where
/// batch-path scopes never consulted `on_io`. Now the default-mode
/// session stays on the batch path: the injected error fires there, is
/// retried within budget, and the journal records `exec_mode = batch`.
#[test]
fn fault_injected_session_runs_and_retries_on_the_batch_path() {
    let dir = std::env::temp_dir().join(format!("lqs-failure-paths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(orders_db(20_000));
    let plan = scan_sort_plan(&db);
    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::with_metrics(
        Arc::clone(&db),
        1,
        ServiceMetrics::new(Arc::clone(&registry)),
    )
    .with_journal(Journal::open(JournalConfig::new(&dir)).expect("open journal"));

    let injector = Arc::new(FailOnce(AtomicBool::new(false)));
    let faulted = service.submit(
        QuerySpec::new("faulted", plan)
            .with_fault(Arc::clone(&injector) as Arc<dyn FaultInjector + Send>)
            .with_retry_budget(1),
    );
    assert_eq!(faulted.wait_terminal(), SessionState::Succeeded);
    assert!(injector.0.load(Ordering::Relaxed), "the fault never fired");
    service.shutdown();

    let rendered = registry.render();
    assert!(
        rendered.contains("lqs_session_retries_total 1"),
        "{rendered}"
    );
    assert!(!rendered.contains("_fallback_total"), "{rendered}");
    let scan = scan_dir(&dir).expect("scan journal");
    let meta = scan.sessions[0].meta.as_ref().expect("meta journaled");
    assert_eq!(meta.exec_mode, JournalExecMode::Batch);
    let _ = std::fs::remove_dir_all(&dir);
}
