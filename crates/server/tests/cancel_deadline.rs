//! Session cancellation and virtual-time deadlines through the service:
//! aborts land at a clock tick, keep an honest partial trace, and never
//! disturb unrelated sessions.

use lqs_exec::{execute, AbortReason, ExecOptions};
use lqs_server::{QueryService, QuerySpec, SessionResult, SessionState};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;
use common::{orders_db, scan_sort_plan};

#[test]
fn cancel_before_start_aborts_without_running() {
    let db = Arc::new(orders_db(60_000));
    let plan = scan_sort_plan(&db);
    // Zero workers is clamped to one, but the session is cancelled before
    // the worker can dequeue it by cancelling synchronously on a service
    // whose single worker is busy with an earlier long query.
    let service = QueryService::new(Arc::clone(&db), 1);
    let _busy = service.submit(QuerySpec::new("busy", Arc::clone(&plan)));
    let victim = service.submit(QuerySpec::new("victim", Arc::clone(&plan)));
    victim.cancel();
    assert_eq!(victim.wait_terminal(), SessionState::Cancelled);
    let Some(SessionResult::Aborted(aborted)) = victim.result() else {
        panic!("cancelled session must leave an aborted result");
    };
    assert_eq!(aborted.reason, AbortReason::Cancelled);
    service.shutdown();
}

#[test]
fn cancel_mid_run_keeps_partial_trace() {
    let db = Arc::new(orders_db(60_000));
    let plan = scan_sort_plan(&db);
    let opts = ExecOptions {
        snapshot_target: 256,
        ..Default::default()
    };
    let full = execute(&db, &plan, &opts);

    let service = QueryService::new(Arc::clone(&db), 1);
    let session = service.submit(QuerySpec::new("doomed", Arc::clone(&plan)).with_opts(opts));
    // Wait until the run has demonstrably started publishing, then cancel.
    let start = Instant::now();
    while session.published_seq() == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "session never published a snapshot"
        );
        std::thread::yield_now();
    }
    session.cancel();
    assert_eq!(session.wait_terminal(), SessionState::Cancelled);

    let Some(SessionResult::Aborted(aborted)) = session.result() else {
        panic!("expected an aborted result");
    };
    assert_eq!(aborted.reason, AbortReason::Cancelled);
    // The abort tick is on the virtual clock, strictly before completion.
    assert!(aborted.at_ns > 0);
    assert!(aborted.at_ns < full.duration_ns);
    // The partial trace is a prefix of the deterministic full trace.
    assert!(!aborted.snapshots.is_empty());
    assert!(aborted.snapshots.len() < full.snapshots.len());
    for (partial, reference) in aborted.snapshots.iter().zip(&full.snapshots) {
        assert_eq!(partial, reference, "partial trace diverged from full run");
    }
    // The published latest snapshot reflects the abort tick.
    let latest = session.latest_snapshot().expect("published at least once");
    assert_eq!(latest.ts_ns, aborted.at_ns);
    assert_eq!(latest.nodes, aborted.partial_counters);
    service.shutdown();
}

#[test]
fn deadline_aborts_on_the_virtual_clock() {
    let db = Arc::new(orders_db(60_000));
    let plan = scan_sort_plan(&db);
    let opts = ExecOptions::default();
    let full = execute(&db, &plan, &opts);
    let deadline = full.duration_ns / 2;

    let service = QueryService::new(Arc::clone(&db), 1);
    let session = service.submit(
        QuerySpec::new("budgeted", Arc::clone(&plan))
            .with_opts(opts)
            .with_deadline_ns(deadline),
    );
    assert_eq!(session.wait_terminal(), SessionState::DeadlineExceeded);
    let Some(SessionResult::Aborted(aborted)) = session.result() else {
        panic!("expected an aborted result");
    };
    assert_eq!(aborted.reason, AbortReason::DeadlineExceeded);
    // Deterministic: the abort lands at the first clock tick >= deadline,
    // regardless of scheduling.
    assert!(aborted.at_ns >= deadline);
    assert!(aborted.at_ns < full.duration_ns);
    service.shutdown();
}

#[test]
fn aborting_one_session_leaves_others_untouched() {
    let db = Arc::new(orders_db(60_000));
    let plan = scan_sort_plan(&db);
    let opts = ExecOptions::default();
    let full = execute(&db, &plan, &opts);

    let service = QueryService::new(Arc::clone(&db), 4);
    let doomed = service.submit(
        QuerySpec::new("doomed", Arc::clone(&plan))
            .with_opts(opts.clone())
            .with_deadline_ns(full.duration_ns / 4),
    );
    let survivors: Vec<_> = (0..3)
        .map(|i| {
            service.submit(
                QuerySpec::new(format!("ok#{i}"), Arc::clone(&plan)).with_opts(opts.clone()),
            )
        })
        .collect();
    service.wait_all();

    assert_eq!(doomed.state(), SessionState::DeadlineExceeded);
    for session in &survivors {
        assert_eq!(
            session.state(),
            SessionState::Succeeded,
            "{}",
            session.name()
        );
        let Some(SessionResult::Completed(run)) = session.result() else {
            panic!("{} must complete", session.name());
        };
        assert_eq!(run.snapshots, full.snapshots);
        assert_eq!(run.final_counters, full.final_counters);
    }
    service.shutdown();
}
