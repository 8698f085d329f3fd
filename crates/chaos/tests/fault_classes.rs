//! One graceful-degradation test per injected fault class: storage I/O
//! errors (permanent and transient), operator panics and stalls, lossy
//! telemetry channels, admission-queue rejection, and flaky poll paths.
//! Every test asserts the stack degrades — it never dies: workers survive
//! panics, retries stay within budget, progress stays in [0, 1], and the
//! monitoring surface keeps answering.

use lqs_chaos::FaultPlan;
use lqs_exec::{FaultInjector, IoVerdict};
use lqs_metrics::MetricsRegistry;
use lqs_plan::{AggFunc, Aggregate, NodeId, PhysicalPlan, PlanBuilder};
use lqs_progress::EstimatorConfig;
use lqs_server::{
    PollerMetrics, QueryService, QuerySpec, RegistryPoller, SessionResult, SessionState,
};
use lqs_storage::{Column, DataType, Database, Schema, Table, Value};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A 2 000-row table and a scan → aggregate plan: enough pages for I/O
/// faults, enough rows for GetNext triggers, several snapshots.
fn fixture() -> (Arc<Database>, Arc<PhysicalPlan>) {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..2000 {
        t.insert(vec![Value::Int(i), Value::Int(i % 50)]).unwrap();
    }
    let mut db = Database::new();
    let tid = db.add_table_analyzed(t);
    let plan = {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(tid);
        let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
        b.finish(agg)
    };
    (Arc::new(db), Arc::new(plan))
}

#[test]
fn permanent_io_error_fails_session_and_pool_survives() {
    let (db, plan) = fixture();
    let service = QueryService::new(Arc::clone(&db), 2);
    let fp = FaultPlan::named("disk-dead").io_error_at(2, false);

    let h = service
        .submit(QuerySpec::new("q-io", Arc::clone(&plan)).with_fault(fp.injector().unwrap()));
    assert_eq!(h.wait_terminal(), SessionState::Failed);
    match h.result() {
        Some(SessionResult::Failed(msg)) => {
            assert!(msg.contains("injected I/O error"), "message: {msg}")
        }
        other => panic!("expected Failed result, got {other:?}"),
    }

    // The worker that caught the fault keeps serving: a clean query on the
    // same pool runs to completion.
    let h2 = service.submit(QuerySpec::new("q-clean", Arc::clone(&plan)));
    assert_eq!(h2.wait_terminal(), SessionState::Succeeded);
}

#[test]
fn transient_io_error_is_retried_within_budget() {
    let (db, plan) = fixture();
    let service = QueryService::new(Arc::clone(&db), 1);
    let registry = service.metrics().registry();
    // One transient error, budget of two retries: attempt 1 faults,
    // attempt 2 (the fault already consumed) completes.
    let fp = FaultPlan::named("disk-hiccup")
        .io_error_at(2, true)
        .with_retry_budget(2);

    let h = service.submit(
        QuerySpec::new("q-retry", Arc::clone(&plan))
            .with_fault(fp.injector().unwrap())
            .with_retry_budget(fp.retry_budget),
    );
    assert_eq!(h.wait_terminal(), SessionState::Succeeded);
    assert_eq!(
        registry.counter("lqs_session_retries_total", "", &[]).get(),
        1
    );
}

#[test]
fn transient_io_error_without_budget_fails_cleanly() {
    let (db, plan) = fixture();
    let service = QueryService::new(Arc::clone(&db), 1);
    let registry = service.metrics().registry();
    let fp = FaultPlan::named("disk-hiccup").io_error_at(2, true);

    let h = service.submit(
        QuerySpec::new("q-no-budget", Arc::clone(&plan)).with_fault(fp.injector().unwrap()),
    );
    assert_eq!(h.wait_terminal(), SessionState::Failed);
    assert_eq!(
        registry.counter("lqs_session_retries_total", "", &[]).get(),
        0
    );
}

#[test]
fn operator_panic_fails_session_and_pool_survives() {
    let (db, plan) = fixture();
    let service = QueryService::new(Arc::clone(&db), 1);
    let fp = FaultPlan::named("op-bug").panic_at(64, false);

    let h = service
        .submit(QuerySpec::new("q-panic", Arc::clone(&plan)).with_fault(fp.injector().unwrap()));
    assert_eq!(h.wait_terminal(), SessionState::Failed);
    match h.result() {
        Some(SessionResult::Failed(msg)) => {
            assert!(msg.contains("injected operator panic"), "message: {msg}")
        }
        other => panic!("expected Failed result, got {other:?}"),
    }

    // Single worker, so a survived panic is directly observable.
    let h2 = service.submit(QuerySpec::new("q-after", Arc::clone(&plan)));
    assert_eq!(h2.wait_terminal(), SessionState::Succeeded);
}

#[test]
fn operator_stall_inflates_virtual_duration_only() {
    let (db, plan) = fixture();
    let service = QueryService::new(Arc::clone(&db), 1);
    const STALL_NS: u64 = 2_000_000;

    let clean = service.submit(QuerySpec::new("q-clean", Arc::clone(&plan)));
    assert_eq!(clean.wait_terminal(), SessionState::Succeeded);
    let clean_ns = match clean.result() {
        Some(SessionResult::Completed(run)) => run.duration_ns,
        other => panic!("expected Completed, got {other:?}"),
    };

    let fp = FaultPlan::named("slow-op").stall_at(64, STALL_NS);
    let stalled = service
        .submit(QuerySpec::new("q-stall", Arc::clone(&plan)).with_fault(fp.injector().unwrap()));
    assert_eq!(stalled.wait_terminal(), SessionState::Succeeded);
    let stalled_ns = match stalled.result() {
        Some(SessionResult::Completed(run)) => run.duration_ns,
        other => panic!("expected Completed, got {other:?}"),
    };

    // The stall costs exactly its virtual time; results are unaffected.
    assert!(
        stalled_ns >= clean_ns + STALL_NS,
        "stalled {stalled_ns} ns vs clean {clean_ns} ns"
    );
}

#[test]
fn lossy_channel_still_converges_to_full_progress() {
    let (db, plan) = fixture();
    let service = QueryService::new(Arc::clone(&db), 1);
    let fp = FaultPlan::named("lossy")
        .drop_snapshots(0.3)
        .delay_snapshots(0.3, 4)
        .duplicate_snapshots(0.2)
        .reorder_snapshots(0.5)
        .reset_snapshots(0.2);

    let h = service.submit(
        QuerySpec::new("q-lossy", Arc::clone(&plan)).with_snapshot_filter(fp.filter(7).unwrap()),
    );
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    );
    // Poll concurrently with the run: every report the mangled channel
    // produces must stay a valid progress figure.
    loop {
        for p in poller.poll() {
            if let Some(r) = &p.report {
                assert!(
                    (-1e-9..=1.0 + 1e-9).contains(&r.query_progress),
                    "mid-run progress {} out of bounds",
                    r.query_progress
                );
            }
        }
        if h.state().is_terminal() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(h.wait_terminal(), SessionState::Succeeded);

    // The terminal publish bypasses the filter, so the final poll sees the
    // true final counters and the guarded estimator reports completion.
    let p = poller.poll_session(&h);
    let r = p.report.expect("final report");
    assert!(
        r.query_progress >= 1.0 - 1e-9,
        "final progress {}",
        r.query_progress
    );
}

/// Parks the single worker inside `on_io` until released — the
/// deterministic way to hold the admission queue at a known depth.
struct Gate {
    released: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            released: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl FaultInjector for Gate {
    fn on_io(&self, _node: NodeId, _total_pages: u64, _now_ns: u64) -> IoVerdict {
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.cv.wait(released).unwrap();
        }
        IoVerdict::Ok
    }
}

#[test]
fn full_admission_queue_rejects_cleanly() {
    let (db, plan) = fixture();
    let service = QueryService::new(Arc::clone(&db), 1).with_admission_limit(2);
    let registry = service.metrics().registry();

    let gate = Arc::new(Gate::new());
    let blocker = service
        .submit(QuerySpec::new("blocker", Arc::clone(&plan)).with_fault(Arc::clone(&gate) as _));
    // Wait until the worker has dequeued the blocker (and parked in the
    // gate) so the queue depth below is exact.
    while blocker.state() == SessionState::Queued {
        std::thread::sleep(Duration::from_millis(1));
    }

    let queued: Vec<_> = (0..2)
        .map(|i| service.submit(QuerySpec::new(format!("q{i}"), Arc::clone(&plan))))
        .collect();
    let shed: Vec<_> = (0..2)
        .map(|i| service.submit(QuerySpec::new(format!("s{i}"), Arc::clone(&plan))))
        .collect();
    for h in &shed {
        assert_eq!(h.state(), SessionState::Rejected);
        assert!(matches!(h.result(), Some(SessionResult::Rejected)));
    }

    gate.release();
    service.wait_all();
    assert_eq!(blocker.wait_terminal(), SessionState::Succeeded);
    for h in &queued {
        assert_eq!(h.wait_terminal(), SessionState::Succeeded);
    }
    assert_eq!(
        registry
            .counter("lqs_sessions_rejected_total", "", &[])
            .get(),
        2
    );
}

#[test]
fn flaky_poll_path_backs_off_and_serves_cached_reports() {
    let (db, plan) = fixture();
    let service = QueryService::new(Arc::clone(&db), 1);
    let mreg = Arc::new(MetricsRegistry::new());
    let fp = FaultPlan::named("bad-client").flaky_polls(1.0);
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    )
    .with_metrics(PollerMetrics::new(Arc::clone(&mreg)))
    .with_poll_fault(fp.poll_fault().unwrap());

    let h = service.submit(QuerySpec::new("q-flaky", Arc::clone(&plan)));
    assert_eq!(h.wait_terminal(), SessionState::Succeeded);

    // Every poll round fails client-side; the poller must keep answering
    // (cached or empty reports, all in bounds) and never panic.
    for _ in 0..8 {
        for p in poller.poll() {
            if let Some(r) = &p.report {
                assert!((-1e-9..=1.0 + 1e-9).contains(&r.query_progress));
            }
        }
    }
    assert!(
        mreg.counter("lqs_poll_faults_total", "", &[]).get() >= 1,
        "poll faults were never counted"
    );
}
