//! The durability stage end to end: every executed session goes
//! worker → stage → terminal, a session is never observable as terminal
//! before its terminal record's flush has returned, shutdown drains the
//! stage before stamping the clean-shutdown sentinels, a panicking
//! execution fails through the stage without stopping it, and — because the
//! worker still makes every journal append — a write-fault storm on one
//! worker trips the breaker and lays out the directory identically run
//! after run.

use lqs_exec::{FaultInjector, IoVerdict};
use lqs_journal::reader::read_segment_bytes;
use lqs_journal::{
    scan_dir, BreakerConfig, FsyncPolicy, Journal, JournalConfig, JournalFaultInjector,
    JournalMetrics, Record, TerminalKind,
};
use lqs_metrics::MetricsRegistry;
use lqs_plan::NodeId;
use lqs_server::{QueryService, QuerySpec, SessionDurability, SessionResult, SessionState};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{metric_value, orders_db, scan_sort_plan, tmpdir};

/// Fsyncs the journal has completed so far, read off the exposition.
fn fsyncs_done(registry: &MetricsRegistry) -> usize {
    metric_value(&registry.render(), "lqs_journal_fsync_seconds_count")
        .expect("fsync histogram rendered") as usize
}

/// (a) The recovery contract: by the time `wait_terminal` returns, the
/// session's terminal record is in the journal, its forced flush has
/// returned (under `OnTerminal` every fsync is a terminal one, so completed
/// fsyncs can never trail terminal sessions), and the session is durable.
#[test]
fn terminal_is_never_observable_before_its_flush_returned() {
    let dir = tmpdir("contract");
    let db = Arc::new(orders_db(3000));
    let plan = scan_sort_plan(&db);
    let registry = Arc::new(MetricsRegistry::new());
    let journal = Journal::open(JournalConfig::new(&dir))
        .expect("open journal")
        .with_metrics(JournalMetrics::new(Arc::clone(&registry)));
    let service = QueryService::new(Arc::clone(&db), 2).with_journal(journal);
    let handles: Vec<_> = (0..12)
        .map(|i| service.submit(QuerySpec::new(format!("q{i}"), Arc::clone(&plan))))
        .collect();
    for handle in &handles {
        assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
        // Count terminal sessions first: each one's flush was recorded
        // before its state flipped, so the later read can only be larger.
        let terminal = handles.iter().filter(|h| h.state().is_terminal()).count();
        assert!(
            fsyncs_done(&registry) >= terminal,
            "{terminal} sessions terminal ahead of their terminal fsync"
        );
        assert_eq!(handle.durability(), SessionDurability::Durable);
        let scan = scan_dir(&dir).expect("scan journal");
        let journaled = scan
            .sessions
            .iter()
            .find(|s| s.session_id == handle.id().0)
            .expect("session journaled");
        assert_eq!(
            journaled.terminal.as_ref().map(|t| t.kind),
            Some(TerminalKind::Succeeded),
            "{} terminal in memory but not in its journal",
            handle.id()
        );
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) `shutdown()` right after the submits: workers are joined, then the
/// stage is drained and joined, then the sentinels are stamped — so every
/// handle is terminal when it returns and every journal reads `Terminal`
/// before `CleanShutdown`.
#[test]
fn shutdown_drains_the_stage_before_the_sentinels() {
    let dir = tmpdir("shutdown");
    let db = Arc::new(orders_db(3000));
    let plan = scan_sort_plan(&db);
    let service = QueryService::new(Arc::clone(&db), 2)
        .with_journal(Journal::open(JournalConfig::new(&dir)).expect("open journal"));
    let handles: Vec<_> = (0..10)
        .map(|i| service.submit(QuerySpec::new(format!("q{i}"), Arc::clone(&plan))))
        .collect();
    service.shutdown();
    for handle in &handles {
        assert_eq!(handle.state(), SessionState::Succeeded, "{}", handle.id());
        assert!(matches!(handle.result(), Some(SessionResult::Completed(_))));
    }
    let mut journals = 0;
    for entry in std::fs::read_dir(&dir).expect("journal dir") {
        let bytes = std::fs::read(entry.expect("dir entry").path()).expect("segment");
        let (records, corrupt) = read_segment_bytes(&bytes);
        assert_eq!(corrupt, 0);
        let terminal = records
            .iter()
            .position(|r| matches!(r, Record::Terminal(_)))
            .expect("terminal record");
        let sentinel = records
            .iter()
            .position(|r| matches!(r, Record::CleanShutdown))
            .expect("clean-shutdown sentinel");
        assert!(terminal < sentinel);
        journals += 1;
    }
    assert_eq!(journals, handles.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fails the first read past page 3 for good (not transient).
struct HardFault;

impl FaultInjector for HardFault {
    fn on_io(&self, _node: NodeId, total_pages: u64, _now_ns: u64) -> IoVerdict {
        if total_pages > 3 {
            return IoVerdict::Error {
                message: "injected hard read error".into(),
                transient: false,
            };
        }
        IoVerdict::Ok
    }
}

/// (c) An execution that unwinds with a `QueryFault` reaches `Failed`
/// through the stage — journaled and flushed like any other outcome — and
/// the same worker and stage serve the next session.
#[test]
fn execution_panic_fails_through_the_stage_and_the_next_session_succeeds() {
    let dir = tmpdir("fault");
    let db = Arc::new(orders_db(3000));
    let plan = scan_sort_plan(&db);
    let service = QueryService::new(Arc::clone(&db), 1)
        .with_journal(Journal::open(JournalConfig::new(&dir)).expect("open journal"));
    let faulted = service.submit(
        QuerySpec::new("faulted", Arc::clone(&plan))
            .with_fault(Arc::new(HardFault) as Arc<dyn FaultInjector + Send>),
    );
    let good = service.submit(QuerySpec::new("good", plan));
    assert_eq!(faulted.wait_terminal(), SessionState::Failed);
    let Some(SessionResult::Failed(message)) = faulted.result() else {
        panic!("a faulted session must record a Failed result");
    };
    assert!(message.contains("injected hard read error"), "{message}");
    let scan = scan_dir(&dir).expect("scan journal");
    let journaled = scan
        .sessions
        .iter()
        .find(|s| s.session_id == faulted.id().0)
        .expect("faulted session journaled");
    assert_eq!(
        journaled.terminal.as_ref().map(|t| t.kind),
        Some(TerminalKind::Failed)
    );
    assert_eq!(good.wait_terminal(), SessionState::Succeeded);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fails a fixed window of every session's appends: long enough to trip a
/// two-strike breaker and to fail a probe or two before one succeeds.
struct Storm;

impl JournalFaultInjector for Storm {
    fn append_fails(&self, _session_key: &str, nth: u64) -> bool {
        (3..9).contains(&(nth % 16))
    }
}

fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("journal dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).expect("segment"),
            )
        })
        .collect()
}

/// (d) One worker under a write-fault storm: the worker makes every append
/// in program order and the stage makes none, so the shared breaker sees
/// one call sequence — trips, recoveries and every journal byte repeat
/// exactly, however the stage's flushes interleave with the next session.
#[test]
fn one_worker_fault_storm_is_deterministic() {
    let db = Arc::new(orders_db(3000));
    let plan = scan_sort_plan(&db);
    let runs: Vec<_> = (0..5)
        .map(|repeat| {
            let dir = tmpdir(&format!("storm-{repeat}"));
            let journal = Journal::open(
                JournalConfig::new(&dir)
                    .with_breaker(BreakerConfig {
                        trip_after: 2,
                        probe_after: Duration::ZERO,
                    })
                    .with_write_fault(Arc::new(Storm)),
            )
            .expect("open journal");
            let service = QueryService::new(Arc::clone(&db), 1).with_journal(journal);
            let handles: Vec<_> = (0..8)
                .map(|i| service.submit(QuerySpec::new(format!("q{i}"), Arc::clone(&plan))))
                .collect();
            for handle in &handles {
                assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
                assert_eq!(handle.durability(), SessionDurability::Lost);
            }
            let breaker = Arc::clone(service.journal().expect("journal").breaker());
            service.shutdown();
            let outcome = (breaker.trips(), breaker.recoveries(), dir_bytes(&dir));
            let _ = std::fs::remove_dir_all(&dir);
            outcome
        })
        .collect();
    let (trips, recoveries, _) = &runs[0];
    assert!(*trips > 0 && *recoveries > 0, "the storm never tripped");
    for run in &runs[1..] {
        assert_eq!((run.0, run.1), (*trips, *recoveries));
        assert!(run.2 == runs[0].2, "journal directory bytes differ");
    }
}

/// (e) One path: with no journal at all, and with a journal that never
/// fsyncs, sessions complete through the same hand-off.
#[test]
fn unjournaled_and_never_fsync_sessions_take_the_same_path() {
    let db = Arc::new(orders_db(3000));
    let plan = scan_sort_plan(&db);

    let bare = QueryService::new(Arc::clone(&db), 2);
    let handles: Vec<_> = (0..6)
        .map(|i| bare.submit(QuerySpec::new(format!("q{i}"), Arc::clone(&plan))))
        .collect();
    for handle in &handles {
        assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
        assert_eq!(handle.durability(), SessionDurability::Unjournaled);
        assert!(matches!(handle.result(), Some(SessionResult::Completed(_))));
    }
    bare.shutdown();

    let dir = tmpdir("never");
    let registry = Arc::new(MetricsRegistry::new());
    let journal = Journal::open(JournalConfig::new(&dir).with_fsync(FsyncPolicy::Never))
        .expect("open journal")
        .with_metrics(JournalMetrics::new(Arc::clone(&registry)));
    let service = QueryService::new(Arc::clone(&db), 2).with_journal(journal);
    let handles: Vec<_> = (0..6)
        .map(|i| service.submit(QuerySpec::new(format!("q{i}"), Arc::clone(&plan))))
        .collect();
    for handle in &handles {
        assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
        assert_eq!(handle.durability(), SessionDurability::Durable);
    }
    service.shutdown();
    assert_eq!(fsyncs_done(&registry), 0, "`Never` must never force");
    let scan = scan_dir(&dir).expect("scan journal");
    assert_eq!(scan.sessions.len(), handles.len());
    assert!(scan
        .sessions
        .iter()
        .all(|s| s.terminal.is_some() && s.clean_shutdown));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Racing submitters take their ids before opening their journals and
/// register after, so they can arrive out of id order; the registry still
/// lists every session in id order.
#[test]
fn racing_submitters_leave_sessions_in_id_order() {
    let dir = tmpdir("id-order");
    let db = Arc::new(orders_db(300));
    let plan = scan_sort_plan(&db);
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let service = QueryService::new(Arc::clone(&db), 2).with_journal(journal);
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4 {
            let (service, plan, barrier) = (&service, &plan, &barrier);
            s.spawn(move || {
                barrier.wait();
                for i in 0..8 {
                    service.submit(QuerySpec::new(format!("t{t}-{i}"), Arc::clone(plan)));
                }
            });
        }
    });
    service.wait_all();
    let ids: Vec<u64> = service
        .registry()
        .sessions()
        .iter()
        .map(|h| h.id().0)
        .collect();
    assert_eq!(ids, (0..32).collect::<Vec<_>>());
    service.shutdown();
}
