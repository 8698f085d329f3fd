//! Group commit of the snapshot journal. While sessions wait for a worker,
//! a session's snapshot frames are held in its journal writer and written
//! in batches; a held snapshot is invisible until its frame is written.
//! These tests hold the batching to four promises: (a) the files are the
//! bytes of the same sessions run one at a time; (b) a poller that reads
//! `published_seq = k` finds at least k snapshot frames in the journal;
//! (c) with an empty queue every publish is written and shown on its own;
//! (d) a batch across a rotation, an injected write fault or the crash
//! point leaves the files and counters of writing each frame alone.

use lqs_exec::{DmvSnapshot, ExecOptions, NodeCounters, SnapshotFilter};
use lqs_journal::reader::read_segment_bytes;
use lqs_journal::{
    parse_segment_file_name, BreakerConfig, Journal, JournalConfig, JournalFaultInjector,
    JournalMetrics, Record, SessionMeta, TerminalKind, TerminalRecord, WriteCrashPoint,
};
use lqs_metrics::MetricsRegistry;
use lqs_plan::PhysicalPlan;
use lqs_server::{
    QueryService, QuerySpec, SessionDurability, SessionHandle, SessionRegistry, SessionState,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::{metric_value, orders_db, scan_sort_plan, tmpdir};

const SESSIONS: usize = 8;

/// A pass-through snapshot filter that measures, each time the engine
/// publishes, how many of the session's earlier publishes are not visible
/// yet: publishes so far minus `published_seq`.
struct Lag {
    registry: Arc<SessionRegistry>,
    name: String,
    publishes: AtomicU64,
    max_lag: AtomicU64,
}

impl SnapshotFilter for Lag {
    fn filter(&self, snapshot: &DmvSnapshot) -> Vec<DmvSnapshot> {
        let before = self.publishes.fetch_add(1, Ordering::AcqRel);
        let handle = (self.registry.sessions().into_iter()).find(|h| h.name() == self.name);
        let seq = handle.expect("registered before it runs").published_seq();
        self.max_lag.fetch_max(before - seq, Ordering::AcqRel);
        vec![snapshot.clone()]
    }
}

/// Fails a window of every session's appends: long enough to trip a
/// two-strike breaker and fail a probe before one succeeds.
struct Storm;

impl JournalFaultInjector for Storm {
    fn append_fails(&self, _session_key: &str, nth: u64) -> bool {
        (13..17).contains(&(nth % 40))
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

/// Snapshot frames session `id` has in the journal right now (a frame
/// being written counts once it is whole).
fn journaled_snapshots(dir: &Path, id: u64) -> usize {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("journal dir")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| parse_segment_file_name(name).is_some_and(|(_, s, _)| s == id))
        .collect();
    names.sort();
    names
        .iter()
        .map(|name| {
            let bytes = std::fs::read(dir.join(name)).expect("segment");
            let (records, _) = read_segment_bytes(&bytes);
            (records.iter())
                .filter(|r| matches!(r, Record::Snapshot(_)))
                .count()
        })
        .sum()
}

/// Kills the journal writers of every third session part-way through.
struct CrashSome;

impl WriteCrashPoint for CrashSome {
    fn crash_after_bytes(&self, session_key: &str) -> Option<u64> {
        let i: u64 = session_key.trim_start_matches('q').parse().ok()?;
        (i % 3 == 1).then_some(2_000 + 1_500 * i)
    }
}

/// A journal with `stormy`'s small segments, write faults, crash points
/// and a deterministic two-strike breaker, or a plain one.
fn journal(dir: &Path, stormy: bool, registry: &Arc<MetricsRegistry>) -> Journal {
    let mut config = JournalConfig::new(dir);
    if stormy {
        config = config
            .with_segment_max_bytes(4096)
            .with_write_fault(Arc::new(Storm))
            .with_crash(Arc::new(CrashSome))
            .with_breaker(BreakerConfig {
                trip_after: 2,
                probe_after: Duration::ZERO,
            });
    }
    Journal::open(config)
        .expect("open journal")
        .with_metrics(JournalMetrics::new(Arc::clone(registry)))
}

/// A 200-snapshot scan → sort session whose publishes `lags` measures.
fn spec(
    service: &QueryService,
    plan: &Arc<PhysicalPlan>,
    name: String,
    lags: &mut Vec<Arc<Lag>>,
) -> QuerySpec {
    let filter = Arc::new(Lag {
        registry: Arc::clone(service.registry()),
        name: name.clone(),
        publishes: AtomicU64::new(0),
        max_lag: AtomicU64::new(0),
    });
    lags.push(Arc::clone(&filter));
    QuerySpec::new(name, Arc::clone(plan))
        .with_opts(ExecOptions {
            snapshot_target: 200,
            ..ExecOptions::default()
        })
        .with_snapshot_filter(filter)
}

/// What one run leaves: every segment's bytes, per session its largest
/// publish lag, final `published_seq` and durability, and the journal's
/// records-appended and breaker counters.
struct Outcome {
    files: BTreeMap<String, Vec<u8>>,
    max_lag: Vec<u64>,
    seqs: Vec<u64>,
    durable: Vec<SessionDurability>,
    counters: (f64, u64, u64),
}

/// Run [`SESSIONS`] sessions on one worker: submitted together, so all but
/// the running one wait in the queue, or one at a time.
fn run(tag: &str, queued: bool, stormy: bool) -> Outcome {
    let dir = tmpdir(tag);
    let registry = Arc::new(MetricsRegistry::new());
    let db = Arc::new(orders_db(3000));
    let plan = scan_sort_plan(&db);
    let service = QueryService::new(db, 1).with_journal(journal(&dir, stormy, &registry));
    let mut lags = Vec::new();
    let mut handles: Vec<Arc<SessionHandle>> = Vec::new();
    for i in 0..SESSIONS {
        let handle = service.submit(spec(&service, &plan, format!("q{i}"), &mut lags));
        if !queued {
            assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
        }
        handles.push(handle);
    }
    for handle in &handles {
        assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
    }
    let breaker = Arc::clone(service.journal().expect("journal").breaker());
    service.shutdown();
    let appended = metric_value(&registry.render(), "lqs_journal_records_appended_total")
        .expect("records appended rendered");
    let outcome = Outcome {
        files: dir_bytes(&dir),
        max_lag: (lags.iter())
            .map(|l| l.max_lag.load(Ordering::Acquire))
            .collect(),
        seqs: handles.iter().map(|h| h.published_seq()).collect(),
        durable: handles.iter().map(|h| h.durability()).collect(),
        counters: (appended, breaker.trips(), breaker.recoveries()),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// (a) and (c) on a plain journal: queued sessions batch (some publish
/// finds earlier ones not yet visible), sessions run one at a time never do,
/// and both leave the same bytes.
#[test]
fn queued_sessions_write_the_bytes_of_sessions_run_one_at_a_time() {
    let alone = run("alone", false, false);
    let queued = run("queued", true, false);
    assert!(
        alone.max_lag.iter().all(|&lag| lag == 0),
        "with an empty queue every publish is shown at once: {:?}",
        alone.max_lag
    );
    assert!(
        queued.max_lag.iter().any(|&lag| lag > 0),
        "queued sessions never held a frame: {:?}",
        queued.max_lag
    );
    assert_eq!(queued.seqs, alone.seqs);
    assert_eq!(queued.durable, alone.durable);
    assert_eq!(queued.counters, alone.counters);
    assert_eq!(
        queued.files.keys().collect::<Vec<_>>(),
        alone.files.keys().collect::<Vec<_>>()
    );
    assert!(queued.files == alone.files, "segment bytes differ");
}

/// (a) under small segments, injected write faults, breaker trips and
/// crash points: the same files, durability, appended records, trips and
/// recoveries.
#[test]
fn queued_sessions_under_faults_and_rotation_match_sessions_run_alone() {
    let alone = run("storm-alone", false, true);
    let queued = run("storm-queued", true, true);
    assert!(alone.max_lag.iter().all(|&lag| lag == 0));
    assert!(alone.counters.1 > 0 && alone.counters.2 > 0, "no storm");
    assert!(alone.files.len() > 2 * SESSIONS, "no rotation");
    assert!(alone.durable.contains(&SessionDurability::Lost));
    let mut per_session = BTreeMap::<u64, usize>::new();
    for (name, bytes) in &alone.files {
        let (_, session, _) = parse_segment_file_name(name).expect("segment name");
        *per_session.entry(session).or_default() += bytes.len();
    }
    assert!(
        per_session.values().any(|&b| b == 3_500),
        "no crash point fired"
    );
    assert_eq!(queued.seqs, alone.seqs);
    assert_eq!(queued.durable, alone.durable);
    assert_eq!(queued.counters, alone.counters);
    assert!(queued.files == alone.files, "segment bytes differ");
}

/// (b) Journal first, then visible: every `published_seq = k` a poller
/// reads is backed by at least k whole snapshot frames on disk.
#[test]
fn a_visible_snapshot_is_already_in_the_journal() {
    let dir = tmpdir("visible");
    let registry = Arc::new(MetricsRegistry::new());
    let db = Arc::new(orders_db(3000));
    let plan = scan_sort_plan(&db);
    let service = QueryService::new(db, 1).with_journal(journal(&dir, false, &registry));
    let mut lags = Vec::new();
    let handles: Vec<_> = (0..SESSIONS)
        .map(|i| service.submit(spec(&service, &plan, format!("q{i}"), &mut lags)))
        .collect();
    let done = AtomicBool::new(false);
    let checks = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut checks = 0u64;
            while !done.load(Ordering::Acquire) {
                for handle in &handles {
                    let seq = handle.published_seq();
                    let on_disk = journaled_snapshots(&dir, handle.id().0) as u64;
                    assert!(
                        on_disk >= seq,
                        "{} shows seq {seq} with {on_disk} snapshot frames journaled",
                        handle.id()
                    );
                    checks += u64::from(seq > 0);
                }
            }
            checks
        });
        for handle in &handles {
            assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
        }
        done.store(true, Ordering::Release);
        poller.join().expect("poller")
    });
    assert!(checks > 0, "the poller never saw a publish");
    assert!(
        lags.iter().any(|l| l.max_lag.load(Ordering::Acquire) > 0),
        "no frame was held, so nothing was tested"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) One session on an idle service: every publish is written and shown
/// on its own, and the journal holds exactly the snapshots it showed.
#[test]
fn an_idle_service_writes_every_frame_through() {
    let dir = tmpdir("idle");
    let registry = Arc::new(MetricsRegistry::new());
    let db = Arc::new(orders_db(3000));
    let plan = scan_sort_plan(&db);
    let service = QueryService::new(db, 1).with_journal(journal(&dir, false, &registry));
    let mut lags = Vec::new();
    let handle = service.submit(spec(&service, &plan, "alone".into(), &mut lags));
    assert_eq!(handle.wait_terminal(), SessionState::Succeeded);
    let publishes = lags[0].publishes.load(Ordering::Acquire);
    assert!(publishes > 10, "{publishes} publishes");
    assert_eq!(lags[0].max_lag.load(Ordering::Acquire), 0);
    // The engine's publishes plus the final one from `complete`.
    assert_eq!(handle.published_seq(), publishes + 1);
    let on_disk = journaled_snapshots(&dir, handle.id().0) as u64;
    assert_eq!(on_disk, handle.published_seq());
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

struct FailAt(&'static [u64]);

impl JournalFaultInjector for FailAt {
    fn append_fails(&self, _session_key: &str, nth: u64) -> bool {
        self.0.contains(&nth)
    }
}

struct CrashAt(u64);

impl WriteCrashPoint for CrashAt {
    fn crash_after_bytes(&self, _session_key: &str) -> Option<u64> {
        Some(self.0)
    }
}

fn meta() -> SessionMeta {
    SessionMeta {
        session_id: 0,
        name: "q".into(),
        workload: "w".into(),
        n_nodes: 3,
        plan_fingerprint: 1,
        snapshot_target: 8,
        snapshot_interval_ns: None,
        cost_model: lqs_plan::CostModel::default(),
        exec_mode: lqs_journal::JournalExecMode::Unknown,
        estimator: None,
    }
}

fn snapshot(i: u64) -> DmvSnapshot {
    DmvSnapshot {
        ts_ns: i * 1_000,
        nodes: (0..3)
            .map(|n| NodeCounters {
                rows_output: i * (n + 1),
                cpu_ns: i * 17,
                ..NodeCounters::default()
            })
            .collect(),
    }
}

/// How a case configures its journal.
type Setup = fn(JournalConfig) -> JournalConfig;

/// What one writer leaves: its files, and its records appended, write
/// errors, lost records, breaker trips and recoveries.
#[derive(PartialEq, Debug)]
struct Written {
    files: BTreeMap<String, Vec<u8>>,
    counters: (f64, u64, u64, u64, u64),
}

/// Write 60 snapshots, a terminal record and the sentinel through one
/// writer, either each snapshot on its own or held in batches of 1, 5, 9,
/// 3 and 17 frames.
fn write_journal(tag: &str, batched: bool, config: Setup) -> Written {
    let dir = tmpdir(tag);
    let registry = Arc::new(MetricsRegistry::new());
    let journal = Journal::open(config(JournalConfig::new(&dir)))
        .expect("open journal")
        .with_metrics(JournalMetrics::new(Arc::clone(&registry)));
    let writer = journal.writer(meta()).expect("writer");
    let mut batches = [1usize, 5, 9, 3, 17].into_iter().cycle();
    let mut left = 0;
    for i in 0..60 {
        if !batched {
            writer.append_snapshot(&snapshot(i));
            continue;
        }
        if left == 0 {
            left = batches.next().expect("cycle");
        }
        writer.hold_snapshot(&snapshot(i));
        left -= 1;
        if left == 0 {
            writer.write_held();
        }
    }
    writer.append_terminal(&TerminalRecord {
        kind: TerminalKind::Succeeded,
        at_ns: 60_000,
        rows_returned: 1,
        message: String::new(),
    });
    writer.append_clean_shutdown();
    let appended = metric_value(&registry.render(), "lqs_journal_records_appended_total")
        .expect("records appended rendered");
    let breaker = journal.breaker();
    let outcome = Written {
        files: dir_bytes(&dir),
        counters: (
            appended,
            writer.write_errors(),
            writer.lost_records(),
            breaker.trips(),
            breaker.recoveries(),
        ),
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// (d) A batch that crosses a rotation, one with an injected fault in its
/// middle (tripping the breaker and failing a probe), and one that reaches
/// the crash point leave what writing each frame alone leaves.
#[test]
fn batches_account_per_record_across_rotation_faults_and_the_crash_point() {
    let cases: [(&str, Setup); 3] = [
        ("rotate", |c| c.with_segment_max_bytes(700)),
        ("fault", |c| {
            c.with_write_fault(Arc::new(FailAt(&[3, 9, 10, 11, 24, 40])))
                .with_breaker(BreakerConfig {
                    trip_after: 2,
                    probe_after: Duration::ZERO,
                })
                .with_segment_max_bytes(1500)
        }),
        ("crash", |c| c.with_crash(Arc::new(CrashAt(2_500)))),
    ];
    for (tag, config) in cases {
        let alone = write_journal(&format!("d-{tag}-alone"), false, config);
        let batched = write_journal(&format!("d-{tag}-batched"), true, config);
        assert_eq!(
            batched.files.keys().collect::<Vec<_>>(),
            alone.files.keys().collect::<Vec<_>>(),
            "{tag}: segment files"
        );
        assert!(batched.files == alone.files, "{tag}: segment bytes differ");
        assert_eq!(
            batched.counters, alone.counters,
            "{tag}: (records_appended, write_errors, lost_records, trips, recoveries)"
        );
        let bytes: usize = alone.files.values().map(Vec::len).sum();
        match tag {
            "rotate" => assert!(alone.files.len() > 5, "{tag}: no rotation"),
            "fault" => assert!(
                alone.counters.3 > 0 && alone.counters.4 > 0,
                "{tag}: no trip"
            ),
            _ => assert_eq!(bytes, 2_500, "{tag}: the crash point lost no write"),
        }
    }
}
