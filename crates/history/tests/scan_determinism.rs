//! History-scan invariants on hostile directories: two scans of an
//! unchanged journal directory render byte-for-byte identically, windowed
//! scans select exactly the overlapping sessions, and scans racing a live
//! retention sweep never panic and never double-count a session.

use lqs_exec::{execute, DmvSnapshot, ExecOptions, NodeCounters};
use lqs_history::{scan_history, ResolvedPlan};
use lqs_journal::record::{SessionMeta, TerminalKind, TerminalRecord};
use lqs_journal::{plan_fingerprint, Journal, JournalConfig};
use lqs_plan::CostModel;
use lqs_workloads::real::{workload, RealProfile};
use lqs_workloads::WorkloadScale;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lqs-history-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn meta(id: u64, name: &str, workload: &str) -> SessionMeta {
    SessionMeta {
        session_id: id,
        name: name.into(),
        workload: workload.into(),
        n_nodes: 2,
        plan_fingerprint: 0xABCD_0000 + id,
        snapshot_target: 64,
        snapshot_interval_ns: Some(1_000),
        cost_model: CostModel::default(),
        exec_mode: lqs_journal::JournalExecMode::Tuple,
        estimator: None,
    }
}

fn snap(ts_ns: u64, step: u64) -> DmvSnapshot {
    DmvSnapshot {
        ts_ns,
        nodes: vec![
            NodeCounters {
                rows_output: step * 3,
                rows_input: step * 4,
                cpu_ns: step * 170,
                logical_reads: step,
                ..NodeCounters::default()
            },
            NodeCounters {
                rows_output: step,
                cpu_ns: step * 40,
                ..NodeCounters::default()
            },
        ],
    }
}

/// Journal one session: `n` snapshots starting at `base_ts`, then a
/// terminal record (unless `interrupted`).
fn write_session(
    journal: &Journal,
    id: u64,
    workload: &str,
    base_ts: u64,
    n: u64,
    kind: Option<TerminalKind>,
) {
    let w = journal
        .writer(meta(id, &format!("q{id}"), workload))
        .expect("open session journal");
    for i in 1..=n {
        w.append_snapshot(&snap(base_ts + i * 1_000, i));
    }
    if let Some(kind) = kind {
        w.append_terminal(&TerminalRecord {
            kind,
            at_ns: base_ts + n * 1_000,
            rows_returned: n * 3,
            message: String::new(),
        });
        w.append_clean_shutdown();
    }
    w.flush();
}

#[test]
fn two_scans_of_unchanged_dir_render_identically() {
    let dir = tmpdir("unchanged");
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open");
    write_session(&journal, 1, "oltp", 0, 20, Some(TerminalKind::Succeeded));
    write_session(
        &journal,
        2,
        "oltp",
        5_000,
        12,
        Some(TerminalKind::Cancelled),
    );
    write_session(&journal, 3, "olap", 0, 30, Some(TerminalKind::Succeeded));
    write_session(&journal, 4, "olap", 10_000, 7, None); // interrupted

    let a = scan_history(&dir, None, None).expect("scan a");
    let b = scan_history(&dir, None, None).expect("scan b");

    // Byte-for-byte: the full derived state — curves, attribution,
    // percentiles, fleet ranking — renders identically across scans.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(
        format!("{:?}", a.percentiles()),
        format!("{:?}", b.percentiles())
    );
    assert_eq!(
        format!("{:?}", a.slowest_nodes(10)),
        format!("{:?}", b.slowest_nodes(10))
    );

    // Structural sanity on one scan: per-session outcomes, bounded
    // curves, and node attribution matching session totals.
    assert_eq!(a.sessions.len(), 4);
    let outcomes: Vec<&str> = a.sessions.iter().map(|s| s.outcome).collect();
    assert_eq!(
        outcomes,
        vec!["succeeded", "cancelled", "succeeded", "interrupted"]
    );
    for s in &a.sessions {
        assert!(s.curve.iter().all(|p| (0.0..=1.0).contains(&p.progress)));
        let node_cpu: u64 = s.nodes.iter().map(|n| n.cpu_ns).sum();
        assert_eq!(
            node_cpu,
            s.total_cpu_ns,
            "attribution total for {}",
            s.key()
        );
        let share: f64 = s.nodes.iter().map(|n| n.share).sum();
        assert!(
            (share - 1.0).abs() < 1e-9,
            "shares sum to 1 for {}",
            s.key()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn windowed_scan_selects_overlapping_sessions() {
    let dir = tmpdir("window");
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open");
    // Session 1 lives on [1_000, 10_000], session 2 on [101_000, 120_000].
    write_session(&journal, 1, "w", 0, 10, Some(TerminalKind::Succeeded));
    write_session(&journal, 2, "w", 100_000, 20, Some(TerminalKind::Succeeded));

    let early = scan_history(&dir, Some((0, 50_000)), None).expect("early window");
    assert_eq!(
        early
            .sessions
            .iter()
            .map(|s| s.session_id)
            .collect::<Vec<_>>(),
        vec![1]
    );
    let late = scan_history(&dir, Some((50_000, u64::MAX)), None).expect("late window");
    assert_eq!(
        late.sessions
            .iter()
            .map(|s| s.session_id)
            .collect::<Vec<_>>(),
        vec![2]
    );
    let all = scan_history(&dir, None, None).expect("no window");
    assert_eq!(all.sessions.len(), 2);
    let none = scan_history(&dir, Some((30_000, 40_000)), None).expect("gap window");
    assert!(none.sessions.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scans_racing_retention_sweeps_never_panic_or_double_count() {
    let dir = tmpdir("race");
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Scanner thread: hammer the directory with full history scans while
    // the main thread generates and sweeps journal epochs underneath it.
    let scanner = {
        let dir = dir.clone();
        let stop = std::sync::Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scans = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let fleet = scan_history(&dir, None, None).expect("scan never errors");
                let mut keys: Vec<String> = fleet.sessions.iter().map(|s| s.key()).collect();
                let total = keys.len();
                keys.sort();
                keys.dedup();
                assert_eq!(keys.len(), total, "a session was double-counted");
                for s in &fleet.sessions {
                    assert!(s.snapshots <= 40, "phantom snapshots in {}", s.key());
                    assert!(s.curve.iter().all(|p| (0.0..=1.0).contains(&p.progress)));
                }
                scans += 1;
            }
            scans
        })
    };

    // Eight epochs: each journals a batch of sessions, then sweeps every
    // prior epoch away (1-byte retention budget), deleting files out from
    // under any in-flight scan.
    for epoch in 0..8u64 {
        let journal = Journal::open(JournalConfig::new(&dir).with_retention_max_bytes(1))
            .expect("open epoch journal");
        for id in 0..6 {
            write_session(
                &journal,
                epoch * 10 + id,
                "race",
                0,
                40,
                Some(TerminalKind::Succeeded),
            );
        }
        journal.sweep_retention().expect("sweep");
    }

    stop.store(true, std::sync::atomic::Ordering::Release);
    let scans = scanner.join().expect("scanner thread never panics");
    assert!(scans > 0, "scanner never completed a scan");

    // Quiescent directory: the race is over, so two fresh scans agree
    // byte-for-byte and see exactly the surviving (newest-epoch) sessions.
    let a = scan_history(&dir, None, None).expect("final scan a");
    let b = scan_history(&dir, None, None).expect("final scan b");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(a.sessions.len(), 6, "only the newest epoch survives");
    assert!(a.sessions.iter().all(|s| s.epoch == 7));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_of_the_wrong_width_truncates_instead_of_panicking_the_scan() {
    // A REAL-1 session journaled with a meta whose `n_nodes` is the plan's
    // length, and whose second snapshot is one node wide (a valid frame,
    // CRC and all). Scored against the resolved plan, that snapshot would
    // index past its end; the reader truncates the segment there instead.
    let dir = tmpdir("width");
    let scale = WorkloadScale {
        data_scale: 0.05,
        query_limit: 1,
        seed: 42,
    };
    let real1 = workload(RealProfile::Real1, scale);
    let db = Arc::new(real1.db);
    let plan = Arc::new(real1.queries.into_iter().next().expect("one query").plan);
    let opts = ExecOptions::default();
    let run = execute(&db, &plan, &opts);
    assert!(run.snapshots.len() >= 3 && plan.len() >= 2);

    let journal = Journal::open(JournalConfig::new(&dir)).expect("open");
    let writer = journal
        .writer(SessionMeta {
            n_nodes: plan.len() as u32,
            plan_fingerprint: plan_fingerprint(&plan),
            cost_model: opts.cost_model.clone(),
            ..meta(1, "real1-q000", "real1")
        })
        .expect("open session journal");
    for (i, snapshot) in run.snapshots.iter().enumerate() {
        let mut snapshot = snapshot.clone();
        if i == 1 {
            snapshot.nodes.truncate(1);
        }
        writer.append_snapshot(&snapshot);
    }
    writer.append_snapshot(&DmvSnapshot {
        ts_ns: run.duration_ns,
        nodes: run.final_counters.clone(),
    });
    writer.append_terminal(&TerminalRecord {
        kind: TerminalKind::Succeeded,
        at_ns: run.duration_ns,
        rows_returned: run.rows_returned,
        message: String::new(),
    });
    writer.flush();

    let resolver = |_: &SessionMeta| {
        Some(ResolvedPlan {
            plan: Arc::clone(&plan),
            db: Arc::clone(&db),
        })
    };
    let fleet = scan_history(&dir, None, Some(&resolver)).expect("scan never errors");
    assert_eq!(fleet.corrupt_records, 1);
    let session = &fleet.sessions[0];
    assert_eq!(session.snapshots, 1, "the valid prefix survives");
    assert_eq!(session.corrupt_records, 1);
    assert_eq!(session.outcome, "interrupted");
    assert_eq!(session.nodes.len(), plan.len());
    let _ = std::fs::remove_dir_all(&dir);
}
