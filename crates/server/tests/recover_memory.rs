//! Recovery holds one session at a time: over a directory of 48
//! interrupted journals (≈ 34 MB of decoded snapshots), the process's peak
//! resident set rises by far less than the directory. This binary holds one
//! test so that nothing else allocates in the process while it measures.

use lqs_exec::{DmvSnapshot, NodeCounters};
use lqs_journal::record::SessionMeta;
use lqs_journal::{Journal, JournalConfig};
use lqs_plan::CostModel;
use lqs_server::{RecoveryManager, SessionRegistry};

const SESSIONS: u64 = 48;
const SNAPSHOTS: u64 = 400;
const NODES: u64 = 20;
/// Well under the directory, well over one session (≈ 0.7 MB decoded).
const BUDGET_KB: u64 = 8 * 1024;

/// `VmHWM` (peak resident set) of this process, in kB.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM value")
}

/// Journal `SESSIONS` sessions of `SNAPSHOTS` × `NODES` counters each, no
/// terminal record, building one snapshot at a time.
fn write_directory(dir: &std::path::Path) {
    let journal = Journal::open(JournalConfig::new(dir)).expect("open");
    for id in 0..SESSIONS {
        let writer = journal
            .writer(SessionMeta {
                session_id: id,
                name: format!("q{id}"),
                workload: "memory".into(),
                n_nodes: NODES as u32,
                plan_fingerprint: id,
                snapshot_target: SNAPSHOTS,
                snapshot_interval_ns: None,
                cost_model: CostModel::default(),
                exec_mode: lqs_journal::JournalExecMode::Batch,
                estimator: None,
            })
            .expect("open session journal");
        for step in 1..=SNAPSHOTS {
            writer.append_snapshot(&DmvSnapshot {
                ts_ns: step * 1_000,
                nodes: (0..NODES)
                    .map(|n| NodeCounters {
                        rows_output: step * (n + 1),
                        cpu_ns: step * 100 + n,
                        logical_reads: step + n,
                        ..NodeCounters::default()
                    })
                    .collect(),
            });
        }
        writer.flush();
    }
}

#[test]
fn recovery_does_not_hold_the_directory() {
    let dir = std::env::temp_dir().join(format!("lqs-recover-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_directory(&dir);

    let registry = SessionRegistry::new();
    let before = peak_rss_kb();
    let report = RecoveryManager::new(|_: &SessionMeta| None)
        .recover(&dir, &registry)
        .expect("recover");
    let rise = peak_rss_kb() - before;

    assert_eq!(report.sessions.len(), SESSIONS as usize);
    assert!(report
        .sessions
        .iter()
        .all(|s| s.snapshots == SNAPSHOTS as usize));
    assert_eq!(report.corrupt_records, 0);
    assert!(
        rise < BUDGET_KB,
        "peak RSS rose {rise} kB across recovery (budget {BUDGET_KB} kB)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
