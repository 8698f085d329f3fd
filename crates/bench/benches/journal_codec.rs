//! Journal byte-path costs, for local profiling of the codec: the CRC32
//! kernel's throughput, one `append_snapshot` at the node counts the
//! REAL-1 (≈17) and REAL-2 (≈22) plans journal, and a `scan_dir` over a
//! directory of finished sessions. The committed end-to-end figures live in
//! `benchmark/` (`journal.append_us_per_snapshot`, `journal.scan_mb_per_s`);
//! this group is the microscope, not the ledger.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use lqs::exec::{DmvSnapshot, NodeCounters};
use lqs::journal::{
    crc32, scan_dir, FsyncPolicy, Journal, JournalConfig, JournalExecMode, SessionMeta,
    TerminalKind, TerminalRecord,
};
use lqs::plan::CostModel;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lqs-bench-journal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn meta(id: u64, n_nodes: u32) -> SessionMeta {
    SessionMeta {
        session_id: id,
        name: format!("q{id}"),
        workload: "bench".into(),
        n_nodes,
        plan_fingerprint: 0xB0B0 + u64::from(n_nodes),
        snapshot_target: 192,
        snapshot_interval_ns: None,
        cost_model: CostModel::default(),
        exec_mode: JournalExecMode::Batch,
        estimator: None,
    }
}

/// A mid-run snapshot of an `n`-node plan: every counter populated, the
/// optional timestamps mixed, like a real publish.
fn snapshot(n: usize, tick: u64) -> DmvSnapshot {
    DmvSnapshot {
        ts_ns: tick * 50_000,
        nodes: (0..n as u64)
            .map(|i| NodeCounters {
                rows_output: tick * 31 + i,
                rows_input: tick * 62 + i,
                logical_reads: tick * 3,
                segments_processed: i % 2,
                cpu_ns: tick * 48_000 + i * 7,
                rows_buffered: tick % 5,
                rows_processed: tick * 62,
                executions: 1,
                open_ns: Some(i * 10),
                first_row_ns: (tick > i).then_some(i * 900),
                close_ns: None,
            })
            .collect(),
    }
}

fn bench_crc(c: &mut Criterion) {
    const BYTES: usize = 1 << 20;
    let data: Vec<u8> = (0..BYTES).map(|i| (i * 151 + 43) as u8).collect();
    let mut g = c.benchmark_group("journal_codec/crc32");
    g.throughput(Throughput::Bytes(BYTES as u64));
    g.bench_function("1MiB", |b| b.iter(|| crc32(black_box(&data))));
    g.finish();
}

fn bench_append(c: &mut Criterion) {
    // One iteration is a fresh session journal taking `APPENDS` snapshots
    // (opened untimed), so the file on disk stays under a megabyte however
    // long the bench runs; ns/iter ÷ `APPENDS` is one append.
    const APPENDS: u64 = 512;
    let mut g = c.benchmark_group("journal_codec/append_snapshot");
    g.throughput(Throughput::Elements(APPENDS));
    for nodes in [17usize, 22] {
        let dir = tmpdir(&format!("append-{nodes}"));
        let snap = snapshot(nodes, 96);
        g.bench_function(&format!("{nodes}_nodes_x{APPENDS}"), |b| {
            b.iter_batched(
                || {
                    let _ = std::fs::remove_dir_all(&dir);
                    // No fsync: the figure is encode + CRC + one
                    // `write_all` per append, not the disk.
                    Journal::open(JournalConfig::new(&dir).with_fsync(FsyncPolicy::Never))
                        .and_then(|journal| journal.writer(meta(0, nodes as u32)))
                        .expect("open session journal")
                },
                |writer| {
                    for _ in 0..APPENDS {
                        writer.append_snapshot(black_box(&snap));
                    }
                    assert_eq!(writer.write_errors(), 0);
                    writer
                },
                BatchSize::PerIteration,
            )
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    g.finish();
}

fn bench_scan(c: &mut Criterion) {
    const SESSIONS: u64 = 16;
    const SNAPSHOTS: u64 = 300;
    let dir = tmpdir("scan");
    let journal = Journal::open(JournalConfig::new(&dir).with_fsync(FsyncPolicy::Never))
        .expect("open journal");
    let mut bytes = 0;
    for id in 0..SESSIONS {
        let writer = journal.writer(meta(id, 17)).expect("open session journal");
        for tick in 0..SNAPSHOTS {
            writer.append_snapshot(&snapshot(17, tick));
        }
        writer.append_terminal(&TerminalRecord {
            kind: TerminalKind::Succeeded,
            at_ns: SNAPSHOTS * 50_000,
            rows_returned: SNAPSHOTS * 31,
            message: String::new(),
        });
        writer.append_clean_shutdown();
        bytes += writer.bytes_written();
    }
    let mut g = c.benchmark_group("journal_codec/scan_dir");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("16_sessions_x_300_snapshots", |b| {
        b.iter(|| {
            let scan = scan_dir(&dir).expect("scan");
            assert_eq!(scan.bytes_scanned, bytes);
            scan
        })
    });
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_crc, bench_append, bench_scan);
criterion_main!(benches);
