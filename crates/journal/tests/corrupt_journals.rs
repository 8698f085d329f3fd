//! Property tests for journal corruption tolerance: arbitrary torn tails,
//! truncated length prefixes, and bit-flipped bytes must never panic the
//! reader, which truncates to the last CRC-valid record and tallies what it
//! discarded.

use lqs_journal::reader::read_segment_bytes;
use lqs_journal::record::{
    Record, SegmentHeader, SessionMeta, TerminalKind, TerminalRecord, FORMAT_VERSION,
    SEGMENT_HEADER_BYTES,
};
use lqs_journal::{scan_dir, Journal, JournalConfig};
use lqs_plan::CostModel;
use lqs_plan::{DmvSnapshot, NodeCounters};
use proptest::prelude::*;

fn meta() -> SessionMeta {
    SessionMeta {
        session_id: 3,
        name: "prop-q".into(),
        workload: "prop".into(),
        n_nodes: 2,
        plan_fingerprint: 0xFEED_FACE,
        snapshot_target: 32,
        snapshot_interval_ns: Some(250_000),
        cost_model: CostModel::default(),
        exec_mode: lqs_journal::JournalExecMode::Tuple,
        estimator: None,
    }
}

fn snap(i: u64) -> DmvSnapshot {
    DmvSnapshot {
        ts_ns: i * 1000,
        nodes: vec![
            NodeCounters {
                rows_output: i,
                rows_input: i * 2,
                cpu_ns: i * 17,
                open_ns: Some(0),
                ..NodeCounters::default()
            },
            NodeCounters {
                rows_output: i / 2,
                ..NodeCounters::default()
            },
        ],
    }
}

/// A complete, valid segment: header, meta, `n` snapshots, terminal,
/// sentinel. Returns the bytes and the decoded-record count (n + 3).
fn valid_segment(n: u64) -> (Vec<u8>, usize) {
    let mut bytes = SegmentHeader {
        version: FORMAT_VERSION,
        epoch: 0,
        session_id: 3,
        segment: 0,
    }
    .encode();
    let mut records = vec![Record::Meta(Box::new(meta()))];
    records.extend((0..n).map(|i| Record::Snapshot(snap(i))));
    records.push(Record::Terminal(TerminalRecord {
        kind: TerminalKind::Succeeded,
        at_ns: n * 1000,
        rows_returned: n,
        message: String::new(),
    }));
    records.push(Record::CleanShutdown);
    let count = records.len();
    for r in &records {
        bytes.extend_from_slice(&r.encode_frame());
    }
    (bytes, count)
}

/// Decode a pristine copy of the same segment to compare prefixes against.
fn reference_records(n: u64) -> Vec<Record> {
    let (bytes, count) = valid_segment(n);
    let (records, corrupt) = read_segment_bytes(&bytes);
    assert_eq!(corrupt, 0);
    assert_eq!(records.len(), count);
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn torn_tail_truncates_to_last_valid_record(n in 0u64..12, cut_scale in 0u64..10_000) {
        let (bytes, _) = valid_segment(n);
        let reference = reference_records(n);
        // Tear anywhere from "nothing survived the header" to "one byte short".
        let cut = SEGMENT_HEADER_BYTES as usize
            + (cut_scale as usize % (bytes.len() - SEGMENT_HEADER_BYTES as usize));
        let (records, corrupt) = read_segment_bytes(&bytes[..cut]);
        // Whatever decoded is a strict prefix of the uncorrupted stream.
        prop_assert!(records.len() < reference.len());
        prop_assert_eq!(&records[..], &reference[..records.len()]);
        // A tear mid-frame costs exactly one corrupt record; a tear that
        // happens to land on a frame boundary costs none.
        prop_assert!(corrupt <= 1);
    }

    #[test]
    fn truncated_length_prefix_never_panics(n in 1u64..8, short in 1usize..8) {
        // Append a frame header that claims a payload but is cut inside the
        // 8-byte length/CRC prefix itself.
        let (mut bytes, _) = valid_segment(n);
        let reference = reference_records(n);
        let torn = Record::CleanShutdown.encode_frame();
        bytes.extend_from_slice(&torn[..short.min(torn.len() - 1)]);
        let (records, corrupt) = read_segment_bytes(&bytes);
        prop_assert_eq!(records.len(), reference.len());
        prop_assert_eq!(corrupt, 1);
    }

    #[test]
    fn bit_flips_never_panic_and_keep_a_valid_prefix(
        n in 1u64..10,
        pos_scale in 0u64..100_000,
        bit in 0u8..8,
    ) {
        let (mut bytes, _) = valid_segment(n);
        let reference = reference_records(n);
        let body = bytes.len() - SEGMENT_HEADER_BYTES as usize;
        let pos = SEGMENT_HEADER_BYTES as usize + (pos_scale as usize % body);
        bytes[pos] ^= 1 << bit;
        let (records, corrupt) = read_segment_bytes(&bytes);
        // CRC32 catches every single-bit payload flip; a flip in a length
        // prefix either still frames validly-CRC'd bytes (vanishingly
        // unlikely) or truncates. Either way: no panic, and the decoded
        // records are a prefix of the real stream.
        prop_assert!(records.len() <= reference.len());
        prop_assert_eq!(&records[..], &reference[..records.len()]);
        prop_assert!(corrupt <= 1);
        // The flipped frame itself can never survive: something was lost.
        prop_assert!(records.len() < reference.len() || corrupt == 1);
    }

    #[test]
    fn absurd_length_prefix_is_corruption_not_allocation(n in 0u64..4, len in 0u32..u32::MAX) {
        let (mut bytes, _) = valid_segment(n);
        let reference = reference_records(n);
        // Frame with a huge/garbage length prefix and no payload behind it.
        bytes.extend_from_slice(&len.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        let (records, corrupt) = read_segment_bytes(&bytes);
        prop_assert_eq!(records.len(), reference.len());
        prop_assert_eq!(corrupt, 1);
    }
}

#[test]
fn on_disk_tail_corruption_is_tallied_by_scan() {
    let dir = std::env::temp_dir().join(format!("lqs-journal-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
    let w = journal.writer(meta()).unwrap();
    for i in 0..10 {
        w.append_snapshot(&snap(i));
    }
    w.flush();

    // Chop the newest file mid-record: recovery keeps the valid prefix.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let path = files.last().unwrap();
    let bytes = std::fs::read(path).unwrap();
    std::fs::write(path, &bytes[..bytes.len() - 7]).unwrap();

    let scan = scan_dir(&dir).unwrap();
    assert_eq!(scan.corrupt_records, 1);
    assert_eq!(scan.sessions.len(), 1);
    let s = &scan.sessions[0];
    assert_eq!(s.meta.as_ref().unwrap().name, "prop-q");
    assert!(s.snapshots.len() < 10);
    assert!(s.is_interrupted());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_segment_of_another_format_version_is_one_corrupt_record() {
    let dir = std::env::temp_dir().join(format!("lqs-journal-version-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = JournalConfig::new(&dir).with_segment_max_bytes(1200);
    let journal = Journal::open(config).unwrap();
    let w = journal.writer(meta()).unwrap();
    for i in 0..10 {
        w.append_snapshot(&snap(i));
    }
    w.flush();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(
        files.len(),
        2,
        "one rotation: segments 0 and 1, got {files:?}"
    );
    let (first, corrupt) = read_segment_bytes(&std::fs::read(&files[0]).unwrap());
    assert_eq!(corrupt, 0);
    let kept = first
        .iter()
        .filter(|r| matches!(r, Record::Snapshot(_)))
        .count();
    assert!(kept < 10, "segment 1 holds snapshots too");

    // Restamp segment 1 as format version 2 (the `u16` after the magic);
    // every frame behind the header stays CRC-valid.
    let mut bytes = std::fs::read(&files[1]).unwrap();
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    std::fs::write(&files[1], &bytes).unwrap();

    let scan = scan_dir(&dir).unwrap();
    assert_eq!(scan.corrupt_records, 1);
    assert_eq!(scan.sessions[0].snapshots.len(), kept);
    let _ = std::fs::remove_dir_all(&dir);
}
