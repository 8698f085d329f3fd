//! The read side: scan a journal directory, reassemble every session's
//! record stream across its segments, and classify how each session ended.
//!
//! Reading comes in two pieces: [`list_sessions`] groups the directory's
//! segment files by session from their names alone, and [`read_session`]
//! reads one listed session. [`scan_dir`] is the two composed over every
//! session; a caller that wants one session (the `/history` curve route)
//! lists, picks, and reads only that one.
//!
//! Corruption tolerance is absolute — [`read_session`] never panics and
//! never returns a decode error. A session's stream is read frame by frame and
//! truncated at the first invalid frame (torn length prefix, oversized
//! length, CRC mismatch, undecodable payload); everything before it is
//! kept, and each truncation tallies one corrupt record. Recovery built on
//! top therefore degrades: a torn tail costs the newest snapshots, never
//! the session.

use crate::record::{
    AlertRecord, EstimatorRecord, Record, SegmentHeader, SessionMeta, TerminalKind, TerminalRecord,
    MAX_PAYLOAD_BYTES, SEGMENT_HEADER_BYTES,
};
use crate::writer::parse_segment_file_name;
use lqs_exec::{DmvSnapshot, NodeCounters, QueryRun};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything read back for one journaled session.
#[derive(Debug, Clone)]
pub struct RecoveredSession {
    /// Epoch of the service incarnation that wrote this journal.
    pub epoch: u32,
    /// Session id within that epoch.
    pub session_id: u64,
    /// Session metadata; `None` if the meta record itself was unreadable
    /// (such a session cannot be re-attached, only counted).
    pub meta: Option<SessionMeta>,
    /// Every snapshot that survived, in publish order. For a completed
    /// session the last one is the terminal publish (final counters).
    pub snapshots: Vec<DmvSnapshot>,
    /// The terminal-state record, if it reached disk.
    pub terminal: Option<TerminalRecord>,
    /// Watchdog alerts journaled for this session, in write order.
    pub alerts: Vec<AlertRecord>,
    /// Final ensemble estimator selection, if one reached disk (the last
    /// journaled [`Record::Estimator`] wins; falls back to the meta's baked
    /// `estimator` field for rewritten journals).
    pub estimator: Option<EstimatorRecord>,
    /// Whether the clean-shutdown sentinel reached disk.
    pub clean_shutdown: bool,
    /// Records discarded while reading this session (torn tails, CRC
    /// failures, malformed payloads).
    pub corrupt_records: u64,
}

impl RecoveredSession {
    /// Whether this journal ends the way a crash leaves it: no terminal
    /// record — the session was in flight (or its tail was lost) when the
    /// process died.
    pub fn is_interrupted(&self) -> bool {
        self.terminal.is_none()
    }

    /// The publish stream of a session that reached its terminal record,
    /// split by the rule every consumer of a finished journal relies on:
    /// the terminal publish (`complete` / `abort`) journaled the final or
    /// partial counters as the *last* snapshot record, and everything
    /// before it is the mid-run trace the engine recorded in
    /// `QueryRun::snapshots`. Returns `(terminal record, trace, terminal
    /// publish)`. With no snapshot at all (`Failed` / `Rejected` publish
    /// nothing) the terminal publish is an all-zero counter state, so
    /// consumers still see one row per plan node. `None` without a meta or
    /// a terminal record.
    pub fn terminal_publish(&self) -> Option<(&TerminalRecord, &[DmvSnapshot], DmvSnapshot)> {
        let (meta, terminal) = (self.meta.as_ref()?, self.terminal.as_ref()?);
        Some(match self.snapshots.split_last() {
            Some((last, trace)) => (terminal, trace, last.clone()),
            None => (
                terminal,
                &[],
                DmvSnapshot {
                    ts_ns: terminal.at_ns,
                    nodes: vec![NodeCounters::default(); meta.n_nodes as usize],
                },
            ),
        })
    }

    /// The run a `Succeeded` session completed, rebuilt from its journal by
    /// [`terminal_publish`](Self::terminal_publish)'s rule — what recovery
    /// re-attaches and history replays, bit-identical to the uninterrupted
    /// run but for `node_elapsed_ns`, which is not journaled.
    pub fn completed_run(&self) -> Option<QueryRun> {
        let meta = self.meta.as_ref()?;
        let (terminal, trace, last) = self.terminal_publish()?;
        (terminal.kind == TerminalKind::Succeeded).then(|| QueryRun {
            snapshots: trace.to_vec(),
            final_counters: last.nodes,
            duration_ns: terminal.at_ns,
            rows_returned: terminal.rows_returned,
            cost_model: meta.cost_model.clone(),
            node_elapsed_ns: Vec::new(),
        })
    }

    /// Virtual timestamp of the newest surviving snapshot.
    pub(crate) fn last_ts_ns(&self) -> Option<u64> {
        self.snapshots.last().map(|s| s.ts_ns)
    }

    /// Virtual timestamp of the oldest surviving snapshot (the start of
    /// this session's observable activity window). 0 when nothing survived.
    pub(crate) fn start_ts_ns(&self) -> u64 {
        self.snapshots.first().map_or(0, |s| s.ts_ns)
    }

    /// Virtual timestamp this session's activity ends at: the terminal
    /// record's time when one reached disk, else the newest snapshot.
    pub fn end_ts_ns(&self) -> u64 {
        self.terminal
            .as_ref()
            .map(|t| t.at_ns)
            .or_else(|| self.last_ts_ns())
            .unwrap_or(0)
    }

    /// Whether this session's `[start_ts_ns, end_ts_ns]` activity window
    /// intersects the closed window `[since_ns, until_ns]`.
    pub fn overlaps_window(&self, since_ns: u64, until_ns: u64) -> bool {
        self.start_ts_ns() <= until_ns && self.end_ts_ns() >= since_ns
    }
}

/// Result of scanning one journal directory.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// All sessions found, ordered by `(epoch, session_id)`.
    pub sessions: Vec<RecoveredSession>,
    /// Total corrupt records discarded across all sessions.
    pub corrupt_records: u64,
    /// Total bytes read.
    pub bytes_scanned: u64,
    /// Sessions whose files vanished mid-scan (a concurrent retention
    /// sweep deleted them between directory listing and read). Not an
    /// error and not corruption — the sweep won the race.
    pub sessions_swept: u64,
}

impl JournalScan {
    /// Drop every session whose activity window does not intersect the
    /// closed virtual-time window `[since_ns, until_ns]`. Journals carry
    /// only virtual timestamps, so this is the windowing primitive for
    /// history queries ("what ran between t₀ and t₁").
    pub fn retain_window(&mut self, since_ns: u64, until_ns: u64) {
        self.sessions
            .retain(|s| s.overlaps_window(since_ns, until_ns));
    }
}

/// One session's segment files, as found by [`list_sessions`]: names only,
/// nothing opened or read yet.
#[derive(Debug, Clone)]
pub struct SessionSegments {
    /// Epoch parsed from the file names.
    pub epoch: u32,
    /// Session id parsed from the file names.
    pub session_id: u64,
    /// Segment index -> path.
    pub(crate) segments: BTreeMap<u32, PathBuf>,
}

/// What [`read_session`] made of one listed session.
#[derive(Debug, Clone)]
pub struct SessionRead {
    /// The recovered session; `None` when its files vanished before any of
    /// it was read (a concurrent retention sweep deleted it between
    /// directory listing and read). Not an error and not corruption — the
    /// sweep won the race.
    pub session: Option<RecoveredSession>,
    /// Bytes read from this session's segments.
    pub bytes_scanned: u64,
}

/// List the session journals under `dir` from file names alone, ordered by
/// `(epoch, session_id)`. I/O errors on the directory itself propagate;
/// unknown files are ignored.
pub fn list_sessions(dir: &Path) -> std::io::Result<Vec<SessionSegments>> {
    let mut groups: BTreeMap<(u32, u64), BTreeMap<u32, PathBuf>> = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Some((epoch, session, segment)) =
            parse_segment_file_name(&entry.file_name().to_string_lossy())
        else {
            continue;
        };
        groups
            .entry((epoch, session))
            .or_default()
            .insert(segment, entry.path());
    }
    Ok(groups
        .into_iter()
        .map(|((epoch, session_id), segments)| SessionSegments {
            epoch,
            session_id,
            segments,
        })
        .collect())
}

/// Read one listed session: walk its segment chain in order and fold every
/// valid record straight into the [`RecoveredSession`]. Unreadable content
/// never errors — it is tallied as corruption on the session.
pub fn read_session(listed: &SessionSegments) -> SessionRead {
    let SessionSegments {
        epoch,
        session_id,
        ref segments,
    } = *listed;
    let mut recovered = RecoveredSession {
        epoch,
        session_id,
        meta: None,
        snapshots: Vec::new(),
        terminal: None,
        alerts: Vec::new(),
        estimator: None,
        clean_shutdown: false,
        corrupt_records: 0,
    };
    let mut bytes_scanned = 0u64;
    let mut truncated = false;
    let mut swept = false;
    for expect in 0.. {
        // Stop at the first gap in the segment chain: anything past a
        // missing segment is unordered and untrusted.
        let Some(path) = segments.get(&expect) else {
            break;
        };
        if truncated || swept {
            // A corrupt segment invalidates everything after it; later
            // segments exist but their records follow a hole. Count
            // each skipped segment as one corrupt record. (After a
            // sweep race the rest of the session is gone too, but that
            // is deletion, not damage — nothing is tallied.)
            if truncated {
                recovered.corrupt_records += 1;
            }
            continue;
        }
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            // The file was listed but is gone by the time we read it: a
            // concurrent retention sweep deleted this session. Sweeps
            // remove whole session journals oldest-epoch-first, so
            // treat the session as swept — truncate what we have
            // without tallying corruption; if nothing was read yet the
            // whole session is dropped below, exactly as if the sweep
            // had finished before the scan started.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                swept = true;
                continue;
            }
            Err(_) => {
                recovered.corrupt_records += 1;
                truncated = true;
                continue;
            }
        };
        bytes_scanned += bytes.len() as u64;
        let corrupt = read_segment(&bytes, epoch, session_id, expect, |record| {
            fold_record(&mut recovered, record)
        });
        recovered.corrupt_records += corrupt;
        truncated = corrupt > 0;
    }
    // The sweep removed the session before any of it was read: report it as
    // swept rather than as an empty (and apparently corrupt) session — a
    // scan racing retention must agree with a scan run after it.
    let gone = swept && recovered.meta.is_none() && recovered.snapshots.is_empty();
    SessionRead {
        session: (!gone).then_some(recovered),
        bytes_scanned,
    }
}

fn fold_record(recovered: &mut RecoveredSession, record: Record) {
    match record {
        Record::Meta(m) => {
            // First meta wins; a duplicate would be a writer bug.
            if recovered.meta.is_none() {
                // A baked-in selection (rewritten journal) seeds the
                // session's estimator; a later standalone record
                // overrides it.
                if recovered.estimator.is_none() {
                    recovered.estimator = m.estimator.clone();
                }
                recovered.meta = Some(*m);
            }
        }
        Record::Snapshot(s) => {
            // Snapshots after the terminal record would be a writer bug;
            // tolerate by ignoring them.
            if recovered.terminal.is_none() {
                recovered.snapshots.push(s);
            }
        }
        Record::Terminal(t) => {
            if recovered.terminal.is_none() {
                recovered.terminal = Some(t);
            }
        }
        Record::CleanShutdown => recovered.clean_shutdown = true,
        Record::Alert(a) => recovered.alerts.push(a),
        Record::Estimator(sel) => recovered.estimator = Some(sel),
    }
}

/// Read every session journal under `dir`: [`list_sessions`], then
/// [`read_session`] on each. I/O errors on the directory itself propagate;
/// unreadable *content* never does (it is tallied as corruption instead).
pub fn scan_dir(dir: &Path) -> std::io::Result<JournalScan> {
    let mut scan = JournalScan::default();
    for listed in list_sessions(dir)? {
        let read = read_session(&listed);
        scan.bytes_scanned += read.bytes_scanned;
        match read.session {
            Some(session) => {
                scan.corrupt_records += session.corrupt_records;
                scan.sessions.push(session);
            }
            None => scan.sessions_swept += 1,
        }
    }
    Ok(scan)
}

/// Decode one segment's bytes, handing each record to `sink` and stopping
/// at the first invalid frame. Returns the corrupt-record count: 1 when the
/// segment was truncated (the torn/invalid frame itself) or its header was
/// unusable, else 0.
fn read_segment(
    bytes: &[u8],
    epoch: u32,
    session_id: u64,
    segment: u32,
    mut sink: impl FnMut(Record),
) -> u64 {
    let Some(header) = SegmentHeader::decode(bytes) else {
        return 1;
    };
    if header.epoch != epoch || header.session_id != session_id || header.segment != segment {
        // Header intact but claims a different identity than its file name
        // — a renamed or cross-linked file. Nothing in it is trustworthy.
        return 1;
    }
    let mut rest = &bytes[SEGMENT_HEADER_BYTES as usize..];
    while !rest.is_empty() {
        if rest.len() < 8 {
            return 1; // torn frame header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD_BYTES as usize || rest.len() < 8 + len {
            return 1; // absurd length / torn payload
        }
        let payload = &rest[8..8 + len];
        if crate::record::crc32(payload) != crc {
            return 1; // bit rot or torn write inside the payload
        }
        match Record::decode_payload(payload) {
            Some(r) => sink(r),
            None => return 1, // CRC-valid but undecodable
        }
        rest = &rest[8 + len..];
    }
    0
}

/// Decode a standalone segment byte buffer (exposed for tests and offline
/// tooling); same truncation semantics as [`scan_dir`].
pub fn read_segment_bytes(bytes: &[u8]) -> (Vec<Record>, u64) {
    let mut records = Vec::new();
    let corrupt = match SegmentHeader::decode(bytes) {
        Some(h) => read_segment(bytes, h.epoch, h.session_id, h.segment, |r| records.push(r)),
        None => 1,
    };
    (records, corrupt)
}
