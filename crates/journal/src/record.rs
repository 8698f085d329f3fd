//! The on-disk record format: length-prefixed, CRC32-checksummed frames.
//!
//! Every segment file opens with a fixed [`SegmentHeader`], followed by
//! zero or more frames:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! ```
//!
//! The payload's first byte is the record type; the rest is a record-specific
//! little-endian body. Integrity is per-record: a reader walks frames until
//! the first one that is torn (fewer bytes than the length prefix claims),
//! oversized, or fails its CRC, and truncates there — everything before the
//! first invalid frame is trusted, everything after is discarded. That is the
//! whole crash-consistency story: appends are sequential, so the only damage
//! process death can do is a torn tail.
//!
//! All encoding is hand-rolled little-endian — the vendored serde stub has no
//! binary format, and a durability format should not depend on one anyway.

use lqs_exec::{DmvSnapshot, NodeCounters};
use lqs_plan::{CostModel, PhysicalPlan};

/// Format version stamped into every segment header and meta record.
pub const FORMAT_VERSION: u16 = 1;

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: [u8; 4] = *b"LQSJ";

/// Size of the fixed segment header in bytes.
pub const SEGMENT_HEADER_BYTES: u64 = 4 + 2 + 4 + 8 + 4;

/// Upper bound on a single payload; a length prefix beyond this is treated
/// as corruption rather than an allocation request.
pub(crate) const MAX_PAYLOAD_BYTES: u32 = 16 * 1024 * 1024;

/// Record type tags (first payload byte).
pub(crate) const TAG_META: u8 = 1;
/// Snapshot record tag.
pub(crate) const TAG_SNAPSHOT: u8 = 2;
/// Terminal-state record tag.
pub(crate) const TAG_TERMINAL: u8 = 3;
/// Clean-shutdown sentinel tag.
pub(crate) const TAG_CLEAN_SHUTDOWN: u8 = 4;
/// Watchdog alert record tag.
pub(crate) const TAG_ALERT: u8 = 5;
/// Estimator-selection record tag (ensemble final selection + weights).
pub(crate) const TAG_ESTIMATOR: u8 = 6;

/// CRC32 polynomial (IEEE 802.3), reflected form.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `CRC32_TABLES[0]` is the
/// classic byte-at-a-time table; `CRC32_TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets eight input bytes be folded with
/// eight independent lookups instead of 64 dependent shift/xor rounds.
static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected) over `data`: slice-by-8 over whole 8-byte
/// groups, byte-at-a-time over the tail. Safe code only; the tables are
/// 8 KiB of read-only data.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut groups = data.chunks_exact(8);
    for g in &mut groups {
        let lo = crc ^ u32::from_le_bytes([g[0], g[1], g[2], g[3]]);
        let hi = u32::from_le_bytes([g[4], g[5], g[6], g[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in groups.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Header of one segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Format version of the records that follow.
    pub version: u16,
    /// Journal epoch (one per process incarnation of the writing service).
    pub epoch: u32,
    /// Session id within the epoch.
    pub session_id: u64,
    /// Segment index within the session's journal (0-based).
    pub segment: u32,
}

impl SegmentHeader {
    /// Encode to the fixed wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SEGMENT_HEADER_BYTES as usize);
        buf.extend_from_slice(&SEGMENT_MAGIC);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.session_id.to_le_bytes());
        buf.extend_from_slice(&self.segment.to_le_bytes());
        buf
    }

    /// Decode from the head of `buf`; `None` on bad magic/short header.
    pub(crate) fn decode(buf: &[u8]) -> Option<SegmentHeader> {
        if buf.len() < SEGMENT_HEADER_BYTES as usize || buf[..4] != SEGMENT_MAGIC {
            return None;
        }
        let mut d = Dec::new(&buf[4..]);
        Some(SegmentHeader {
            version: d.u16()?,
            epoch: d.u32()?,
            session_id: d.u64()?,
            segment: d.u32()?,
        })
    }
}

/// Static metadata journaled once, as the first record of a session journal:
/// everything recovery needs to re-resolve the plan and rebuild a
/// bit-identical estimator (cost model included — the PR 2 parity rule).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Session id assigned by the originating registry.
    pub session_id: u64,
    /// Session display name.
    pub name: String,
    /// Workload label (accuracy telemetry).
    pub workload: String,
    /// Plan node count (snapshot well-formedness check).
    pub n_nodes: u32,
    /// Structural fingerprint of the plan ([`plan_fingerprint`]); recovery
    /// refuses to re-attach an estimator to a plan that no longer matches.
    pub plan_fingerprint: u64,
    /// `ExecOptions::snapshot_target` of the run.
    pub snapshot_target: u64,
    /// `ExecOptions::snapshot_interval_ns` of the run.
    pub snapshot_interval_ns: Option<u64>,
    /// Cost model the run was charged under.
    pub cost_model: CostModel,
    /// Execution mode the engine resolved for this run (tuple or batch).
    /// Journals written before this field existed decode as
    /// [`JournalExecMode::Unknown`] — the field is optional-trailing on the
    /// wire, so old readers reject new metas loudly (trailing bytes) and
    /// new readers accept old metas.
    pub exec_mode: JournalExecMode,
    /// Ensemble estimator selection, when known at meta time (optional
    /// trailing on the wire, like `exec_mode`). Live sessions journal their
    /// *final* selection as a standalone [`Record::Estimator`] instead,
    /// because selection is only settled once the run terminates; this field
    /// exists so offline tools rewriting journals can bake it in. Journals
    /// written before the field existed decode as `None`.
    pub estimator: Option<EstimatorRecord>,
}

/// Which ensemble member served a session, with the final member weights —
/// journaled so post-mortems can segment accuracy by estimator. Weights are
/// in ensemble member order and sum to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorRecord {
    /// Id of the selected (arg-max weight) member, e.g. `"lqs"`.
    pub selected: String,
    /// `(member id, normalized weight)` pairs, ensemble order.
    pub weights: Vec<(String, f64)>,
}

/// The execution mode a journaled run actually used, for segmenting
/// history analytics by engine path. `Unknown` covers journals written
/// before the field existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JournalExecMode {
    /// Journal predates the field (or the writer did not know).
    #[default]
    Unknown,
    /// Tuple-at-a-time (GetNext) execution.
    Tuple,
    /// Vectorized batch execution.
    Batch,
}

impl JournalExecMode {
    fn to_tag(self) -> u8 {
        match self {
            JournalExecMode::Unknown => 0,
            JournalExecMode::Tuple => 1,
            JournalExecMode::Batch => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => JournalExecMode::Unknown,
            1 => JournalExecMode::Tuple,
            2 => JournalExecMode::Batch,
            _ => return None,
        })
    }
}

/// Kind of a journaled watchdog alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Session is running but its published snapshot sequence has not
    /// advanced for longer than the watchdog's stall window.
    Stalled,
    /// The model's progress estimate and the observed-rows progress have
    /// drifted apart beyond the watchdog's divergence band.
    Diverging,
    /// The watchdog's remediation policy acted on a stalled session
    /// (cancelled or quarantined it); `detail` names the action.
    Remediated,
}

impl AlertKind {
    /// Stable lowercase label (metric/JSON value).
    pub fn as_str(self) -> &'static str {
        match self {
            AlertKind::Stalled => "stalled",
            AlertKind::Diverging => "diverging",
            AlertKind::Remediated => "remediated",
        }
    }

    fn to_tag(self) -> u8 {
        match self {
            AlertKind::Stalled => 0,
            AlertKind::Diverging => 1,
            AlertKind::Remediated => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => AlertKind::Stalled,
            1 => AlertKind::Diverging,
            2 => AlertKind::Remediated,
            _ => return None,
        })
    }
}

/// One watchdog alert, journaled when the live watchdog classifies the
/// session as unhealthy. Alerts are diagnostic annotations: recovery
/// ignores them, history surfaces them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRecord {
    /// What the watchdog concluded.
    pub kind: AlertKind,
    /// Virtual timestamp of the newest snapshot when the alert was raised.
    pub ts_ns: u64,
    /// Snapshot sequence number the session was at when the alert fired.
    pub seq: u64,
    /// Deterministic human-readable explanation.
    pub detail: String,
}

/// Terminal state of a journaled session, mirroring the server's terminal
/// `SessionState`s without depending on the server crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminalKind {
    /// Ran to completion.
    Succeeded,
    /// Aborted by cancellation.
    Cancelled,
    /// Aborted by its virtual-time deadline.
    DeadlineExceeded,
    /// Execution panicked.
    Failed,
    /// Shed at admission.
    Rejected,
}

impl TerminalKind {
    /// Stable lowercase label (metric/JSON value); the same words
    /// `lqs-server`'s `state_label` uses for the matching session states.
    pub fn as_str(self) -> &'static str {
        match self {
            TerminalKind::Succeeded => "succeeded",
            TerminalKind::Cancelled => "cancelled",
            TerminalKind::DeadlineExceeded => "deadline_exceeded",
            TerminalKind::Failed => "failed",
            TerminalKind::Rejected => "rejected",
        }
    }

    fn to_tag(self) -> u8 {
        match self {
            TerminalKind::Succeeded => 0,
            TerminalKind::Cancelled => 1,
            TerminalKind::DeadlineExceeded => 2,
            TerminalKind::Failed => 3,
            TerminalKind::Rejected => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => TerminalKind::Succeeded,
            1 => TerminalKind::Cancelled,
            2 => TerminalKind::DeadlineExceeded,
            3 => TerminalKind::Failed,
            4 => TerminalKind::Rejected,
            _ => return None,
        })
    }
}

/// The terminal-state record: how the session ended, at what virtual time,
/// and what it returned. Final counters are *not* duplicated here — the
/// terminal publish (`complete`/`abort`) already journaled them as the last
/// snapshot record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminalRecord {
    /// How the session ended.
    pub kind: TerminalKind,
    /// Virtual time of completion/abort (0 when the session never ran).
    pub at_ns: u64,
    /// Rows returned by the root operator (completed runs only).
    pub rows_returned: u64,
    /// Panic message (failed runs only).
    pub message: String,
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Session metadata (first record of a journal).
    Meta(Box<SessionMeta>),
    /// One published DMV snapshot.
    Snapshot(DmvSnapshot),
    /// Terminal state.
    Terminal(TerminalRecord),
    /// Clean-shutdown sentinel (last record of a cleanly closed journal).
    CleanShutdown,
    /// Watchdog alert annotation.
    Alert(AlertRecord),
    /// Final ensemble estimator selection for the session (appended at
    /// terminal time; the last one in the journal wins on replay).
    Estimator(EstimatorRecord),
}

/// Structural fingerprint of a plan: FNV-1a over operator names, tree
/// shape, optimizer estimates, and batch-mode flags — everything the
/// estimator statics derive from the plan. Two plans with equal
/// fingerprints produce bit-identical estimator weights against the same
/// database and cost model.
pub fn plan_fingerprint(plan: &PhysicalPlan) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_0000_01b3);
        }
    };
    eat(&(plan.len() as u64).to_le_bytes());
    eat(&(plan.root().0 as u64).to_le_bytes());
    for n in plan.nodes() {
        eat(n.op.display_name().as_bytes());
        eat(&[n.batch_mode as u8, n.children.len() as u8]);
        for c in &n.children {
            eat(&(c.0 as u64).to_le_bytes());
        }
        eat(&n.est_rows_per_exec.to_bits().to_le_bytes());
        eat(&n.est_executions.to_bits().to_le_bytes());
        eat(&n.est_cpu_ns.to_bits().to_le_bytes());
        eat(&n.est_io_pages.to_bits().to_le_bytes());
    }
    h
}

/// The cost model's fields in wire order. Encoding writes the field count
/// first, so a model that grows fields fails decode loudly instead of
/// silently misaligning.
fn cost_model_fields(m: &CostModel) -> [f64; 23] {
    [
        m.io_page_ns,
        m.scan_row_ns,
        m.batch_row_ns,
        m.segment_io_pages,
        m.pred_row_ns,
        m.filter_row_ns,
        m.compute_expr_ns,
        m.sort_cmp_ns,
        m.sort_input_fraction,
        m.hash_build_row_ns,
        m.hash_probe_row_ns,
        m.hash_output_row_ns,
        m.merge_row_ns,
        m.nl_pair_ns,
        m.nl_outer_row_ns,
        m.seek_row_ns,
        m.stream_agg_row_ns,
        m.exchange_row_ns,
        m.spool_write_row_ns,
        m.spool_read_row_ns,
        m.spool_rows_per_page,
        m.rid_lookup_pages,
        m.bitmap_row_ns,
    ]
}

fn cost_model_from_fields(f: &[f64]) -> Option<CostModel> {
    if f.len() != 23 {
        return None;
    }
    Some(CostModel {
        io_page_ns: f[0],
        scan_row_ns: f[1],
        batch_row_ns: f[2],
        segment_io_pages: f[3],
        pred_row_ns: f[4],
        filter_row_ns: f[5],
        compute_expr_ns: f[6],
        sort_cmp_ns: f[7],
        sort_input_fraction: f[8],
        hash_build_row_ns: f[9],
        hash_probe_row_ns: f[10],
        hash_output_row_ns: f[11],
        merge_row_ns: f[12],
        nl_pair_ns: f[13],
        nl_outer_row_ns: f[14],
        seek_row_ns: f[15],
        stream_agg_row_ns: f[16],
        exchange_row_ns: f[17],
        spool_write_row_ns: f[18],
        spool_read_row_ns: f[19],
        spool_rows_per_page: f[20],
        rid_lookup_pages: f[21],
        bitmap_row_ns: f[22],
    })
}

// ---------------------------------------------------------------------------
// Encoding

/// Little-endian writer appending one payload to a caller-owned buffer.
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    fn new(buf: &'a mut Vec<u8>, tag: u8) -> Self {
        buf.push(tag);
        Enc { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a payload body.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD_BYTES as usize {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_counters(e: &mut Enc, c: &NodeCounters) {
    e.u64(c.rows_output);
    e.u64(c.rows_input);
    e.u64(c.logical_reads);
    e.u64(c.segments_processed);
    e.u64(c.cpu_ns);
    e.u64(c.rows_buffered);
    e.u64(c.rows_processed);
    e.u64(c.executions);
    e.opt_u64(c.open_ns);
    e.opt_u64(c.first_row_ns);
    e.opt_u64(c.close_ns);
}

fn decode_counters(d: &mut Dec) -> Option<NodeCounters> {
    Some(NodeCounters {
        rows_output: d.u64()?,
        rows_input: d.u64()?,
        logical_reads: d.u64()?,
        segments_processed: d.u64()?,
        cpu_ns: d.u64()?,
        rows_buffered: d.u64()?,
        rows_processed: d.u64()?,
        executions: d.u64()?,
        open_ns: d.opt_u64()?,
        first_row_ns: d.opt_u64()?,
        close_ns: d.opt_u64()?,
    })
}

fn encode_estimator(e: &mut Enc, sel: &EstimatorRecord) {
    e.str(&sel.selected);
    e.u32(sel.weights.len() as u32);
    for (id, w) in &sel.weights {
        e.str(id);
        e.f64(*w);
    }
}

fn decode_estimator(d: &mut Dec) -> Option<EstimatorRecord> {
    let selected = d.str()?;
    let n = d.u32()? as usize;
    if n > 1024 {
        return None;
    }
    let mut weights = Vec::with_capacity(n);
    for _ in 0..n {
        let id = d.str()?;
        let w = d.f64()?;
        weights.push((id, w));
    }
    Some(EstimatorRecord { selected, weights })
}

/// A borrowed view of one record: what the append path encodes from, so a
/// published snapshot is framed straight out of the publisher's reference
/// instead of being cloned into an owned [`Record`] first.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordRef<'a> {
    Meta(&'a SessionMeta),
    Snapshot(&'a DmvSnapshot),
    Terminal(&'a TerminalRecord),
    CleanShutdown,
    Alert(&'a AlertRecord),
    Estimator(&'a EstimatorRecord),
}

impl RecordRef<'_> {
    /// Append this record's payload (type tag + body, no framing) to `buf`.
    fn encode_payload_into(self, buf: &mut Vec<u8>) {
        match self {
            RecordRef::Meta(m) => {
                let mut e = Enc::new(buf, TAG_META);
                e.u16(FORMAT_VERSION);
                e.u64(m.session_id);
                e.str(&m.name);
                e.str(&m.workload);
                e.u32(m.n_nodes);
                e.u64(m.plan_fingerprint);
                e.u64(m.snapshot_target);
                e.opt_u64(m.snapshot_interval_ns);
                let fields = cost_model_fields(&m.cost_model);
                e.u32(fields.len() as u32);
                for f in fields {
                    e.f64(f);
                }
                // Optional trailing fields (added after FORMAT_VERSION 1
                // shipped): absent on old journals, always written now, in
                // strict order — exec mode, then estimator selection.
                e.u8(m.exec_mode.to_tag());
                match &m.estimator {
                    None => e.u8(0),
                    Some(sel) => {
                        e.u8(1);
                        encode_estimator(&mut e, sel);
                    }
                }
            }
            RecordRef::Snapshot(s) => {
                let mut e = Enc::new(buf, TAG_SNAPSHOT);
                e.u64(s.ts_ns);
                e.u32(s.nodes.len() as u32);
                for c in &s.nodes {
                    encode_counters(&mut e, c);
                }
            }
            RecordRef::Terminal(t) => {
                let mut e = Enc::new(buf, TAG_TERMINAL);
                e.u8(t.kind.to_tag());
                e.u64(t.at_ns);
                e.u64(t.rows_returned);
                e.str(&t.message);
            }
            RecordRef::CleanShutdown => buf.push(TAG_CLEAN_SHUTDOWN),
            RecordRef::Alert(a) => {
                let mut e = Enc::new(buf, TAG_ALERT);
                e.u8(a.kind.to_tag());
                e.u64(a.ts_ns);
                e.u64(a.seq);
                e.str(&a.detail);
            }
            RecordRef::Estimator(sel) => {
                let mut e = Enc::new(buf, TAG_ESTIMATOR);
                encode_estimator(&mut e, sel);
            }
        }
    }

    /// Append this record's frame to `buf`: the payload is encoded in place
    /// behind an 8-byte hole, then its length and CRC are patched into the
    /// hole — one buffer, no intermediate payload vector.
    pub(crate) fn encode_frame_into(self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0; 8]);
        self.encode_payload_into(buf);
        let (head, payload) = buf[start..].split_at_mut(8);
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    }
}

impl Record {
    /// This record as the borrowed view the encoder works from.
    pub(crate) fn borrowed(&self) -> RecordRef<'_> {
        match self {
            Record::Meta(m) => RecordRef::Meta(m),
            Record::Snapshot(s) => RecordRef::Snapshot(s),
            Record::Terminal(t) => RecordRef::Terminal(t),
            Record::CleanShutdown => RecordRef::CleanShutdown,
            Record::Alert(a) => RecordRef::Alert(a),
            Record::Estimator(sel) => RecordRef::Estimator(sel),
        }
    }

    /// Encode this record's payload (type tag + body, no framing).
    #[cfg(test)]
    pub(crate) fn encode_payload(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.borrowed().encode_payload_into(&mut payload);
        payload
    }

    /// Frame this record for appending: length prefix + CRC + payload.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut frame = Vec::new();
        self.borrowed().encode_frame_into(&mut frame);
        frame
    }

    /// Decode a CRC-verified payload. `None` means the payload is
    /// structurally invalid (unknown tag, truncated body, trailing bytes) —
    /// indistinguishable from corruption and treated identically.
    pub(crate) fn decode_payload(payload: &[u8]) -> Option<Record> {
        let (&tag, body) = payload.split_first()?;
        let mut d = Dec::new(body);
        let record = match tag {
            TAG_META => {
                let version = d.u16()?;
                if version != FORMAT_VERSION {
                    return None;
                }
                let session_id = d.u64()?;
                let name = d.str()?;
                let workload = d.str()?;
                let n_nodes = d.u32()?;
                let plan_fingerprint = d.u64()?;
                let snapshot_target = d.u64()?;
                let snapshot_interval_ns = d.opt_u64()?;
                let n_fields = d.u32()? as usize;
                if n_fields > 1024 {
                    return None;
                }
                let mut fields = Vec::with_capacity(n_fields);
                for _ in 0..n_fields {
                    fields.push(d.f64()?);
                }
                // Optional trailing fields: journals written before each
                // existed simply end early.
                let exec_mode = if d.done() {
                    JournalExecMode::Unknown
                } else {
                    JournalExecMode::from_tag(d.u8()?)?
                };
                let estimator = if d.done() {
                    None
                } else {
                    match d.u8()? {
                        0 => None,
                        1 => Some(decode_estimator(&mut d)?),
                        _ => return None,
                    }
                };
                Record::Meta(Box::new(SessionMeta {
                    session_id,
                    name,
                    workload,
                    n_nodes,
                    plan_fingerprint,
                    snapshot_target,
                    snapshot_interval_ns,
                    cost_model: cost_model_from_fields(&fields)?,
                    exec_mode,
                    estimator,
                }))
            }
            TAG_SNAPSHOT => {
                let ts_ns = d.u64()?;
                let n = d.u32()? as usize;
                if n > 100_000 {
                    return None;
                }
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    nodes.push(decode_counters(&mut d)?);
                }
                Record::Snapshot(DmvSnapshot { ts_ns, nodes })
            }
            TAG_TERMINAL => Record::Terminal(TerminalRecord {
                kind: TerminalKind::from_tag(d.u8()?)?,
                at_ns: d.u64()?,
                rows_returned: d.u64()?,
                message: d.str()?,
            }),
            TAG_CLEAN_SHUTDOWN => Record::CleanShutdown,
            TAG_ALERT => Record::Alert(AlertRecord {
                kind: AlertKind::from_tag(d.u8()?)?,
                ts_ns: d.u64()?,
                seq: d.u64()?,
                detail: d.str()?,
            }),
            TAG_ESTIMATOR => Record::Estimator(decode_estimator(&mut d)?),
            _ => return None,
        };
        if !d.done() {
            return None;
        }
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_meta() -> SessionMeta {
        SessionMeta {
            session_id: 7,
            name: "tpch-q01".into(),
            workload: "tpch".into(),
            n_nodes: 5,
            plan_fingerprint: 0xDEAD_BEEF,
            snapshot_target: 192,
            snapshot_interval_ns: Some(500_000),
            cost_model: CostModel::default(),
            exec_mode: JournalExecMode::Batch,
            estimator: None,
        }
    }

    fn sample_estimator() -> EstimatorRecord {
        EstimatorRecord {
            selected: "lqs".into(),
            weights: vec![("lqs".into(), 0.75), ("dne".into(), 0.25)],
        }
    }

    fn sample_snapshot() -> DmvSnapshot {
        DmvSnapshot {
            ts_ns: 123_456,
            nodes: vec![
                NodeCounters {
                    rows_output: 10,
                    rows_input: 20,
                    logical_reads: 3,
                    open_ns: Some(1),
                    first_row_ns: Some(2),
                    ..NodeCounters::default()
                },
                NodeCounters::default(),
            ],
        }
    }

    /// The original bit-at-a-time CRC32 loop, kept as the oracle the table
    /// kernel is checked against.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_matches_bitwise_oracle_at_every_short_length_and_offset() {
        // Every length through several 8-byte groups plus every tail, at
        // every start offset within a group of one shared buffer.
        let shared: Vec<u8> = (0..80u32).map(|i| (i * 151 + 43) as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &shared[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bitwise(data),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn crc32_matches_bitwise_oracle_on_random_buffers(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..65_537),
        ) {
            proptest::prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    /// Frames of the sample records as the pre-`RecordRef` encoder (payload
    /// vector, then a second framed vector) wrote them. The single-buffer
    /// encoder must stay byte-identical: these are the on-disk format.
    #[test]
    fn golden_frames_are_byte_identical() {
        let golden: [(Record, &str); 6] = [
            (
                Record::Meta(Box::new(SessionMeta {
                    estimator: Some(sample_estimator()),
                    ..sample_meta()
                })),
                "23010000b8e2f564010100070000000000000008000000747063682d713031040000007470636805000000efbeadde00000000c0000000000000000120a107000000000017000000000000000088e3400000000000004440000000000000104000000000000020400000000000002e40000000000000284000000000000020400000000000003e40333333333333e33f00000000008051400000000000804b400000000000003e4000000000008041400000000000003240000000000000344000000000000039400000000000003e400000000000003940000000000080464000000000000039400000000000006940000000000000f03f00000000000024400201030000006c717302000000030000006c7173000000000000e83f03000000646e65000000000000d03f",
            ),
            (
                Record::Snapshot(sample_snapshot()),
                "a3000000e47e4b400240e2010000000000020000000a0000000000000014000000000000000300000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000101000000000000000102000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
            ),
            (
                Record::Terminal(TerminalRecord {
                    kind: TerminalKind::Failed,
                    at_ns: 42,
                    rows_returned: 0,
                    message: "boom".into(),
                }),
                "1a000000b03c3e1a03032a00000000000000000000000000000004000000626f6f6d",
            ),
            (
                Record::Alert(AlertRecord {
                    kind: AlertKind::Diverging,
                    ts_ns: 9_000,
                    seq: 17,
                    detail: "estimate 0.90 vs observed 0.20".into(),
                }),
                "3400000070d538f60501282300000000000011000000000000001e000000657374696d61746520302e3930207673206f6273657276656420302e3230",
            ),
            (
                Record::Estimator(sample_estimator()),
                "2a000000a996b4cc06030000006c717302000000030000006c7173000000000000e83f03000000646e65000000000000d03f",
            ),
            (Record::CleanShutdown, "01000000942b6fd504"),
        ];
        for (record, hex) in &golden {
            let frame: String = record
                .encode_frame()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(&frame, hex, "{record:?}");
        }
        // Frames appended back to back into one reused buffer (the writer's
        // shape) are the same bytes.
        let mut buf = Vec::new();
        for (record, _) in &golden {
            buf.clear();
            record.borrowed().encode_frame_into(&mut buf);
            assert_eq!(buf, record.encode_frame());
        }
    }

    #[test]
    fn records_roundtrip() {
        let records = [
            Record::Meta(Box::new(sample_meta())),
            Record::Snapshot(sample_snapshot()),
            Record::Terminal(TerminalRecord {
                kind: TerminalKind::Failed,
                at_ns: 42,
                rows_returned: 0,
                message: "boom".into(),
            }),
            Record::CleanShutdown,
            Record::Alert(AlertRecord {
                kind: AlertKind::Diverging,
                ts_ns: 9_000,
                seq: 17,
                detail: "estimate 0.90 vs observed 0.20".into(),
            }),
            Record::Estimator(sample_estimator()),
            Record::Meta(Box::new(SessionMeta {
                estimator: Some(sample_estimator()),
                ..sample_meta()
            })),
        ];
        for r in &records {
            let payload = r.encode_payload();
            assert_eq!(Record::decode_payload(&payload).as_ref(), Some(r));
        }
    }

    #[test]
    fn meta_without_exec_mode_decodes_as_unknown() {
        // A FORMAT_VERSION 1 meta written before both trailing fields
        // (exec mode + estimator presence): the same payload minus its
        // last two bytes.
        let mut payload = Record::Meta(Box::new(sample_meta())).encode_payload();
        payload.pop();
        payload.pop();
        let Some(Record::Meta(m)) = Record::decode_payload(&payload) else {
            panic!("old-format meta must decode");
        };
        assert_eq!(m.exec_mode, JournalExecMode::Unknown);
        assert_eq!(m.estimator, None);
        assert_eq!(m.session_id, sample_meta().session_id);
    }

    #[test]
    fn meta_without_estimator_field_decodes_as_none() {
        // A meta written after exec mode but before the estimator field:
        // the payload ends right after the exec-mode byte.
        let mut payload = Record::Meta(Box::new(sample_meta())).encode_payload();
        payload.pop(); // drop the estimator presence byte
        let Some(Record::Meta(m)) = Record::decode_payload(&payload) else {
            panic!("pre-estimator meta must decode");
        };
        assert_eq!(m.exec_mode, JournalExecMode::Batch);
        assert_eq!(m.estimator, None);
    }

    #[test]
    fn truncated_estimator_payload_is_corruption() {
        // A torn tail inside the estimator body must fail decode loudly,
        // not yield a half-parsed selection.
        let full = Record::Estimator(sample_estimator()).encode_payload();
        for cut in 2..full.len() {
            assert_eq!(
                Record::decode_payload(&full[..cut]),
                None,
                "truncation at {cut} must be corruption"
            );
        }
    }

    #[test]
    fn segment_header_roundtrip() {
        let h = SegmentHeader {
            version: FORMAT_VERSION,
            epoch: 3,
            session_id: 12,
            segment: 2,
        };
        let bytes = h.encode();
        assert_eq!(bytes.len() as u64, SEGMENT_HEADER_BYTES);
        assert_eq!(SegmentHeader::decode(&bytes), Some(h));
        assert_eq!(SegmentHeader::decode(b"nope"), None);
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut payload = Record::CleanShutdown.encode_payload();
        payload.push(0);
        assert_eq!(Record::decode_payload(&payload), None);
    }

    #[test]
    fn fingerprint_distinguishes_plans() {
        let db = lqs_storage::Database::new();
        let mut b = lqs_plan::PlanBuilder::new(&db);
        let scan = b.constant_scan(vec![vec![lqs_storage::Value::Int(1)]]);
        let p1 = b.finish(scan);
        let mut b2 = lqs_plan::PlanBuilder::new(&db);
        let scan2 = b2.constant_scan(vec![vec![lqs_storage::Value::Int(1)]]);
        let sort = b2.sort(scan2, vec![lqs_plan::SortKey::desc(0)]);
        let p2 = b2.finish(sort);
        assert_eq!(plan_fingerprint(&p1), plan_fingerprint(&p1));
        assert_ne!(plan_fingerprint(&p1), plan_fingerprint(&p2));
    }
}
