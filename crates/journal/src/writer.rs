//! The write side: per-session append-only journals under one directory,
//! with segment rotation, a retention budget, and a crash-point seam for
//! deterministic process-death simulation. Only the terminal record and
//! the clean-shutdown sentinel are forced to stable storage: mid-run
//! snapshots are reconstructible telemetry, terminal states are the
//! contract. A writer can hold snapshot frames and write a run of them
//! with one `write_all` (group commit) while deciding breaker admission,
//! injected faults, rotation and the crash point record by record, so the
//! files are those of writing each frame alone.

use crate::breaker::{BreakerConfig, BreakerEvent, BreakerState, CircuitBreaker, WriteAdmit};
use crate::metrics::JournalMetrics;
use crate::record::{RecordRef, SegmentHeader, SessionMeta, TerminalRecord, FORMAT_VERSION};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Crash-point seam: lets a chaos harness declare, per session, the exact
/// journal byte offset at which the writing process "dies". The record
/// crossing the boundary is torn mid-write — exactly what a real crash
/// leaves — and every later append (terminal record and clean-shutdown
/// sentinel included) is silently lost.
pub trait WriteCrashPoint: Send + Sync {
    /// Total journal bytes (headers included) after which writes are lost
    /// for the session named `session_key`. `None` = never crashes.
    fn crash_after_bytes(&self, session_key: &str) -> Option<u64>;
}

/// Write-fault seam: lets a chaos harness fail individual journal appends
/// as if the backing device returned an I/O error. Unlike
/// [`WriteCrashPoint`] (which silently loses writes, simulating process
/// death), an injected fault surfaces as a real `Err` on the append path —
/// the input the circuit breaker is built to absorb.
pub trait JournalFaultInjector: Send + Sync {
    /// Whether the `nth` logical append (0-based, meta record included) of
    /// the session named `session_key` fails with an I/O error.
    fn append_fails(&self, session_key: &str, nth: u64) -> bool;
}

/// Configuration of one [`Journal`].
#[derive(Clone)]
pub struct JournalConfig {
    /// Directory holding every session's segment files.
    pub(crate) dir: PathBuf,
    /// Rotate a session's segment once it exceeds this many bytes.
    pub(crate) segment_max_bytes: u64,
    /// Disk budget: [`Journal::sweep_retention`] deletes oldest
    /// prior-epoch session journals until the directory fits. `None` keeps
    /// everything.
    pub(crate) retention_max_bytes: Option<u64>,
    /// Deterministic process-death simulation (chaos testing).
    pub(crate) crash: Option<std::sync::Arc<dyn WriteCrashPoint>>,
    /// Deterministic append-failure injection (chaos testing).
    pub(crate) fault: Option<std::sync::Arc<dyn JournalFaultInjector>>,
    /// Circuit-breaker tuning for the journal's write path.
    pub(crate) breaker: BreakerConfig,
}

impl JournalConfig {
    /// A config with 1 MiB segments, unbounded retention and no crash
    /// faults.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            segment_max_bytes: 1 << 20,
            retention_max_bytes: None,
            crash: None,
            fault: None,
            breaker: BreakerConfig::default(),
        }
    }

    /// Set the segment rotation threshold.
    pub fn with_segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes.max(crate::record::SEGMENT_HEADER_BYTES + 16);
        self
    }

    /// Set the retention disk budget.
    pub fn with_retention_max_bytes(mut self, bytes: u64) -> Self {
        self.retention_max_bytes = Some(bytes);
        self
    }

    /// Attach a crash-point plan (chaos testing).
    pub fn with_crash(mut self, crash: std::sync::Arc<dyn WriteCrashPoint>) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Attach a write-fault plan (chaos testing).
    pub fn with_write_fault(mut self, fault: std::sync::Arc<dyn JournalFaultInjector>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Tune the journal write-path circuit breaker.
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }
}

/// Segment file name for `(epoch, session, segment)`. Zero-padded so
/// lexicographic directory order equals numeric order.
pub(crate) fn segment_file_name(epoch: u32, session_id: u64, segment: u32) -> String {
    format!("e{epoch:05}-s{session_id:08}-g{segment:04}.lqsj")
}

/// Parse a segment file name back to `(epoch, session, segment)`.
pub fn parse_segment_file_name(name: &str) -> Option<(u32, u64, u32)> {
    let rest = name.strip_prefix('e')?.strip_suffix(".lqsj")?;
    let (epoch, rest) = rest.split_once("-s")?;
    let (session, segment) = rest.split_once("-g")?;
    Some((
        epoch.parse().ok()?,
        session.parse().ok()?,
        segment.parse().ok()?,
    ))
}

/// Result of one retention sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionSweep {
    /// Directory size before the sweep.
    pub(crate) bytes_before: u64,
    /// Directory size after the sweep.
    pub(crate) bytes_after: u64,
    /// Whole session journals deleted.
    pub(crate) sessions_deleted: usize,
}

/// One journal directory, shared by every session of one service
/// incarnation. Opening assigns this incarnation the next *epoch* — prior
/// epochs' files are left untouched for recovery to scan.
pub struct Journal {
    config: JournalConfig,
    epoch: u32,
    metrics: JournalMetrics,
    breaker: Arc<CircuitBreaker>,
}

impl Journal {
    /// Create or reopen the journal directory, claiming the next epoch.
    /// Telemetry is recorded into a registry of the journal's own until
    /// [`with_metrics`](Self::with_metrics) names a shared one.
    pub fn open(config: JournalConfig) -> std::io::Result<Journal> {
        std::fs::create_dir_all(&config.dir)?;
        let mut max_epoch = None;
        for entry in std::fs::read_dir(&config.dir)? {
            let entry = entry?;
            if let Some((epoch, _, _)) =
                parse_segment_file_name(&entry.file_name().to_string_lossy())
            {
                max_epoch = Some(max_epoch.map_or(epoch, |m: u32| m.max(epoch)));
            }
        }
        Ok(Journal {
            epoch: max_epoch.map_or(0, |m| m + 1),
            breaker: Arc::new(CircuitBreaker::new(config.breaker)),
            config,
            metrics: JournalMetrics::new(Arc::default()),
        })
    }

    /// Record journal telemetry into `metrics` (a shared registry's
    /// handle) instead of the journal's own.
    pub fn with_metrics(mut self, metrics: JournalMetrics) -> Journal {
        self.metrics = metrics;
        self
    }

    /// This incarnation's epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The journal's metrics.
    pub fn metrics(&self) -> &JournalMetrics {
        &self.metrics
    }

    /// The write-path circuit breaker shared by every writer of this
    /// journal (a failing disk is a directory-level property).
    pub fn breaker(&self) -> &Arc<CircuitBreaker> {
        &self.breaker
    }

    /// Open the journal of one session and write its meta record. The
    /// returned writer is `Sync`; hand an `Arc` to the session handle.
    pub fn writer(&self, meta: SessionMeta) -> std::io::Result<SessionJournal> {
        let crash_at = self
            .config
            .crash
            .as_ref()
            .and_then(|c| c.crash_after_bytes(&meta.name));
        let mut w = SessionJournal {
            inner: Mutex::new(WriterInner {
                dir: self.config.dir.clone(),
                epoch: self.epoch,
                session_id: meta.session_id,
                session_key: meta.name.clone(),
                segment: 0,
                file: None,
                seg_bytes: 0,
                total_bytes: 0,
                crash_at,
                dead: false,
                needs_rotate: false,
                append_index: 0,
                write_errors: 0,
                fault: self.config.fault.clone(),
                segment_max_bytes: self.config.segment_max_bytes,
                frame: Vec::new(),
                held_frames: 0,
                dropped: 0,
            }),
            metrics: self.metrics.clone(),
            breaker: Arc::clone(&self.breaker),
            lost: AtomicU64::new(0),
        };
        w.open_first_segment(&meta)?;
        Ok(w)
    }

    /// Enforce the retention budget: delete whole prior-epoch session
    /// journals, oldest `(epoch, session)` first, until the directory fits.
    /// The current epoch's files are never deleted (its writers may still
    /// be live). Updates the `lqs_journal_bytes` gauge.
    pub fn sweep_retention(&self) -> std::io::Result<RetentionSweep> {
        use std::collections::BTreeMap;
        // (epoch, session) -> (bytes, files)
        let mut groups: BTreeMap<(u32, u64), (u64, Vec<PathBuf>)> = BTreeMap::new();
        let mut total = 0u64;
        for entry in std::fs::read_dir(&self.config.dir)? {
            let entry = entry?;
            let Some((epoch, session, _)) =
                parse_segment_file_name(&entry.file_name().to_string_lossy())
            else {
                continue;
            };
            let size = entry.metadata()?.len();
            total += size;
            let g = groups.entry((epoch, session)).or_default();
            g.0 += size;
            g.1.push(entry.path());
        }
        let bytes_before = total;
        let mut sessions_deleted = 0usize;
        if let Some(budget) = self.config.retention_max_bytes {
            for ((epoch, _), (bytes, files)) in &groups {
                if total <= budget || *epoch >= self.epoch {
                    break;
                }
                for f in files {
                    std::fs::remove_file(f)?;
                }
                total -= bytes;
                sessions_deleted += 1;
            }
        }
        self.metrics.set_journal_bytes(total);
        Ok(RetentionSweep {
            bytes_before,
            bytes_after: total,
            sessions_deleted,
        })
    }
}

struct WriterInner {
    dir: PathBuf,
    epoch: u32,
    session_id: u64,
    /// Session name, the key fault injectors address sessions by.
    session_key: String,
    segment: u32,
    file: Option<File>,
    seg_bytes: u64,
    total_bytes: u64,
    /// Simulated process death: once `total_bytes` reaches this, writes
    /// are torn/lost.
    crash_at: Option<u64>,
    /// True once the simulated crash has fired.
    dead: bool,
    /// Set after a failed append: the segment may end in a torn frame, so
    /// the next admitted write must rotate to a fresh segment before
    /// appending (re-attach never appends after a tear).
    needs_rotate: bool,
    /// Logical appends attempted so far (fault-injection key).
    append_index: u64,
    write_errors: u64,
    fault: Option<std::sync::Arc<dyn JournalFaultInjector>>,
    segment_max_bytes: u64,
    /// The one frame buffer every append of this writer encodes into; kept
    /// so a steady-state append allocates nothing. Between calls it holds
    /// the frames [`SessionJournal::hold_snapshot`] encoded and has not
    /// written yet: whole frames, all bound for the current segment.
    frame: Vec<u8>,
    /// Frames in `frame`, not counting one an append has just encoded.
    held_frames: u64,
    /// Held frames a failed write lost, not yet counted in
    /// [`SessionJournal::lost_records`].
    dropped: u64,
}

/// The most bytes of frames a writer holds. Holding starts by sizing the
/// frame buffer to it once, held frames are written before another one
/// would not fit, and the buffer gives back any capacity above it after a
/// write, so it never grows through a chain of reallocations.
const HOLD_MAX_BYTES: usize = 64 << 10;

impl WriterInner {
    /// Write `bytes`, honoring the crash point: a chunk crossing the crash
    /// offset is written only up to it (a torn record), and everything
    /// after is dropped. Returns `Err` only on real I/O failure.
    fn write_chunk(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.dead {
            return Ok(());
        }
        let mut to_write = bytes;
        if let Some(crash_at) = self.crash_at {
            let remaining = crash_at.saturating_sub(self.total_bytes);
            if (bytes.len() as u64) >= remaining {
                to_write = &bytes[..remaining as usize];
                self.dead = true;
            }
        }
        if let Some(file) = &mut self.file {
            file.write_all(to_write)?;
        }
        self.seg_bytes += to_write.len() as u64;
        self.total_bytes += to_write.len() as u64;
        Ok(())
    }

    fn open_segment(&mut self) -> std::io::Result<()> {
        let name = segment_file_name(self.epoch, self.session_id, self.segment);
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(self.dir.join(name))?;
        self.file = Some(file);
        self.seg_bytes = 0;
        let header = SegmentHeader {
            version: FORMAT_VERSION,
            epoch: self.epoch,
            session_id: self.session_id,
            segment: self.segment,
        }
        .encode();
        self.write_chunk(&header)
    }

    /// Encode `record` into the frame buffer, behind the held frames,
    /// without writing it. Everything a lone append decides per record is
    /// decided here, in the same order: the dead writer, the fault
    /// injector's `nth`, and the rotation (the held frames are written to
    /// the old segment first). So a run of held frames, written later with
    /// one `write_all`, leaves the same files and counters as writing each
    /// frame on its own. Returns the length of the frame it encoded (0: a
    /// writer past its crash point encodes nothing).
    fn hold_record(&mut self, record: RecordRef<'_>) -> std::io::Result<usize> {
        if self.dead {
            self.append_index += 1;
            return Ok(0);
        }
        let nth = self.append_index;
        self.append_index += 1;
        if let Some(fault) = &self.fault {
            if fault.append_fails(&self.session_key, nth) {
                return Err(std::io::Error::other(format!(
                    "injected journal write fault (session {}, append {nth})",
                    self.session_key
                )));
            }
        }
        let held = self.frame.len();
        record.encode_frame_into(&mut self.frame);
        // Rotate before the append if this frame would overflow the
        // segment (never rotate an empty segment — oversized single
        // records just get their own long segment).
        let seg_bytes = self.seg_bytes + held as u64;
        let len = self.frame.len() - held;
        if seg_bytes > crate::record::SEGMENT_HEADER_BYTES
            && seg_bytes + len as u64 > self.segment_max_bytes
        {
            let rotated = self.write_prefix(held).and_then(|()| {
                self.segment += 1;
                self.open_segment()
            });
            if let Err(e) = rotated {
                self.frame.clear();
                return Err(e);
            }
        }
        Ok(len)
    }

    /// Whether the frame just encoded, `len` bytes, must be written now
    /// rather than held: another frame of its size would take the held
    /// bytes past [`HOLD_MAX_BYTES`], or they reach the crash point (so the
    /// tear lands where a lone append would put it, and every later append
    /// meets a dead writer).
    fn must_write(&self, len: usize) -> bool {
        self.frame.len() + len > HOLD_MAX_BYTES
            || (self.crash_at).is_some_and(|at| self.total_bytes + self.frame.len() as u64 >= at)
    }

    /// Write the first `len` bytes of the frame buffer — every held frame —
    /// with one `write_all` and keep what follows. A failed write loses the
    /// held frames (counted in `dropped`) and the bytes after them too.
    fn write_prefix(&mut self, len: usize) -> std::io::Result<()> {
        let held = std::mem::take(&mut self.held_frames);
        if len == 0 {
            return Ok(());
        }
        let mut frame = std::mem::take(&mut self.frame);
        let result = self.write_chunk(&frame[..len]);
        if result.is_ok() {
            frame.drain(..len);
        } else {
            frame.clear();
            self.dropped += held;
        }
        self.frame = frame;
        result
    }

    /// Write every held frame (and one just encoded) with one `write_all`,
    /// then give back buffer capacity above [`HOLD_MAX_BYTES`].
    fn write_held(&mut self) -> std::io::Result<()> {
        let result = self.write_prefix(self.frame.len());
        self.frame.shrink_to(HOLD_MAX_BYTES);
        result
    }

    fn fsync(&mut self) -> std::io::Result<Option<f64>> {
        if self.dead {
            return Ok(None);
        }
        if let Some(file) = &self.file {
            let started = Instant::now();
            file.sync_all()?;
            return Ok(Some(started.elapsed().as_secs_f64()));
        }
        Ok(None)
    }
}

/// The append side of one session's journal. All methods are `&self`
/// (internal mutex) so the writer can hang off a shared session handle;
/// I/O errors are absorbed — counted, routed through the journal's shared
/// [`CircuitBreaker`] — because a failing disk must degrade durability,
/// never the query. While the breaker is open, appends are suppressed
/// without touching the disk; a successful half-open probe re-attaches
/// journaling on a fresh segment.
pub struct SessionJournal {
    inner: Mutex<WriterInner>,
    metrics: JournalMetrics,
    breaker: Arc<CircuitBreaker>,
    /// Logical records lost to failed or suppressed appends. Non-zero
    /// means this session's journal has a gap: `durable: false`.
    lost: AtomicU64,
}

impl SessionJournal {
    fn open_first_segment(&mut self, meta: &SessionMeta) -> std::io::Result<()> {
        let inner = self.inner.get_mut().unwrap_or_else(PoisonError::into_inner);
        inner.open_segment()?;
        inner.hold_record(RecordRef::Meta(meta))?;
        inner.write_held()
    }

    /// Lock the writer, recovering it if a thread panicked while holding the
    /// lock. The worker appends and the durability stage syncs, so a panic
    /// on one must not wedge the other; whatever the panicking append left
    /// behind may be a torn frame, so a recovered writer rotates to a fresh
    /// segment before its next append (the same rule as a failed append).
    fn lock_inner(&self) -> MutexGuard<'_, WriterInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            self.inner.clear_poison();
            let mut inner = poisoned.into_inner();
            inner.needs_rotate = true;
            inner
        })
    }

    /// Count a failed append or write: one write error, `records` plus the
    /// held frames the write lost as lost records, and a fresh segment for
    /// the next append (the old one may end in a torn frame).
    fn count_failure(&self, inner: &mut WriterInner, records: u64) {
        inner.needs_rotate = true;
        inner.write_errors += 1;
        let dropped = std::mem::take(&mut inner.dropped);
        self.lost.fetch_add(records + dropped, Ordering::Relaxed);
        self.metrics.write_errors.inc();
    }

    /// Run one append under the breaker. Returns what `f` returned, or
    /// `None` when the record was suppressed or failed. A record counts as
    /// appended once it is in the file or held for it.
    fn with_inner<T>(&self, f: impl FnOnce(&mut WriterInner) -> std::io::Result<T>) -> Option<T> {
        let admit = self.breaker.admit();
        if admit == WriteAdmit::Suppress {
            self.lost.fetch_add(1, Ordering::Relaxed);
            self.metrics.records_suppressed.inc();
            return None;
        }
        let mut inner = self.lock_inner();
        let result = rotate_and_run(&mut inner, f);
        if result.is_err() {
            self.count_failure(&mut inner, 1);
        }
        let session_id = inner.session_id;
        drop(inner);
        match self.breaker.record_outcome(admit, result.is_ok()) {
            BreakerEvent::Tripped => {
                self.metrics.breaker_trips.inc();
                self.metrics.set_breaker_state(BreakerState::Open);
                if let Err(e) = &result {
                    eprintln!(
                        "lqs-journal: circuit breaker tripped open after repeated I/O \
                         errors (last: session {session_id}: {e}); journaling suppressed \
                         until a probe succeeds"
                    );
                }
            }
            BreakerEvent::Recovered => {
                self.metrics.breaker_recoveries.inc();
                self.metrics.set_breaker_state(BreakerState::Closed);
            }
            BreakerEvent::Reopened => self.metrics.set_breaker_state(BreakerState::Open),
            BreakerEvent::None => {}
        }
        if result.is_ok() {
            self.metrics.records_appended.inc();
        }
        result.ok()
    }

    fn record_fsync(&self, seconds: Option<f64>) {
        if let Some(s) = seconds {
            self.metrics.fsync_seconds.observe(s);
        }
    }

    /// Append one record under the breaker, behind any held frames, with
    /// one `write_all` for all of them. Only the clean-shutdown
    /// sentinel is forced here; everything else rides the next forced
    /// flush — snapshots and annotations (alerts, estimator selections)
    /// because they are telemetry and diagnostics, the terminal record
    /// because its flush is [`sync_terminal`](Self::sync_terminal), a call
    /// of its own. Returns whether the record made it to the file.
    fn append(&self, record: RecordRef<'_>) -> bool {
        let mut fsynced = None;
        let ok = self.with_inner(|inner| {
            inner.hold_record(record)?;
            inner.write_held()?;
            match record {
                RecordRef::CleanShutdown => fsynced = inner.fsync()?,
                // The snapshot stream is over: give back the buffer that
                // batches grew, so a finished session holds none of it.
                RecordRef::Terminal(_) => inner.frame = Vec::new(),
                _ => {}
            }
            Ok(())
        });
        self.record_fsync(fsynced);
        ok.is_some()
    }

    /// Fsync outside the breaker (no record rides on the call), after
    /// writing any held frames. A failure is
    /// counted as a write error; when the flush was the terminal record's,
    /// that record can no longer be trusted to be on disk, so it also counts
    /// as lost and the next append starts a fresh segment.
    fn force(&self, terminal: bool) {
        self.write_held();
        let mut inner = self.lock_inner();
        let fsynced = match inner.fsync() {
            Ok(seconds) => seconds,
            Err(_) => {
                inner.write_errors += 1;
                if terminal {
                    inner.needs_rotate = true;
                    self.lost.fetch_add(1, Ordering::Relaxed);
                }
                self.metrics.write_errors.inc();
                None
            }
        };
        drop(inner);
        self.record_fsync(fsynced);
    }

    /// Append one published DMV snapshot (not forced to disk), behind any
    /// held frames.
    pub fn append_snapshot(&self, snapshot: &lqs_plan::DmvSnapshot) {
        self.append(RecordRef::Snapshot(snapshot));
    }

    /// Encode one published DMV snapshot into the writer's frame buffer and
    /// hold it there, unwritten, behind any frames already held. Returns
    /// whether it is held: `false` when it was written after all (another
    /// frame of its size would take the held frames past 64 KiB, or they
    /// reach the crash point), or was suppressed or failed. Held frames are
    /// written, with one `write_all` per segment, by
    /// [`write_held`](Self::write_held), by the next append of any record,
    /// or by a flush. The breaker, the fault injector, rotation and
    /// the crash point still see one record at a time, so the files and
    /// counters are those of appending each snapshot on its own.
    pub fn hold_snapshot(&self, snapshot: &lqs_plan::DmvSnapshot) -> bool {
        self.with_inner(|inner| {
            let len = inner.hold_record(RecordRef::Snapshot(snapshot))?;
            if len == 0 {
                return Ok(false);
            }
            if inner.must_write(len) {
                inner.write_held()?;
                return Ok(false);
            }
            if inner.held_frames == 0 {
                let room = HOLD_MAX_BYTES - inner.frame.len();
                inner.frame.reserve_exact(room);
            }
            inner.held_frames += 1;
            Ok(true)
        }) == Some(true)
    }

    /// Write every held frame with one `write_all`. Like
    /// [`flush`](Self::flush) this bypasses the breaker; a failed write
    /// counts one write error, every frame it carried as lost, and sends
    /// the next append to a fresh segment.
    pub fn write_held(&self) {
        let mut inner = self.lock_inner();
        if inner.write_held().is_err() {
            self.count_failure(&mut inner, 0);
        }
    }

    /// Append the terminal-state record and force it to disk — the
    /// terminal state is the recovery contract. This
    /// is [`append_terminal_record`](Self::append_terminal_record) followed,
    /// when the record reached the file, by
    /// [`sync_terminal`](Self::sync_terminal); the service makes the two
    /// calls from different threads so the flush does not hold up a worker.
    pub fn append_terminal(&self, terminal: &TerminalRecord) {
        if self.append_terminal_record(terminal) {
            self.sync_terminal();
        }
    }

    /// Append the terminal-state record without flushing it. Returns
    /// whether the record reached the file, i.e. whether a
    /// [`sync_terminal`](Self::sync_terminal) is owed before the session
    /// may be reported terminal (a suppressed or failed append already
    /// counted the record as lost; there is nothing to flush).
    pub fn append_terminal_record(&self, terminal: &TerminalRecord) -> bool {
        self.append(RecordRef::Terminal(terminal))
    }

    /// Force the appended terminal record to stable storage. Like [`flush`](Self::flush) this bypasses the
    /// breaker — no record rides on the call, so an fsync failure changes no
    /// breaker state — but it keeps the consequences a failed terminal
    /// append has for the session: `write_errors` +1, `lost_records` +1 (the
    /// session reads `durable: false`) and a fresh segment for the next
    /// append.
    pub fn sync_terminal(&self) {
        self.force(true);
    }

    /// Append a watchdog alert annotation. Not forced: alerts are
    /// diagnostics, not the recovery contract, so they
    /// ride the next forced flush rather than forcing one themselves.
    pub fn append_alert(&self, alert: &crate::record::AlertRecord) {
        self.append(RecordRef::Alert(alert));
    }

    /// Append the session's final ensemble estimator selection. Written at
    /// terminal time (selection is only settled once the run ends); like
    /// alerts it is an annotation, not the recovery contract, so it rides
    /// the next forced flush.
    pub fn append_estimator(&self, sel: &crate::record::EstimatorRecord) {
        self.append(RecordRef::Estimator(sel));
    }

    /// Append the clean-shutdown sentinel and flush — called by the service
    /// at orderly shutdown so recovery can tell a clean exit from a crash.
    pub fn append_clean_shutdown(&self) {
        self.append(RecordRef::CleanShutdown);
    }

    /// Force buffered appends to stable storage. Bypasses the breaker (no
    /// record rides on it); an fsync failure is counted but changes no
    /// breaker state.
    pub fn flush(&self) {
        self.force(false);
    }

    /// Total bytes this writer has persisted (headers included; stops
    /// advancing at the crash point).
    pub fn bytes_written(&self) -> u64 {
        self.lock_inner().total_bytes
    }

    /// Whether the simulated crash point has fired for this writer.
    #[cfg(test)]
    pub(crate) fn crashed(&self) -> bool {
        self.lock_inner().dead
    }

    /// I/O errors absorbed so far on this session's write path.
    pub fn write_errors(&self) -> u64 {
        self.lock_inner().write_errors
    }

    /// Logical records lost to failed or suppressed appends. Lock-free, so
    /// pollers and HTTP handlers can read it off the hot path.
    pub fn lost_records(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Whether every record this session tried to journal reached the
    /// file. `false` means the journal has a gap (breaker suppression or
    /// write errors) and recovery cannot treat it as the full story.
    pub fn is_durable(&self) -> bool {
        self.lost_records() == 0
    }
}

/// Rotate to a fresh segment if the previous append failed (the old
/// segment may end in a torn frame), then run the append.
fn rotate_and_run<T>(
    inner: &mut WriterInner,
    f: impl FnOnce(&mut WriterInner) -> std::io::Result<T>,
) -> std::io::Result<T> {
    if inner.needs_rotate {
        // Held frames belong to the old segment.
        inner.write_held()?;
        inner.segment += 1;
        inner.open_segment()?;
        inner.needs_rotate = false;
    }
    f(inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::scan_dir;
    use crate::record::TerminalKind;
    use lqs_plan::{CostModel, DmvSnapshot, NodeCounters};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lqs-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(id: u64, name: &str) -> SessionMeta {
        SessionMeta {
            session_id: id,
            name: name.into(),
            workload: "w".into(),
            n_nodes: 1,
            plan_fingerprint: 1,
            snapshot_target: 8,
            snapshot_interval_ns: None,
            cost_model: CostModel::default(),
            exec_mode: crate::record::JournalExecMode::Unknown,
            estimator: None,
        }
    }

    fn snap(ts: u64, rows: u64) -> DmvSnapshot {
        DmvSnapshot {
            ts_ns: ts,
            nodes: vec![NodeCounters {
                rows_output: rows,
                ..NodeCounters::default()
            }],
        }
    }

    #[test]
    fn file_name_roundtrip() {
        let name = segment_file_name(3, 12, 7);
        assert_eq!(parse_segment_file_name(&name), Some((3, 12, 7)));
        assert_eq!(parse_segment_file_name("junk.lqsj"), None);
        assert_eq!(parse_segment_file_name("e1-s2-g3.other"), None);
    }

    #[test]
    fn write_read_roundtrip_with_rotation() {
        let dir = tmpdir("rotate");
        let journal = Journal::open(
            JournalConfig::new(&dir).with_segment_max_bytes(256), // force many segments
        )
        .unwrap();
        let w = journal.writer(meta(0, "q0")).unwrap();
        for i in 0..50 {
            w.append_snapshot(&snap(i * 10, i));
        }
        w.append_terminal(&TerminalRecord {
            kind: TerminalKind::Succeeded,
            at_ns: 500,
            rows_returned: 49,
            message: String::new(),
        });
        w.append_clean_shutdown();

        let segments = std::fs::read_dir(&dir).unwrap().count();
        assert!(segments > 1, "expected rotation, got {segments} segment(s)");

        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.corrupt_records, 0);
        assert_eq!(scan.sessions.len(), 1);
        let s = &scan.sessions[0];
        assert_eq!(s.meta.as_ref().unwrap().name, "q0");
        assert_eq!(s.snapshots.len(), 50);
        assert_eq!(s.snapshots[49].node(0).rows_output, 49);
        assert_eq!(s.terminal.as_ref().unwrap().kind, TerminalKind::Succeeded);
        assert!(s.clean_shutdown);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epochs_advance_across_opens() {
        let dir = tmpdir("epoch");
        let j0 = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(j0.epoch(), 0);
        let w = j0.writer(meta(0, "q0")).unwrap();
        w.flush();
        let j1 = Journal::open(JournalConfig::new(&dir)).unwrap();
        assert_eq!(j1.epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    struct CrashAt(u64);
    impl WriteCrashPoint for CrashAt {
        fn crash_after_bytes(&self, _key: &str) -> Option<u64> {
            Some(self.0)
        }
    }

    #[test]
    fn crash_point_tears_the_tail_and_drops_the_rest() {
        let dir = tmpdir("crash");
        let journal =
            Journal::open(JournalConfig::new(&dir).with_crash(std::sync::Arc::new(CrashAt(400))))
                .unwrap();
        let w = journal.writer(meta(0, "q0")).unwrap();
        for i in 0..50 {
            w.append_snapshot(&snap(i * 10, i));
        }
        assert!(w.crashed());
        w.append_terminal(&TerminalRecord {
            kind: TerminalKind::Succeeded,
            at_ns: 500,
            rows_returned: 49,
            message: String::new(),
        });
        w.append_clean_shutdown();

        let scan = scan_dir(&dir).unwrap();
        let s = &scan.sessions[0];
        // The prefix before the crash offset survives; the terminal record
        // and sentinel are gone; the torn record was counted.
        assert!(s.meta.is_some());
        assert!(s.snapshots.len() < 50);
        assert!(s.terminal.is_none());
        assert!(!s.clean_shutdown);
        assert_eq!(s.corrupt_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    struct FailWindow {
        from: u64,
        to: u64,
    }
    impl JournalFaultInjector for FailWindow {
        fn append_fails(&self, _key: &str, nth: u64) -> bool {
            nth >= self.from && nth < self.to
        }
    }

    #[test]
    fn breaker_trips_and_reattaches_on_successful_probe() {
        let dir = tmpdir("breaker-cycle");
        let journal = Journal::open(
            JournalConfig::new(&dir)
                .with_breaker(BreakerConfig {
                    trip_after: 2,
                    probe_after: std::time::Duration::ZERO,
                })
                // Appends 3..6 fail: meta is append 0, so snapshots 2..=5
                // are the faulted ones.
                .with_write_fault(Arc::new(FailWindow { from: 3, to: 7 })),
        )
        .unwrap();
        let w = journal.writer(meta(0, "q0")).unwrap();
        for i in 0..10 {
            w.append_snapshot(&snap(i * 10, i));
        }
        w.append_terminal(&TerminalRecord {
            kind: TerminalKind::Succeeded,
            at_ns: 100,
            rows_returned: 9,
            message: String::new(),
        });
        // Appends 3,4 fail → trip; appends 5,6 are failing probes (reopen,
        // no new trip); append 7 probes successfully → recovery, and the
        // re-attach lands on a fresh segment.
        assert_eq!(journal.breaker().trips(), 1);
        assert_eq!(journal.breaker().recoveries(), 1);
        assert_eq!(journal.breaker().state(), BreakerState::Closed);
        assert_eq!(w.lost_records(), 4);
        assert!(!w.is_durable());
        assert_eq!(w.write_errors(), 4);

        let scan = scan_dir(&dir).unwrap();
        let s = &scan.sessions[0];
        assert_eq!(s.snapshots.len(), 6, "4 of 10 snapshots lost to faults");
        assert_eq!(s.terminal.as_ref().unwrap().kind, TerminalKind::Succeeded);
        assert_eq!(s.corrupt_records, 0, "injected faults never tear frames");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_breaker_suppresses_terminal_without_touching_disk() {
        let dir = tmpdir("breaker-open");
        let journal = Journal::open(
            JournalConfig::new(&dir)
                .with_breaker(BreakerConfig {
                    trip_after: 1,
                    probe_after: std::time::Duration::from_secs(3600),
                })
                .with_write_fault(Arc::new(FailWindow { from: 2, to: 3 })),
        )
        .unwrap();
        let w = journal.writer(meta(0, "q0")).unwrap();
        for i in 0..5 {
            w.append_snapshot(&snap(i * 10, i));
        }
        w.append_terminal(&TerminalRecord {
            kind: TerminalKind::Succeeded,
            at_ns: 50,
            rows_returned: 4,
            message: String::new(),
        });
        // Append 2 (snapshot 1) fails and trips; the hour-long probe delay
        // keeps the breaker open, so everything after is suppressed —
        // terminal record included.
        assert_eq!(journal.breaker().state(), BreakerState::Open);
        assert_eq!(w.write_errors(), 1, "suppressed appends are not I/O errors");
        assert_eq!(w.lost_records(), 5);
        let scan = scan_dir(&dir).unwrap();
        let s = &scan.sessions[0];
        assert_eq!(s.snapshots.len(), 1);
        assert!(
            s.terminal.is_none(),
            "a suppressed terminal must be absent so recovery reports Orphaned"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn fsyncs(metrics: &JournalMetrics) -> u64 {
        metrics.fsync_seconds.count()
    }

    #[test]
    fn terminal_append_and_sync_are_two_calls_that_compose() {
        let dir = tmpdir("terminal-halves");
        let metrics = JournalMetrics::new(Arc::new(lqs_metrics::MetricsRegistry::new()));
        let journal = Journal::open(JournalConfig::new(&dir))
            .unwrap()
            .with_metrics(metrics.clone());
        let terminal = TerminalRecord {
            kind: TerminalKind::Succeeded,
            at_ns: 10,
            rows_returned: 1,
            message: String::new(),
        };
        let w = journal.writer(meta(0, "halves")).unwrap();
        assert!(
            w.append_terminal_record(&terminal),
            "the append is owed a sync"
        );
        assert_eq!(fsyncs(&metrics), 0, "the append half never flushes");
        w.sync_terminal();
        assert_eq!(fsyncs(&metrics), 1);
        let facade = journal.writer(meta(1, "facade")).unwrap();
        facade.append_terminal(&terminal);
        assert_eq!(fsyncs(&metrics), 2, "the facade is append + sync");
        let scan = scan_dir(&dir).unwrap();
        assert!(scan.sessions.iter().all(|s| s.terminal.is_some()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    struct PanicAt(u64);
    impl JournalFaultInjector for PanicAt {
        fn append_fails(&self, _key: &str, nth: u64) -> bool {
            assert_ne!(nth, self.0, "injected panic under the writer lock");
            false
        }
    }

    #[test]
    fn a_panic_under_the_writer_lock_does_not_wedge_later_calls() {
        let dir = tmpdir("poison");
        let journal =
            Journal::open(JournalConfig::new(&dir).with_write_fault(Arc::new(PanicAt(2)))).unwrap();
        let w = journal.writer(meta(0, "q0")).unwrap();
        w.append_snapshot(&snap(10, 1));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.append_snapshot(&snap(20, 2));
        }));
        assert!(panicked.is_err());
        // Every entry point still works — from this thread or another — and
        // the next append lands on a fresh segment.
        assert!(!w.crashed());
        assert_eq!(w.write_errors(), 0);
        w.append_snapshot(&snap(30, 3));
        w.append_terminal(&TerminalRecord {
            kind: TerminalKind::Failed,
            at_ns: 30,
            rows_returned: 0,
            message: "boom".into(),
        });
        w.flush();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let scan = scan_dir(&dir).unwrap();
        let s = &scan.sessions[0];
        assert_eq!(s.snapshots.len(), 2);
        assert_eq!(s.terminal.as_ref().unwrap().kind, TerminalKind::Failed);
        assert_eq!(s.corrupt_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_sweep_deletes_oldest_prior_epochs_only() {
        let dir = tmpdir("retention");
        // Epoch 0: two sessions.
        let j0 = Journal::open(JournalConfig::new(&dir)).unwrap();
        for id in 0..2 {
            let w = j0.writer(meta(id, &format!("old-{id}"))).unwrap();
            for i in 0..20 {
                w.append_snapshot(&snap(i, i));
            }
            w.append_clean_shutdown();
        }
        // Epoch 1: one session, tight budget.
        let j1 = Journal::open(
            JournalConfig::new(&dir).with_retention_max_bytes(1), // force deletion of all prior epochs
        )
        .unwrap();
        let w = j1.writer(meta(0, "new-0")).unwrap();
        w.append_snapshot(&snap(1, 1));
        w.flush();
        let sweep = j1.sweep_retention().unwrap();
        assert_eq!(sweep.sessions_deleted, 2);
        assert!(sweep.bytes_after < sweep.bytes_before);
        // The current epoch's session survives even over budget.
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(scan.sessions.len(), 1);
        assert_eq!(scan.sessions[0].meta.as_ref().unwrap().name, "new-0");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
