//! Event model and sinks.

use lqs_plan::NodeId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What happened. Operator lifecycle events pair with the per-node
/// counters' `open_ns`/`first_row_ns`/`close_ns` stamps; the rest expose
/// internal state the DMV counters can't show.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// `Open()` reached the operator (re-emitted on rewind).
    OperatorOpen,
    /// The operator produced its first row.
    OperatorFirstRow,
    /// `Close()` — the operator finished producing rows.
    OperatorClose,
    /// An internal phase boundary, e.g. hash build → probe, sort
    /// blocking → emit, spool write → replay.
    PhaseTransition {
        /// Phase being left.
        from: String,
        /// Phase being entered.
        to: String,
    },
    /// A new maximum of an operator's buffered-row gauge (exchanges,
    /// buffering nested-loops). Emitted only when the high-water rises.
    BufferHighWater {
        /// The new maximum buffered-row count.
        rows: u64,
    },
    /// A runtime bitmap (semi-join reduction filter) finished building.
    BitmapBuilt {
        /// Distinct keys inserted during the build.
        keys: u64,
    },
    /// A DMV snapshot was recorded (query-level; `node` is `None`).
    SnapshotTick {
        /// Zero-based index of the snapshot in the trace.
        index: u64,
    },
    /// One batched charging span settled: everything the operator did
    /// between two flush boundaries of its `BatchCharge` scope. The event's
    /// `ts_ns` is the span's end; timestamps are coarsened to flush
    /// granularity (snapshot/deadline boundaries and scope ends), but the
    /// row counts and the covered virtual time are exact — this is how the
    /// vectorized path stays traceable without per-row events.
    OperatorBatch {
        /// Virtual time at which the span began.
        start_ns: u64,
        /// Rows consumed from children within the span.
        rows_in: u64,
        /// Rows output within the span.
        rows_out: u64,
    },
}

impl EventKind {
    /// Stable lower-snake tag used by the JSONL exporter.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::OperatorOpen => "operator_open",
            EventKind::OperatorFirstRow => "operator_first_row",
            EventKind::OperatorClose => "operator_close",
            EventKind::PhaseTransition { .. } => "phase_transition",
            EventKind::BufferHighWater { .. } => "buffer_high_water",
            EventKind::BitmapBuilt { .. } => "bitmap_built",
            EventKind::SnapshotTick { .. } => "snapshot_tick",
            EventKind::OperatorBatch { .. } => "operator_batch",
        }
    }
}

/// One timestamped occurrence on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the occurrence, in nanoseconds.
    pub ts_ns: u64,
    /// The plan node involved; `None` for query-level events.
    pub node: Option<NodeId>,
    /// What happened.
    pub kind: EventKind,
}

/// Receives trace events from the engine.
///
/// Sinks use interior mutability (`&self` receivers) because the engine
/// shares one immutable `ExecContext` across the whole operator tree.
/// Execution is single-threaded on the virtual clock, so no sink needs to
/// be `Sync`.
pub trait EventSink {
    /// Record one event.
    fn emit(&self, event: TraceEvent);

    /// Whether emitting is worthwhile. Call sites with non-trivial event
    /// construction (string formatting, gauge comparisons) check this
    /// first so a [`NullSink`] costs one virtual call and nothing else.
    fn is_recording(&self) -> bool {
        true
    }
}

/// Discards everything; `is_recording()` is `false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: TraceEvent) {}

    fn is_recording(&self) -> bool {
        false
    }
}

/// The drop-oldest bounded queue behind all three ring sinks: when full,
/// pushing evicts the oldest item and counts it.
#[derive(Debug)]
struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring retaining at most `capacity` items (min 1).
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Retained items, oldest first.
    fn items(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.buf.iter().cloned().collect()
    }
}

/// Lock a shared sink's ring. A trace sink is shared by every session, so
/// a thread that panicked under the lock must not silence the rest: recover
/// the guard. Every [`Ring`] update leaves it valid at each step, so the
/// state behind a poisoned lock is still a ring.
fn lock<T>(ring: &Mutex<Ring<T>>) -> MutexGuard<'_, Ring<T>> {
    ring.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bounded in-memory capture. When full, the oldest event is dropped and
/// counted, so a long run keeps its most recent window plus an honest
/// account of what was lost. Not `Sync`: the per-session path takes no
/// lock.
#[derive(Debug)]
pub struct RingBufferSink(RefCell<Ring<TraceEvent>>);

impl RingBufferSink {
    /// A sink retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink(RefCell::new(Ring::new(capacity)))
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.borrow().items()
    }

    /// Consume the sink, returning retained events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.0.into_inner().buf.into_iter().collect()
    }

    /// Number of events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.0.borrow().buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl EventSink for RingBufferSink {
    fn emit(&self, event: TraceEvent) {
        self.0.borrow_mut().push(event);
    }
}

/// A [`TraceEvent`] tagged with the session that emitted it.
///
/// Concurrent sessions merged into one untagged stream would be fine for
/// counting but useless for rendering, since two sessions' node 0 spans
/// interleave on the same lane. The session tag keeps attribution so
/// exporters can keep sessions apart (one Chrome trace `pid` per session,
/// see [`crate::export::to_chrome_trace_sessions`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEvent {
    /// Caller-chosen session identifier (e.g. an `lqs-server` session id).
    pub session: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// A `Send + Sync` ring buffer of [`SessionEvent`]s shared by many
/// concurrent sessions, with the same drop-oldest overflow accounting as
/// [`RingBufferSink`] but mutex-protected, so worker threads can emit while
/// other threads drain. Sessions attach through [`SharedSessionSink::tap`],
/// which stamps every emitted event with that session's id.
#[derive(Debug)]
pub struct SharedSessionSink(Mutex<Ring<SessionEvent>>);

impl SharedSessionSink {
    /// A sink retaining at most `capacity` events (min 1) across all
    /// sessions.
    pub fn new(capacity: usize) -> Self {
        SharedSessionSink(Mutex::new(Ring::new(capacity)))
    }

    /// An [`EventSink`] that stamps everything it receives with `session`.
    pub fn tap(self: &Arc<Self>, session: u64) -> SessionTap {
        SessionTap {
            sink: Arc::clone(self),
            session,
        }
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<SessionEvent> {
        lock(&self.0).items()
    }

    /// Drain all retained events, oldest first, leaving the sink empty.
    /// The dropped count is *not* reset — it stays an honest total.
    pub fn drain(&self) -> Vec<SessionEvent> {
        lock(&self.0).buf.drain(..).collect()
    }

    /// Number of events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        lock(&self.0).dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        lock(&self.0).buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-session handle into a [`SharedSessionSink`] (see
/// [`SharedSessionSink::tap`]).
#[derive(Debug, Clone)]
pub struct SessionTap {
    sink: Arc<SharedSessionSink>,
    session: u64,
}

impl SessionTap {
    /// The session id this tap stamps onto events.
    pub fn session(&self) -> u64 {
        self.session
    }
}

impl EventSink for SessionTap {
    fn emit(&self, event: TraceEvent) {
        lock(&self.sink.0).push(SessionEvent {
            session: self.session,
            event,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64) -> TraceEvent {
        TraceEvent {
            ts_ns,
            node: Some(NodeId(0)),
            kind: EventKind::OperatorOpen,
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let sink = RingBufferSink::new(3);
        for t in 0..5 {
            sink.emit(ev(t));
        }
        assert_eq!(sink.dropped(), 2);
        let kept: Vec<u64> = sink.events().iter().map(|e| e.ts_ns).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn session_sink_tags_and_drops_across_sessions() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedSessionSink>();

        let sink = Arc::new(SharedSessionSink::new(3));
        let a = sink.tap(7);
        let b = sink.tap(9);
        a.emit(ev(0));
        b.emit(ev(1));
        a.emit(ev(2));
        b.emit(ev(3)); // evicts session 7's ts=0 event
        assert_eq!(sink.dropped(), 1);
        let tagged: Vec<(u64, u64)> = sink
            .events()
            .iter()
            .map(|e| (e.session, e.event.ts_ns))
            .collect();
        assert_eq!(tagged, vec![(9, 1), (7, 2), (9, 3)]);
        assert_eq!(sink.drain().len(), 3);
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1); // drain keeps the loss accounting
    }

    #[test]
    fn shared_sinks_survive_a_panic_under_their_lock() {
        let sessions = Arc::new(SharedSessionSink::new(3));
        sessions.tap(7).emit(ev(0));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _sessions = sessions.0.lock().unwrap();
                panic!("poison the sink");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(sessions.0.is_poisoned());

        sessions.tap(9).emit(ev(1)); // a later tap still lands
        assert_eq!((sessions.len(), sessions.dropped()), (2, 0));
        let tagged: Vec<u64> = sessions.events().iter().map(|e| e.session).collect();
        assert_eq!(tagged, vec![7, 9]);
        assert_eq!(sessions.drain().len(), 2);
    }

    #[test]
    fn null_sink_reports_not_recording() {
        assert!(!NullSink.is_recording());
        let ring = RingBufferSink::new(8);
        assert!(EventSink::is_recording(&ring));
        NullSink.emit(ev(1)); // no-op, must not panic
    }
}
