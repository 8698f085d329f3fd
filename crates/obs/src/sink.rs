//! Event model and sinks.

use lqs_plan::NodeId;
use std::cell::RefCell;
use std::collections::VecDeque;

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
    pub(crate) fn tag(&self) -> &'static str {
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
    /// first so a sink that never records costs one virtual call and nothing else.
    fn is_recording(&self) -> bool {
        true
    }
}

/// The drop-oldest bounded queue behind [`RingBufferSink`]: when full,
/// pushing evicts the oldest event and counts it.
#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    /// A ring retaining at most `capacity` events (min 1).
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            buf: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(event);
    }
}

/// Bounded in-memory capture. When full, the oldest event is dropped and
/// counted, so a long run keeps its most recent window plus an honest
/// account of what was lost. Not `Sync`: the per-session path takes no
/// lock.
#[derive(Debug)]
pub struct RingBufferSink(RefCell<Ring>);

impl RingBufferSink {
    /// A sink retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink(RefCell::new(Ring::new(capacity)))
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.borrow().buf.iter().cloned().collect()
    }

    /// Consume the sink, returning retained events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.0.into_inner().buf.into_iter().collect()
    }

    /// Number of events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped
    }
}

impl EventSink for RingBufferSink {
    fn emit(&self, event: TraceEvent) {
        self.0.borrow_mut().push(event);
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
}
