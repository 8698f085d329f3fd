//! Execution observability: virtual-clock event tracing for the LQS engine.
//!
//! The engine's virtual clock gives every run a deterministic time axis;
//! this crate captures *what happened when* on that axis. Operators and the
//! execution context emit [`TraceEvent`]s — operator lifecycle (Open /
//! first row / Close), internal phase transitions (hash build → probe, sort
//! blocking → emit, spool write → replay), exchange buffer high-water
//! marks, bitmap builds, and DMV snapshot ticks — into an [`EventSink`].
//!
//! Three sinks ship with the crate: [`NullSink`] (the default; operators
//! skip event construction entirely when `is_recording()` is false, so
//! untraced runs pay almost nothing), [`RingBufferSink`] (bounded
//! single-threaded in-memory capture with drop-oldest overflow), and
//! [`SharedSessionSink`] (the same semantics behind a mutex, `Send + Sync`,
//! every event tagged with its session, for concurrent sessions sharing
//! one capture buffer — e.g. an `lqs-server` worker pool).
//!
//! Captured traces export two ways (see [`export`]):
//! - JSONL — one event per line, loss-free, reparseable with
//!   [`export::from_jsonl`] for programmatic analysis;
//! - Chrome trace-event JSON — open in `chrome://tracing` or Perfetto;
//!   virtual nanoseconds map to trace microseconds.

pub mod export;
pub mod sink;

pub use export::{
    from_jsonl, jsonl_dropped, split_sessions, to_chrome_trace, to_chrome_trace_sessions,
    to_chrome_trace_with_drops, to_collapsed_stacks, to_jsonl, to_jsonl_with_drops,
    SessionTraceExport,
};
pub use sink::{
    EventKind, EventSink, NullSink, RingBufferSink, SessionEvent, SessionTap, SharedSessionSink,
    TraceEvent,
};
