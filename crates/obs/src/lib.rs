//! Execution observability: virtual-clock event tracing for the LQS engine.
//!
//! The engine's virtual clock gives every run a deterministic time axis;
//! this crate captures *what happened when* on that axis. Operators and the
//! execution context emit [`TraceEvent`]s — operator lifecycle (Open /
//! first row / Close), internal phase transitions (hash build → probe, sort
//! blocking → emit, spool write → replay), exchange buffer high-water
//! marks, bitmap builds, and DMV snapshot ticks — into an [`EventSink`].
//!
//! Two sinks ship with the crate (a run with no sink at all skips event
//! construction entirely, so untraced runs pay almost nothing):
//! [`RingBufferSink`] (bounded
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

#![warn(unreachable_pub)]

pub mod export;
pub mod sink;

pub use export::{
    from_jsonl, split_sessions, to_chrome_trace, to_chrome_trace_sessions,
    to_chrome_trace_with_drops, to_collapsed_stacks, to_jsonl, SessionTraceExport,
};
pub use sink::{
    EventKind, EventSink, RingBufferSink, SessionEvent, SessionTap, SharedSessionSink, TraceEvent,
};
