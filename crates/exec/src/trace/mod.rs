//! Virtual-clock event tracing for the engine.
//!
//! The engine's virtual clock gives every run a deterministic time axis;
//! this module captures *what happened when* on that axis. Operators and
//! the execution context emit [`TraceEvent`]s — operator lifecycle (Open /
//! first row / Close), internal phase transitions (hash build → probe, sort
//! blocking → emit, spool write → replay), exchange buffer high-water
//! marks, bitmap builds, and DMV snapshot ticks — into a
//! [`RingBufferSink`], a bounded single-threaded in-memory capture with
//! drop-oldest overflow. A run with no sink skips event construction
//! entirely, so untraced runs pay almost nothing.
//!
//! Captured traces export two ways:
//! - [`to_jsonl`] — one event per line, loss-free: every field of every
//!   event is written, so a reader can rebuild the stream exactly;
//! - [`to_chrome_trace`] — Chrome trace-event JSON, for `chrome://tracing`
//!   or Perfetto; virtual nanoseconds map to trace microseconds.

mod export;
mod sink;

pub use export::{to_chrome_trace, to_chrome_trace_with_drops, to_jsonl};
pub use sink::{EventKind, RingBufferSink, TraceEvent};
