//! # lqs-exec — the instrumented query execution engine
//!
//! A single-process, demand-driven iterator (Volcano / GetNext) engine whose
//! sole consumer-facing product is its *counter trace*: per-operator DMV
//! counters sampled on a deterministic virtual clock, exactly the interface
//! the paper's client-side progress estimator polls (§2).
//!
//! There is one GetNext — [`Operator::next_batch`] — and so one execution
//! path: the batch size (1024 in production, 1 for a row-at-a-time run)
//! only sets how many rows the root is asked for per call, and a
//! [`FaultInjector`] is consulted from inside the charging scopes
//! ([`BatchCharge`]) at whatever batch size the run uses.
//!
//! * [`context`] — virtual clock, counter charging, snapshot recording,
//!   runtime bitmaps, nested-loops correlation state.
//! * `bloom` — Bloom filters backing bitmap semi-join reduction (§4.3).
//! * [`ops`] — ~20 physical operators, including the behaviours the paper's
//!   techniques target: blocking sorts/hash aggregates (§4.5), buffered
//!   nested loops and exchanges (§4.4), storage-pushed predicates (§4.3),
//!   and batch-mode columnstore scans (§4.7).
//! * [`executor`] — runs a plan to completion and returns the DMV trace plus
//!   ground-truth cardinalities and timings.
//!
//! The rows it writes — [`DmvSnapshot`], [`NodeCounters`] and the finished
//! [`QueryRun`] — are [`lqs_plan::dmv`]'s, re-exported here: the DMV
//! contract sits beside the showplan, so the client crates (estimator,
//! journal, history, profiler) build without this engine.
//!
//! Execution can additionally stream [`lqs_obs`] trace events (operator
//! lifecycle, phase transitions, buffer high-water marks, bitmap builds,
//! snapshot ticks) into an [`lqs_obs::EventSink`] via
//! [`executor::execute_traced`]; untraced runs pay nothing.

#![warn(unreachable_pub)]

// Operator structs are documented inline; public fields of operators are
// implementation detail, so missing_docs is not enforced for this crate.

pub(crate) mod bloom;
pub mod context;
pub mod executor;
pub mod fault;
pub mod metrics;
pub mod ops;
mod pred;

pub use context::{
    AbortReason, BatchCharge, CancellationToken, ExecContext, QueryAborted, SnapshotPublisher,
};
pub use executor::{
    estimated_duration_ns, execute, execute_hooked, execute_traced, plan_node_names, AbortedQuery,
    ExecHooks, ExecMode, ExecOptions,
};
pub use fault::{FaultInjector, GetNextFault, IoVerdict, QueryFault, SnapshotFilter};
pub use lqs_plan::{DmvSnapshot, NodeCounters, QueryRun};
pub use metrics::ExecMetrics;
pub use ops::{build_operator, BoxedOperator, Operator, RowBatch};
