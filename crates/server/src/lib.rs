//! # lqs-server — concurrent multi-session query service
//!
//! The paper's deployment is inherently concurrent: one SQL Server
//! instance runs many sessions while SSMS clients poll
//! `sys.dm_exec_query_profiles` *live*, every 500 ms, across all of them
//! (§2.2). This crate is that shape, in-process:
//!
//! * [`QueryService`] — a bounded worker pool executing many queries in
//!   parallel. Each query stays single-threaded and deterministic on its
//!   own virtual clock; concurrency never perturbs a session's trace.
//! * [`SessionRegistry`] + [`SessionHandle`] — the shared counter
//!   surface. The executing worker publishes every
//!   [`lqs_exec::DmvSnapshot`] into its session's latest-snapshot slot
//!   (a [`SnapshotSlot`]: one mutex around one reusable buffer) at
//!   snapshot boundaries (the [`lqs_exec::SnapshotPublisher`] hook);
//!   pollers copy it out into reusable buffers. Either side holds the
//!   lock for one allocation-free copy of the counters and nothing else.
//! * Session lifecycle — one value under one lock: `Queued`, `Running`, or
//!   done with a [`SessionResult`], whose `SessionResult::state` is the
//!   terminal [`SessionState`]. Only `start` and `finish` move it, and they
//!   own the running gauge, the cost-pool release and the waiters' wake-up.
//! * [`RegistryPoller`] — the SSMS-client analog: turns each session's
//!   latest snapshot into a [`lqs_progress::ProgressReport`], reusing one
//!   [`lqs_progress::ProgressEstimator`] per session across polls.
//! * Cancellation and deadlines — every session carries a
//!   [`lqs_exec::CancellationToken`] checked at each virtual-clock tick,
//!   and an optional virtual-time deadline for runaway queries. Aborted
//!   sessions keep their partial trace.
//! * Telemetry — [`ServiceMetrics`] (session lifecycle, queue wait, run
//!   durations, operator close-time totals) and [`PollerMetrics`] (poll
//!   latency, snapshot staleness, and *online estimator-accuracy scoring*:
//!   each completed session's estimate trace is replayed against its
//!   ground truth and folded into per-workload error histograms) are
//!   always recorded: there is no telemetry-off path. Every component
//!   (service, journal, poller, watchdog, recovery) starts with a handle
//!   over a private [`lqs_metrics::MetricsRegistry`], and its
//!   `with_metrics` only chooses *where* it records — hand each the same
//!   registry and [`MetricsServer`] exposes the whole stack over HTTP
//!   (`GET /metrics` in Prometheus text format, `GET /sessions` as JSON).
//!   Accuracy is scored on the first poll that sees a session terminal,
//!   so poll once after completion before evicting.
//! * Durability — started via [`QueryService::with_journal`], every
//!   session appends its published snapshots and terminal state to a
//!   per-session [`lqs_journal`] write-ahead journal; orderly shutdown
//!   stamps a clean-shutdown sentinel and sweeps retention. After a crash,
//!   [`RecoveryManager`] rebuilds the registry from the journal directory:
//!   finished sessions come back with their full results (pollers re-score
//!   them bit-identically), interrupted ones come back
//!   [`SessionState::Orphaned`] with their last journaled snapshot served
//!   at degraded quality.
//! * Live diagnosis — a [`Watchdog`] sweeps the registry and classifies
//!   running sessions Healthy / Stalled / Diverging (estimate vs
//!   observed-rows drift beyond a band), journaling every alert and
//!   serving the live set on `GET /alerts`; completed sessions' exact
//!   per-operator time attribution is served as a
//!   [`lqs_prof::ProfileReport`] (flamegraph-ready collapsed stacks
//!   included) on `GET /profile/{session}`.
//! * Self-healing — the watchdog can *act* on its diagnoses
//!   ([`RemediationPolicy`]: cancel sessions stalled for N consecutive
//!   sweeps), the journal write path runs behind a circuit
//!   breaker (a dead disk degrades durability instead of blocking
//!   executors — surfaced as `durable: false` in `/sessions` and breaker
//!   state in `/healthz`), sustained overload triggers a brownout
//!   ([`BrownoutConfig`]: queue-wait shedding with an explicit `Rejected`
//!   reason, widened snapshot cadence), and HTTP ingress is a bounded
//!   worker pool with slow-loris deadlines and `503` + `Retry-After`
//!   shedding ([`IngressConfig`]).
//!
//! ```
//! use lqs_server::{QueryService, QuerySpec, RegistryPoller, SessionState};
//! use lqs_progress::EstimatorConfig;
//! use std::sync::Arc;
//!
//! # let mut table = lqs_storage::Table::new(
//! #     "t",
//! #     lqs_storage::Schema::new(vec![lqs_storage::Column::new("a", lqs_storage::DataType::Int)]),
//! # );
//! # for i in 0..2000i64 { table.insert(vec![lqs_storage::Value::Int(i)]).unwrap(); }
//! # let mut db = lqs_storage::Database::new();
//! # let t = db.add_table_analyzed(table);
//! # let mut b = lqs_plan::PlanBuilder::new(&db);
//! # let scan = b.table_scan(t);
//! # let plan = Arc::new(b.finish(scan));
//! let db = Arc::new(db);
//! let service = QueryService::new(Arc::clone(&db), 4);
//! let mut poller = RegistryPoller::new(
//!     Arc::clone(&db),
//!     Arc::clone(service.registry()),
//!     EstimatorConfig::full(),
//! );
//! let session = service.submit(QuerySpec::new("q1", plan));
//! // ... poll while it runs ...
//! let progress = poller.poll();
//! assert_eq!(progress.len(), 1);
//! assert_eq!(session.wait_terminal(), SessionState::Succeeded);
//! let final_progress = poller.poll_session(&session);
//! assert!(final_progress.report.unwrap().query_progress >= 1.0 - 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod http;
pub mod metrics;
pub mod recovery;
pub mod registry;
pub mod seqslot;
pub mod service;
pub mod session;
pub mod watchdog;

pub use http::{HistoryEndpoints, IngressConfig, MetricsServer, ServerConfig};
pub use metrics::{state_label, PollerMetrics, ServiceMetrics};
pub use recovery::{
    PlanResolver, RecoveredOutcome, RecoveredSessionSummary, RecoveryManager, RecoveryReport,
};
pub use registry::{PollFaultInjector, RegistryPoller, SessionProgress, SessionRegistry};
pub use seqslot::SnapshotSlot;
pub use service::{BrownoutConfig, QueryService};
pub use session::{
    QuerySpec, SessionDurability, SessionHandle, SessionId, SessionResult, SessionState,
};
pub use watchdog::{Health, RemediationPolicy, SessionAlert, Watchdog, WatchdogConfig};
