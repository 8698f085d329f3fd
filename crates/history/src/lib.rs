//! # lqs-history — fleet-wide progress analytics and resource prediction
//! over snapshot journals
//!
//! The DMV-polling design of the paper (§3) only exposes *live* progress;
//! `lqs-journal` (PR 5) persists every session's snapshot stream for crash
//! recovery. This crate turns those journals from a recovery artifact into
//! an analytics and prediction surface — the `sp_PE_QueryProgress`
//! direction:
//!
//! * [`scan_history`] — a time-windowed, torn-tail-tolerant,
//!   retention-sweep-safe scan over a whole journal directory that
//!   materializes one [`SessionHistory`] per journaled session:
//!   progress-over-time [`CurvePoint`] curves, per-node time attribution
//!   ("which operator ate the runtime"), and §5-style accuracy figures
//!   when a [`HistoryResolver`] can rebuild the plan. Everything is
//!   derived purely from journal bytes and virtual clocks, so two scans of
//!   an unchanged directory are byte-for-byte identical however they are
//!   serialized.
//! * [`FleetHistory`] — the cross-session view: per-workload p50/p90/p99
//!   percentile curves (runtime, CPU, I/O, ErrorAvg, ErrorTime) and
//!   fleet-wide slowest-node ranking.
//! * [`HistoryStore`] — a plan-fingerprint-keyed store that predicts
//!   CPU/IO/runtime for an *incoming* plan from similar journaled runs
//!   (Li et al., "Robust Estimation of Resource Consumption for SQL
//!   Queries"): exact-fingerprint hits answer from observed medians;
//!   misses fall back to the nearest plan in feature space with
//!   per-operator-class scaling. A cold store answers "no history" —
//!   explicitly, never a zero estimate.
//! * [`HistoryMetrics`] — online prediction-error telemetry
//!   (`lqs_history_prediction_error{resource=...}`) recorded into the
//!   shared `lqs-metrics` registry as predictions meet their observed
//!   runs.
//!
//! `lqs-server` wires this into `GET /history/*` endpoints and
//! predicted-cost admission control; `lqs_live --fleet` renders the same
//! scan in the terminal.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod metrics;
pub mod scan;
pub mod store;

pub use metrics::HistoryMetrics;
pub use scan::{
    history_from_scan, scan_history, scan_session_curve, CurvePoint, EstimatorAccuracy,
    FleetHistory, FleetNode, HistoryResolver, NodeAttribution, Pctls, ResolvedPlan,
    SessionCurveScan, SessionHistory, WorkloadPercentiles,
};
pub use store::{
    plan_features, HistoryStore, ObservedRun, PlanFeatures, PredictionBasis, ResourcePrediction,
};
