//! Close-time metrics: fold a finished run's per-operator counters into
//! [`lqs_metrics`] families.
//!
//! The engine itself never touches an atomic mid-run — recording happens
//! once, after the root operator closes, from the already-final counters.
//! That keeps the virtual clock and the counter trace byte-identical
//! whether metrics are attached or not, and makes the disabled path one
//! `Option` check per query.

use crate::executor::QueryRun;
use lqs_metrics::MetricsRegistry;
use lqs_plan::PhysicalPlan;
use std::sync::Arc;

/// Records per-operator and per-query execution totals into a shared
/// [`MetricsRegistry`] when a run completes.
///
/// Attach one via [`crate::ExecHooks::metrics`]; the same instance can be
/// shared by every worker in a pool (recording only reads the run and
/// touches atomics).
pub struct ExecMetrics {
    registry: Arc<MetricsRegistry>,
}

impl ExecMetrics {
    /// Metrics recording into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        ExecMetrics { registry }
    }

    /// Fold one completed run's final counters into the operator and query
    /// families. Called by the executor after the root operator closes.
    pub(crate) fn record_run(&self, plan: &PhysicalPlan, run: &QueryRun) {
        for (node, counters) in plan.nodes().iter().zip(&run.final_counters) {
            let labels = [("op", node.op.display_name())];
            self.registry
                .histogram(
                    "lqs_operator_rows_output",
                    "Rows produced by an operator over one query execution",
                    &labels,
                )
                .observe_u64(counters.rows_output);
            self.registry
                .histogram(
                    "lqs_operator_logical_reads",
                    "Pages read by an operator over one query execution",
                    &labels,
                )
                .observe_u64(counters.logical_reads);
            self.registry
                .histogram(
                    "lqs_operator_cpu_virtual_ns",
                    "Virtual CPU nanoseconds charged to an operator over one query execution",
                    &labels,
                )
                .observe_u64(counters.cpu_ns);
        }
        self.registry
            .histogram(
                "lqs_query_duration_virtual_ns",
                "Total virtual execution time of a completed query",
                &[],
            )
            .observe_u64(run.duration_ns);
        self.registry
            .histogram(
                "lqs_query_rows_returned",
                "Rows returned by the root operator of a completed query",
                &[],
            )
            .observe_u64(run.rows_returned);
        self.registry
            .counter(
                "lqs_queries_executed_total",
                "Queries run to completion by the execution engine",
                &[],
            )
            .inc();
    }
}
