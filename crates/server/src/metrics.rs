//! Service- and poller-side telemetry: session lifecycle counters,
//! queue-wait / run-duration / staleness distributions, and the headline
//! *estimator accuracy* histograms.
//!
//! Everything funnels into one shared [`MetricsRegistry`]; hand the same
//! `Arc` to [`ServiceMetrics::new`], [`PollerMetrics::new`], and
//! [`crate::MetricsServer::start_with`], and a single `/metrics` scrape covers
//! the whole stack (operator close-time totals included — [`ServiceMetrics`]
//! owns the [`ExecMetrics`] recorder the workers attach to their runs).

use crate::session::SessionState;
use lqs_exec::ExecMetrics;
use lqs_metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Lower-snake label for a session state, used by the
/// `lqs_sessions_finished_total{outcome=...}` family and the `/sessions`
/// endpoint.
pub fn state_label(state: SessionState) -> &'static str {
    match state {
        SessionState::Queued => "queued",
        SessionState::Running => "running",
        SessionState::Succeeded => "succeeded",
        SessionState::Cancelled => "cancelled",
        SessionState::DeadlineExceeded => "deadline_exceeded",
        SessionState::Failed => "failed",
        SessionState::Rejected => "rejected",
        SessionState::Orphaned => "orphaned",
    }
}

/// Telemetry recorded by the [`crate::QueryService`] worker pool: one
/// instance per service, shared by every worker.
pub struct ServiceMetrics {
    registry: Arc<MetricsRegistry>,
    exec: ExecMetrics,
    pub(crate) submitted: Arc<Counter>,
    pub(crate) running: Arc<Gauge>,
    pub(crate) queue_wait_seconds: Arc<Histogram>,
    pub(crate) run_wall_seconds: Arc<Histogram>,
    pub(crate) run_virtual_ns: Arc<Histogram>,
    pub(crate) rejected: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) brownout_active: Arc<Gauge>,
    pub(crate) brownout_sessions: Arc<Counter>,
}

impl ServiceMetrics {
    /// Service metrics recording into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Arc<Self> {
        let submitted = registry.counter(
            "lqs_sessions_submitted_total",
            "Sessions accepted by the query service",
            &[],
        );
        let running = registry.gauge(
            "lqs_sessions_running",
            "Sessions currently executing on a worker",
            &[],
        );
        let queue_wait_seconds = registry.histogram(
            "lqs_session_queue_wait_seconds",
            "Wall-clock time a session waited for a worker",
            &[],
        );
        let run_wall_seconds = registry.histogram(
            "lqs_session_run_seconds",
            "Wall-clock time a worker spent executing a session",
            &[],
        );
        let run_virtual_ns = registry.histogram(
            "lqs_session_virtual_ns",
            "Virtual-clock nanoseconds a session executed for (completed and aborted runs)",
            &[],
        );
        let rejected = registry.counter(
            "lqs_sessions_rejected_total",
            "Sessions shed at admission because the bounded queue was full",
            &[],
        );
        let retries = registry.counter(
            "lqs_session_retries_total",
            "Re-executions of sessions that hit a transient fault within their retry budget",
            &[],
        );
        let brownout_active = registry.gauge(
            "lqs_brownout_active",
            "Whether the service is in sustained-overload brownout (1) or not (0)",
            &[],
        );
        let brownout_sessions = registry.counter(
            "lqs_brownout_sessions_total",
            "Sessions admitted with a brownout-widened snapshot publish interval",
            &[],
        );
        Arc::new(ServiceMetrics {
            exec: ExecMetrics::new(Arc::clone(&registry)),
            registry,
            submitted,
            running,
            queue_wait_seconds,
            run_wall_seconds,
            run_virtual_ns,
            rejected,
            retries,
            brownout_active,
            brownout_sessions,
        })
    }

    /// The registry behind this instance (hand it to a
    /// [`crate::MetricsServer`] to expose it).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The operator close-time recorder workers attach via
    /// [`lqs_exec::ExecHooks::metrics`].
    pub(crate) fn exec(&self) -> &ExecMetrics {
        &self.exec
    }

    /// Count one session reaching terminal state `state`.
    pub(crate) fn finished(&self, state: SessionState) {
        self.registry
            .counter(
                "lqs_sessions_finished_total",
                "Sessions that reached a terminal state, by outcome",
                &[("outcome", state_label(state))],
            )
            .inc();
    }

    /// Count one session shed by overload brownout, labeled by reason
    /// (`queue_deadline`). Distinct from
    /// `lqs_sessions_rejected_total`, which counts admission-queue sheds.
    pub(crate) fn shed(&self, reason: &str) {
        self.registry
            .counter(
                "lqs_sessions_shed_total",
                "Sessions shed by overload brownout instead of run-to-fail, by reason",
                &[("reason", reason)],
            )
            .inc();
    }
}

/// Telemetry recorded by a [`crate::RegistryPoller`]: poll latency,
/// snapshot staleness, and the estimator-accuracy feedback loop.
///
/// Accuracy works like the paper's §5 evaluation, run *online*: when the
/// poller first sees a session terminal with a completed run, it replays
/// the run's full snapshot trace through the very estimator it was using
/// live, scores the estimate sequence against the now-known ground truth
/// with [`lqs_progress::error_count`] / [`lqs_progress::error_time`], and
/// folds both figures into per-workload histograms. The scrape endpoint
/// then answers "how wrong were our progress bars?" continuously.
pub struct PollerMetrics {
    registry: Arc<MetricsRegistry>,
    pub(crate) poll_latency_seconds: Arc<Histogram>,
    pub(crate) snapshot_age_seconds: Arc<Histogram>,
    pub(crate) accuracy_sessions: Arc<Counter>,
    pub(crate) poll_faults: Arc<Counter>,
}

/// Help strings for the per-session gauge families (shared by set and
/// remove so the family is always registered with the same text).
const SESSION_PROGRESS_HELP: &str =
    "Latest estimated query progress per live session, in percent [0, 100]";
const SESSION_AGE_HELP: &str =
    "Wall-clock age of a live session's latest snapshot at poll time, in microseconds";

impl PollerMetrics {
    /// Poller metrics recording into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let poll_latency_seconds = registry.histogram(
            "lqs_poll_latency_seconds",
            "Wall-clock time of one full registry poll",
            &[],
        );
        let snapshot_age_seconds = registry.histogram(
            "lqs_snapshot_age_seconds",
            "Wall-clock age of a running session's latest snapshot at poll time",
            &[],
        );
        let accuracy_sessions = registry.counter(
            "lqs_accuracy_sessions_total",
            "Completed sessions scored by the estimator-accuracy replay",
            &[],
        );
        let poll_faults = registry.counter(
            "lqs_poll_faults_total",
            "Transient per-session poll failures (each triggers virtual-time backoff)",
            &[],
        );
        PollerMetrics {
            registry,
            poll_latency_seconds,
            snapshot_age_seconds,
            accuracy_sessions,
            poll_faults,
        }
    }

    /// The registry behind this instance.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Update the per-session gauges after estimating one session.
    /// `progress` is the Equation 2 figure in `[0, 1]`; `age_us` the
    /// wall-clock snapshot age in microseconds (gauges are integers, so
    /// seconds would quantize everything interesting to zero).
    pub(crate) fn set_session_gauges(&self, session: &str, progress: f64, age_us: Option<u64>) {
        let labels = [("session", session)];
        self.registry
            .gauge(
                "lqs_session_progress_percent",
                SESSION_PROGRESS_HELP,
                &labels,
            )
            .set((progress * 100.0).round() as i64);
        if let Some(age) = age_us {
            self.registry
                .gauge("lqs_session_snapshot_age_us", SESSION_AGE_HELP, &labels)
                .set(age.min(i64::MAX as u64) as i64);
        }
    }

    /// Retire one evicted session's gauges from the exposition — without
    /// this they linger at their last value forever (the satellite bug).
    pub(crate) fn remove_session_gauges(&self, session: &str) {
        let labels = [("session", session)];
        self.registry
            .remove("lqs_session_progress_percent", &labels);
        self.registry.remove("lqs_session_snapshot_age_us", &labels);
    }

    /// Refresh the derived quantile gauges from the latency/staleness
    /// histograms. Uses the `_count`-guarded [`Histogram::quantile_or_zero`]
    /// path, so an idle poller exposes 0 — never `NaN` — for p50/p99.
    pub(crate) fn update_quantile_gauges(&self) {
        const US: f64 = 1e6;
        for (family, help, hist) in [
            (
                "lqs_poll_latency_us",
                "Derived quantiles of lqs_poll_latency_seconds, in microseconds",
                &self.poll_latency_seconds,
            ),
            (
                "lqs_snapshot_age_us",
                "Derived quantiles of lqs_snapshot_age_seconds, in microseconds",
                &self.snapshot_age_seconds,
            ),
        ] {
            for (q, label) in [(0.5, "p50"), (0.99, "p99")] {
                self.registry
                    .gauge(family, help, &[("quantile", label)])
                    .set((hist.quantile_or_zero(q) * US).round() as i64);
            }
        }
    }

    /// Fold one completed session's accuracy figures into the per-workload,
    /// per-estimator families. `estimator` is the scoring model's id:
    /// `"lqs"` for the classic single estimator, a member id (`"dne"`,
    /// `"tgn"`, ...) for individual ensemble members, `"ensemble"` for the
    /// composed estimate.
    pub(crate) fn observe_accuracy(
        &self,
        workload: &str,
        estimator: &str,
        error_count: f64,
        error_time: f64,
    ) {
        let labels = [("estimator", estimator), ("workload", workload)];
        self.registry
            .histogram(
                "lqs_estimator_error_count",
                "Paper ErrorAvg (section 5): mean |estimate - true GetNext progress| per completed session",
                &labels,
            )
            .observe(error_count);
        self.registry
            .histogram(
                "lqs_estimator_error_time",
                "Paper ErrorTime (section 5): mean |estimate - elapsed-time fraction| per completed session",
                &labels,
            )
            .observe(error_time);
    }

    /// Count one completed session as accuracy-scored (once per session,
    /// however many estimators [`Self::observe_accuracy`] recorded for it).
    pub(crate) fn accuracy_session_done(&self) {
        self.accuracy_sessions.inc();
    }
}
