//! Journal and recovery telemetry, recorded into the workspace's shared
//! [`MetricsRegistry`] so one `/metrics` scrape covers durability alongside
//! the service and poller families.

use crate::breaker::BreakerState;
use lqs_metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Handles to the journal's metric families. Cheap to clone; every writer
/// of one [`crate::Journal`] shares the same instance.
#[derive(Clone)]
pub struct JournalMetrics {
    registry: Arc<MetricsRegistry>,
    pub(crate) fsync_seconds: Arc<Histogram>,
    pub(crate) bytes: Arc<Gauge>,
    pub(crate) corrupt_records: Arc<Counter>,
    pub(crate) write_errors: Arc<Counter>,
    pub(crate) records_appended: Arc<Counter>,
    pub(crate) records_suppressed: Arc<Counter>,
    pub(crate) breaker_trips: Arc<Counter>,
    pub(crate) breaker_recoveries: Arc<Counter>,
    pub(crate) breaker_state: Arc<Gauge>,
}

impl JournalMetrics {
    /// Journal metrics recording into `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let fsync_seconds = registry.histogram(
            "lqs_journal_fsync_seconds",
            "Wall-clock latency of one journal fsync",
            &[],
        );
        let bytes = registry.gauge(
            "lqs_journal_bytes",
            "Total bytes held by the journal directory, as of the last retention sweep",
            &[],
        );
        let corrupt_records = registry.counter(
            "lqs_journal_corrupt_records_total",
            "Journal records discarded by recovery (torn tails, CRC failures, truncated frames)",
            &[],
        );
        let write_errors = registry.counter(
            "lqs_journal_write_errors_total",
            "Journal append/fsync I/O errors (the affected session journal stops persisting)",
            &[],
        );
        let records_appended = registry.counter(
            "lqs_journal_records_appended_total",
            "Records appended across all session journals",
            &[],
        );
        let records_suppressed = registry.counter(
            "lqs_journal_records_suppressed_total",
            "Records skipped without touching the disk while the journal circuit breaker was open",
            &[],
        );
        let breaker_trips = registry.counter(
            "lqs_journal_breaker_trips_total",
            "Times the journal write-path circuit breaker tripped closed-to-open",
            &[],
        );
        let breaker_recoveries = registry.counter(
            "lqs_journal_breaker_recoveries_total",
            "Times a half-open probe succeeded and the journal circuit breaker closed again",
            &[],
        );
        let breaker_state = registry.gauge(
            "lqs_journal_breaker_state",
            "Journal circuit breaker state (0 = closed, 1 = open, 2 = half-open)",
            &[],
        );
        JournalMetrics {
            registry,
            fsync_seconds,
            bytes,
            corrupt_records,
            write_errors,
            records_appended,
            records_suppressed,
            breaker_trips,
            breaker_recoveries,
            breaker_state,
        }
    }

    /// The registry behind this instance.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Count one session restored by recovery, labeled by outcome
    /// (`succeeded`, `cancelled`, `deadline_exceeded`, `failed`, `rejected`,
    /// `orphaned`, `plan_mismatch`, `unresolved`).
    pub fn session_recovered(&self, outcome: &str) {
        self.registry
            .counter(
                "lqs_sessions_recovered_total",
                "Sessions restored from the journal by recovery, by outcome",
                &[("outcome", outcome)],
            )
            .inc();
    }

    /// Tally `n` corrupt records discarded during a journal scan.
    pub fn add_corrupt_records(&self, n: u64) {
        self.corrupt_records.add(n);
    }

    /// Record the journal directory's size after a retention sweep.
    pub(crate) fn set_journal_bytes(&self, bytes: u64) {
        self.bytes.set(bytes.min(i64::MAX as u64) as i64);
    }

    /// Mirror the circuit breaker's state into its gauge
    /// (0 = closed, 1 = open, 2 = half-open).
    pub(crate) fn set_breaker_state(&self, state: BreakerState) {
        self.breaker_state.set(match state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
    }
}
