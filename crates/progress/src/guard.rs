//! Telemetry sanitization — hardening the estimator against a misbehaving
//! DMV channel.
//!
//! The paper's estimator is client-side code polling counters over a real
//! network from a loaded server: in production the snapshot stream it sees
//! can arrive late, out of order, duplicated, or — after a session retry on
//! the server — with counters reset to zero. Feeding such a stream straight
//! into an estimator silently lies: progress jumps
//! backwards, refinement α collapses, and bound clamps fire on garbage.
//!
//! [`SnapshotGuard`] sits in front of the estimator and maintains a
//! *sanitized high-water view* of the stream: monotone counters are
//! element-wise-maxed (so a reset or reordered snapshot can never drag a
//! counter backwards), gauge and lifecycle fields follow the newest
//! timestamp seen, and every anomaly is classified and tallied.
//! [`GuardedEstimator`] pairs a guard with an [`EnsembleEstimator`] — the
//! standard six-member lineup or a lineup of one — and stamps each
//! [`ProgressReport`] with an [`EstimateQuality`] plus a staleness age, so
//! consumers can tell a trustworthy figure from a reconstructed one.

use crate::ensemble::EnsembleEstimator;
use crate::estimator::{EstimateQuality, ProgressReport};
use lqs_exec::{DmvSnapshot, NodeCounters};

/// Tally of telemetry anomalies a [`SnapshotGuard`] has detected and
/// absorbed since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnomalyCounts {
    /// Snapshots whose timestamp was older than one already ingested.
    pub out_of_order: u64,
    /// Snapshots identical (timestamp and counters) to one already seen.
    pub duplicates: u64,
    /// Snapshots in which some monotone counter moved backwards at a newer
    /// timestamp — the signature of a server-side session retry.
    pub counter_resets: u64,
    /// Snapshots whose node count did not match the plan (dropped whole).
    pub malformed: u64,
}

impl AnomalyCounts {
    /// Total anomalies of any class.
    pub fn total(&self) -> u64 {
        self.out_of_order + self.duplicates + self.counter_resets + self.malformed
    }
}

/// Stateful sanitizer for one session's snapshot stream.
///
/// Feed every received snapshot to [`SnapshotGuard::ingest`]; read the
/// sanitized high-water snapshot back with [`SnapshotGuard::view`]. The
/// high-water view is what a perfectly-delivered stream would have shown:
/// monotone counters never regress, lifecycle fields track the newest
/// timestamp, and the view's `ts_ns` is the newest timestamp ingested.
#[derive(Debug, Clone)]
pub struct SnapshotGuard {
    n_nodes: usize,
    view: Option<DmvSnapshot>,
    anomalies: AnomalyCounts,
    last_ingest_had_anomaly: bool,
}

/// Element-wise-max the monotone counters of `hi` with `c`, and take the
/// gauge/lifecycle fields from whichever side has the newer timestamp
/// (`c_newer` says whether `c` is the newer snapshot). `close_ns` may
/// legitimately go `Some → None` on a rewind, so lifecycle `Option`s follow
/// the newer side verbatim rather than being or-ed.
fn merge_counters(hi: &mut NodeCounters, c: &NodeCounters, c_newer: bool) {
    hi.rows_output = hi.rows_output.max(c.rows_output);
    hi.rows_input = hi.rows_input.max(c.rows_input);
    hi.logical_reads = hi.logical_reads.max(c.logical_reads);
    hi.segments_processed = hi.segments_processed.max(c.segments_processed);
    hi.cpu_ns = hi.cpu_ns.max(c.cpu_ns);
    hi.executions = hi.executions.max(c.executions);
    hi.rows_processed = hi.rows_processed.max(c.rows_processed);
    // first/open times only ever become Some once; keep the earliest.
    hi.open_ns = match (hi.open_ns, c.open_ns) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    hi.first_row_ns = match (hi.first_row_ns, c.first_row_ns) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    if c_newer {
        hi.close_ns = c.close_ns;
        hi.rows_buffered = c.rows_buffered;
    }
}

/// Whether any monotone counter of `c` is *behind* the high-water `hi` —
/// the reset/regression signature.
fn regresses(hi: &NodeCounters, c: &NodeCounters) -> bool {
    c.rows_output < hi.rows_output
        || c.rows_input < hi.rows_input
        || c.logical_reads < hi.logical_reads
        || c.segments_processed < hi.segments_processed
}

impl SnapshotGuard {
    /// A guard for a plan with `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        SnapshotGuard {
            n_nodes,
            view: None,
            anomalies: AnomalyCounts::default(),
            last_ingest_had_anomaly: false,
        }
    }

    /// Ingest one received snapshot, classifying anomalies and folding it
    /// into the sanitized view. Returns `true` if this snapshot was clean
    /// (in order, monotone, well-formed).
    pub fn ingest(&mut self, s: &DmvSnapshot) -> bool {
        self.last_ingest_had_anomaly = false;
        if s.nodes.len() != self.n_nodes {
            self.anomalies.malformed += 1;
            self.last_ingest_had_anomaly = true;
            return false;
        }
        let Some(view) = &mut self.view else {
            self.view = Some(s.clone());
            return true;
        };
        let newer = s.ts_ns > view.ts_ns;
        let dup = s.ts_ns == view.ts_ns && s.nodes == view.nodes;
        if dup {
            self.anomalies.duplicates += 1;
            self.last_ingest_had_anomaly = true;
            return false;
        }
        if !newer && !dup {
            self.anomalies.out_of_order += 1;
            self.last_ingest_had_anomaly = true;
        }
        if newer
            && view
                .nodes
                .iter()
                .zip(&s.nodes)
                .any(|(h, c)| regresses(h, c))
        {
            self.anomalies.counter_resets += 1;
            self.last_ingest_had_anomaly = true;
        }
        for (hi, c) in view.nodes.iter_mut().zip(&s.nodes) {
            merge_counters(hi, c, newer);
        }
        view.ts_ns = view.ts_ns.max(s.ts_ns);
        !self.last_ingest_had_anomaly
    }

    /// The sanitized high-water snapshot, if anything has been ingested.
    pub fn view(&self) -> Option<&DmvSnapshot> {
        self.view.as_ref()
    }

    /// The plan's node count this guard validates against.
    pub(crate) fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Anomaly tallies since construction.
    pub fn anomalies(&self) -> &AnomalyCounts {
        &self.anomalies
    }
}

/// An [`EnsembleEstimator`] hardened by a [`SnapshotGuard`].
///
/// `observe` sanitizes the incoming snapshot, estimates from the high-water
/// view, and stamps the report: [`EstimateQuality::Degraded`] once any
/// anomaly has been absorbed, [`EstimateQuality::Fresh`] otherwise. The
/// report is handed to the caller and not kept: a consumer that serves it
/// again later (the server's poller) holds the one copy and downgrades it
/// to [`EstimateQuality::Stale`] itself as the telemetry ages.
/// Because the view is a high-water reconstruction, reported progress obeys
/// the same §4 bounds and clamps as a fault-free stream — and once the
/// genuine final snapshot arrives (in any order, amid any garbage), the
/// view equals it, so the final report converges to the fault-free one.
///
/// A degraded stream (any absorbed anomaly) additionally **freezes
/// selection**: the member estimates still flow, but the selection state
/// stops updating, so the lineup never switches estimators on reconstructed
/// telemetry. Anomaly counts are monotone — quality is `Degraded` forever
/// once the stream has misbehaved — so the freeze is likewise permanent.
pub struct GuardedEstimator {
    ensemble: EnsembleEstimator,
    guard: SnapshotGuard,
}

impl GuardedEstimator {
    /// Guard `ensemble` against the stream of the plan it was built for.
    pub fn new(ensemble: EnsembleEstimator) -> Self {
        let guard = SnapshotGuard::new(ensemble.statics().nodes.len());
        GuardedEstimator { ensemble, guard }
    }

    /// The inner ensemble (its stateless `replay` and members are used
    /// where bit-parity with offline replay matters, e.g. accuracy
    /// scoring).
    pub fn ensemble(&self) -> &EnsembleEstimator {
        &self.ensemble
    }

    /// The guard's anomaly tallies.
    pub fn anomalies(&self) -> &AnomalyCounts {
        self.guard.anomalies()
    }

    /// Ingest one received snapshot and produce a quality-stamped report
    /// from the sanitized view. If nothing well-formed has ever been
    /// ingested (the stream opened with malformed snapshots), the report is
    /// estimated from an all-zero counter state — progress 0, `Degraded`.
    pub fn observe(&mut self, s: &DmvSnapshot) -> ProgressReport {
        self.guard.ingest(s);
        let degraded = self.guard.anomalies().total() > 0;
        let zero;
        let view = match self.guard.view() {
            Some(view) => view,
            None => {
                zero = DmvSnapshot {
                    ts_ns: 0,
                    nodes: vec![NodeCounters::default(); self.guard.n_nodes()],
                };
                &zero
            }
        };
        // Degraded telemetry freezes selection: estimates keep flowing from
        // the already-chosen weights, but no switching happens on
        // reconstructed data.
        let mut report = self.ensemble.observe(view, degraded);
        if degraded {
            report.quality = EstimateQuality::Degraded;
        }
        report.staleness_ns = 0;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(rows: u64, reads: u64) -> NodeCounters {
        NodeCounters {
            rows_output: rows,
            rows_input: rows,
            logical_reads: reads,
            open_ns: Some(0),
            ..NodeCounters::default()
        }
    }

    fn snap(ts: u64, rows: u64) -> DmvSnapshot {
        DmvSnapshot {
            ts_ns: ts,
            nodes: vec![counters(rows, rows / 10)],
        }
    }

    #[test]
    fn clean_stream_reports_no_anomalies() {
        let mut g = SnapshotGuard::new(1);
        assert!(g.ingest(&snap(10, 5)));
        assert!(g.ingest(&snap(20, 9)));
        assert_eq!(g.anomalies().total(), 0);
        assert_eq!(g.view().unwrap().node(0).rows_output, 9);
    }

    #[test]
    fn out_of_order_is_absorbed_not_regressed() {
        let mut g = SnapshotGuard::new(1);
        g.ingest(&snap(20, 9));
        assert!(!g.ingest(&snap(10, 5)));
        assert_eq!(g.anomalies().out_of_order, 1);
        // View keeps the high-water counters and timestamp.
        assert_eq!(g.view().unwrap().ts_ns, 20);
        assert_eq!(g.view().unwrap().node(0).rows_output, 9);
    }

    #[test]
    fn duplicate_is_counted_once() {
        let mut g = SnapshotGuard::new(1);
        g.ingest(&snap(10, 5));
        assert!(!g.ingest(&snap(10, 5)));
        assert_eq!(g.anomalies().duplicates, 1);
    }

    #[test]
    fn counter_reset_never_drags_view_backwards() {
        let mut g = SnapshotGuard::new(1);
        g.ingest(&snap(10, 50));
        // Retry on the server: newer timestamp, counters restarted.
        assert!(!g.ingest(&snap(30, 3)));
        assert_eq!(g.anomalies().counter_resets, 1);
        assert_eq!(g.view().unwrap().node(0).rows_output, 50);
        assert_eq!(g.view().unwrap().ts_ns, 30);
    }

    #[test]
    fn malformed_snapshot_is_dropped_whole() {
        let mut g = SnapshotGuard::new(2);
        assert!(!g.ingest(&snap(10, 5))); // only 1 node
        assert_eq!(g.anomalies().malformed, 1);
        assert!(g.view().is_none());
    }

    /// The six-member ensemble over a one-node scan (so [`snap`] is a
    /// well-formed snapshot of it), guarded.
    fn guarded_scan() -> GuardedEstimator {
        use crate::ensemble::{EnsembleConfig, EnsembleEstimator};
        use lqs_storage::{Column, DataType, Schema, Table, Value};
        let mut t = Table::new("t", Schema::new(vec![Column::new("id", DataType::Int)]));
        for i in 0..1_000 {
            t.insert(vec![Value::Int(i)]).unwrap();
        }
        let mut db = lqs_storage::Database::new();
        let tid = db.add_table_analyzed(t);
        let mut b = lqs_plan::PlanBuilder::new(&db);
        let s = b.table_scan(tid);
        let plan = b.finish(s);
        let cost = lqs_plan::CostModel::default();
        GuardedEstimator::new(EnsembleEstimator::build(
            &plan,
            &db,
            &cost,
            EnsembleConfig::standard(7),
        ))
    }

    /// Regression (staleness interplay): once telemetry degrades, the
    /// ensemble must stop switching estimators — selection is computed from
    /// reconstructed data it can no longer trust. The freeze is permanent
    /// because anomaly counts are monotone (quality is `Degraded` forever).
    #[test]
    fn degraded_stream_freezes_ensemble_selection() {
        let mut g = guarded_scan();
        for i in 1..=5u64 {
            let r = g.observe(&snap(i * 10, i * 100));
            assert_eq!(r.quality, EstimateQuality::Fresh);
            assert!(r.ensemble.is_some(), "ensemble reports carry selection");
        }
        let before = g.ensemble().selection();
        // Out-of-order snapshot: anomaly → Degraded → selection frozen.
        let r = g.observe(&snap(20, 150));
        assert_eq!(r.quality, EstimateQuality::Degraded);
        assert_eq!(g.ensemble().selection(), before);
        // Clean-looking follow-ups never unfreeze it either.
        let r2 = g.observe(&snap(100, 900));
        assert_eq!(r2.quality, EstimateQuality::Degraded);
        assert_eq!(g.ensemble().selection(), before);
        assert_eq!(r2.ensemble, before);
    }

    /// The same stream without the fault *does* keep updating selection
    /// state (the freeze test above is meaningful).
    #[test]
    fn clean_stream_keeps_updating_ensemble_state() {
        let mut g = guarded_scan();
        g.observe(&snap(10, 100));
        let early = g.ensemble().selection();
        for i in 2..=8u64 {
            g.observe(&snap(i * 10, i * 100));
        }
        let late = g.ensemble().selection();
        // Weights move as evidence accumulates (selection id may or may not
        // change, but the weight vector cannot be byte-identical).
        assert_ne!(early.unwrap().weights, late.unwrap().weights);
    }
}
