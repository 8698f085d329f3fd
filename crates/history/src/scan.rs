//! The journal scanner: materialize per-session progress curves, per-node
//! time attribution, and per-workload percentile summaries from a journal
//! directory.
//!
//! Everything here is computed **purely from journal bytes** on the
//! sessions' own virtual clocks — no wall clock, no live registry — so two
//! scans of an unchanged directory produce identical values, and any
//! serialization of them is byte-for-byte reproducible. Torn tails and
//! concurrent retention sweeps are absorbed by `lqs_journal::scan_dir`
//! (truncate-at-first-invalid-frame, swept-sessions-dropped); this layer
//! never panics on hostile input either.

use crate::store::{plan_features, PlanFeatures};
use lqs_journal::{
    list_sessions, read_session, scan_dir, JournalScan, RecoveredSession, SessionMeta,
};
use lqs_metrics::percentile;
use lqs_plan::PhysicalPlan;
use lqs_progress::{error_count, error_time, EstimatorConfig, ProgressEstimator};
use lqs_storage::Database;
use std::path::Path;
use std::sync::Arc;

/// A plan (and the database its estimator statics are built from),
/// re-resolved for a journaled session. Journals store plan fingerprints,
/// not plans — anything that wants estimator-grade analytics (accuracy
/// replay, operator names, plan features) must rebuild the plan, exactly
/// like the server's recovery path.
#[derive(Clone)]
pub struct ResolvedPlan {
    /// The rebuilt physical plan.
    pub plan: Arc<PhysicalPlan>,
    /// The database the plan executes against.
    pub db: Arc<Database>,
}

/// Re-resolves journaled sessions' plans for history analytics. Return
/// `None` when the plan cannot be rebuilt — the session still gets its
/// journal-pure curve and attribution, just no accuracy replay or operator
/// names.
pub trait HistoryResolver {
    /// The plan + database for `meta`'s session, or `None`.
    fn resolve(&self, meta: &SessionMeta) -> Option<ResolvedPlan>;
}

impl<F> HistoryResolver for F
where
    F: Fn(&SessionMeta) -> Option<ResolvedPlan>,
{
    fn resolve(&self, meta: &SessionMeta) -> Option<ResolvedPlan> {
        self(meta)
    }
}

/// One point of a session's progress-over-time curve, sampled at a
/// journaled snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Virtual timestamp of the snapshot.
    pub ts_ns: u64,
    /// Cumulative virtual CPU nanoseconds across all plan nodes.
    pub cpu_ns: u64,
    /// Cumulative logical page reads across all plan nodes.
    pub logical_reads: u64,
    /// Fraction of the session's eventual total CPU work done by this
    /// point, in `[0, 1]` — the journal-pure progress proxy (no plan or
    /// estimator needed, hence computable for *any* journal).
    pub progress: f64,
}

/// Final resource totals of one plan node — the "slowest node" attribution
/// unit. Matches the offline harness's per-node ground truth: for a
/// completed session the last journaled snapshot *is* the run's
/// `final_counters`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAttribution {
    /// Node index (`NodeId.0`).
    pub node: usize,
    /// Operator display name, when a resolver rebuilt the plan.
    pub op: Option<String>,
    /// Total virtual CPU nanoseconds charged to this node.
    pub cpu_ns: u64,
    /// Total logical page reads issued by this node.
    pub logical_reads: u64,
    /// Total rows output by this node.
    pub rows_output: u64,
    /// This node's share of the session's total CPU, in `[0, 1]`.
    pub share: f64,
}

/// Everything the history layer derives for one journaled session.
#[derive(Debug, Clone)]
pub struct SessionHistory {
    /// Journal epoch of the writing service incarnation.
    pub epoch: u32,
    /// Session id within that epoch.
    pub session_id: u64,
    /// Session display name (empty when the meta record was lost).
    pub name: String,
    /// Workload label (empty when the meta record was lost).
    pub workload: String,
    /// Structural plan fingerprint (0 when the meta record was lost).
    pub plan_fingerprint: u64,
    /// How the session ended: a terminal-state label (`succeeded`,
    /// `cancelled`, `deadline_exceeded`, `failed`, `rejected`), or
    /// `interrupted` when the journal has no terminal record, or
    /// `unreadable` when even the meta record was lost.
    pub outcome: &'static str,
    /// Virtual runtime: the terminal record's timestamp, else the last
    /// snapshot's.
    pub runtime_ns: u64,
    /// Total virtual CPU nanoseconds across all nodes at the end.
    pub total_cpu_ns: u64,
    /// Total logical reads across all nodes at the end.
    pub total_logical_reads: u64,
    /// Rows returned by the root operator (completed sessions only).
    pub rows_returned: u64,
    /// Snapshots that survived in the journal.
    pub snapshots: usize,
    /// Corrupt records discarded while reading this session's journal.
    pub corrupt_records: u64,
    /// Progress-over-time curve, one point per surviving snapshot.
    pub curve: Vec<CurvePoint>,
    /// Per-node final totals, index order.
    pub nodes: Vec<NodeAttribution>,
    /// Plan features, when a resolver rebuilt the plan (feeds the
    /// prediction store).
    pub(crate) features: Option<PlanFeatures>,
    /// Paper §5 ErrorAvg of a full estimator replay over the journaled
    /// trace; `Some` only for succeeded sessions with a resolved,
    /// fingerprint-matching plan.
    pub error_avg: Option<f64>,
    /// Paper §5 ErrorTime, same conditions as `error_avg`.
    pub error_time: Option<f64>,
    /// Id of the ensemble member that served the session, when its journal
    /// recorded a selection (`None` for single-estimator sessions and for
    /// journals written before the record existed).
    pub estimator: Option<String>,
}

impl SessionHistory {
    /// Stable key for this session within the scanned directory:
    /// `e{epoch}-s{session_id}`.
    pub fn key(&self) -> String {
        format!("e{}-s{}", self.epoch, self.session_id)
    }

    /// Nodes ranked by CPU attribution, slowest first; ties break on the
    /// node index so the ranking is deterministic.
    pub fn slowest_nodes(&self) -> Vec<&NodeAttribution> {
        let mut out: Vec<&NodeAttribution> = self.nodes.iter().collect();
        out.sort_by(|a, b| b.cpu_ns.cmp(&a.cpu_ns).then(a.node.cmp(&b.node)));
        out
    }

    /// Whether the session ran to completion.
    pub fn succeeded(&self) -> bool {
        self.outcome == "succeeded"
    }
}

/// Exact p50/p90/p99 of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctls {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Pctls {
    fn from_samples(mut values: Vec<f64>) -> Pctls {
        // `total_cmp`, not `partial_cmp`: a degenerate journal can replay to
        // a NaN error sample, and one bad session must not panic the whole
        // summary. NaNs sort to the ends and surface in the top percentiles.
        values.sort_by(f64::total_cmp);
        Pctls {
            p50: percentile(&values, 0.50),
            p90: percentile(&values, 0.90),
            p99: percentile(&values, 0.99),
        }
    }
}

/// Per-workload-class percentile summary across journaled sessions.
/// Resource percentiles cover **succeeded** sessions (aborted runs would
/// skew runtime low); the error percentiles cover the subset that had a
/// resolvable plan.
#[derive(Debug, Clone)]
pub struct WorkloadPercentiles {
    /// Workload label.
    pub workload: String,
    /// All journaled sessions of this workload, any outcome.
    pub sessions: usize,
    /// Sessions that ran to completion (the percentile population).
    pub succeeded: usize,
    /// Virtual runtime percentiles, nanoseconds.
    pub runtime_ns: Pctls,
    /// Total virtual CPU percentiles, nanoseconds.
    pub cpu_ns: Pctls,
    /// Total logical-read percentiles, pages.
    pub logical_reads: Pctls,
    /// ErrorAvg percentiles over accuracy-scored sessions, when any.
    pub error_avg: Option<Pctls>,
    /// ErrorTime percentiles over accuracy-scored sessions, when any.
    pub error_time: Option<Pctls>,
}

/// One entry of the fleet-wide slowest-node ranking: a plan node
/// aggregated across every journaled session of the same plan fingerprint.
#[derive(Debug, Clone)]
pub struct FleetNode {
    /// Plan fingerprint the node belongs to.
    pub(crate) plan_fingerprint: u64,
    /// Name of (one of) the sessions running this plan.
    pub name: String,
    /// Node index within the plan.
    pub node: usize,
    /// Operator display name, when resolvable.
    pub op: Option<String>,
    /// Sessions aggregated.
    pub sessions: usize,
    /// Total virtual CPU nanoseconds across those sessions.
    pub cpu_ns: u64,
    /// Total logical reads across those sessions.
    pub logical_reads: u64,
}

/// Accuracy summary for the population of sessions served by one ensemble
/// estimator selection (as journaled at terminal time).
#[derive(Debug, Clone)]
pub struct EstimatorAccuracy {
    /// Selected estimator id; `"single"` groups sessions whose journals
    /// carry no selection (pre-ensemble journals and fixed-config runs).
    pub estimator: String,
    /// Sessions whose journal recorded this selection, any outcome.
    pub sessions: usize,
    /// Sessions with an accuracy replay (succeeded + resolvable plan).
    pub scored: usize,
    /// ErrorAvg percentiles over the scored population, when any.
    pub error_avg: Option<Pctls>,
}

/// The cross-session history view of one journal directory.
#[derive(Debug, Clone, Default)]
pub struct FleetHistory {
    /// Every journaled session, ordered by `(epoch, session_id)`.
    pub sessions: Vec<SessionHistory>,
    /// Corrupt records discarded across the whole scan.
    pub corrupt_records: u64,
    /// Total journal bytes read.
    pub bytes_scanned: u64,
    /// Sessions deleted by a concurrent retention sweep mid-scan.
    pub sessions_swept: u64,
}

impl FleetHistory {
    /// Look up a session by key: either the full `e{epoch}-s{id}` form or a
    /// bare session id (resolved in the **newest** epoch that has it, so
    /// the bare form always means "the most recent run with that id").
    pub fn session(&self, key: &str) -> Option<&SessionHistory> {
        let (epoch, sid) = parse_session_key(key)?;
        self.sessions
            .iter()
            .rev()
            .find(|s| s.session_id == sid && epoch.is_none_or(|e| s.epoch == e))
    }

    /// Per-workload percentile summaries, sorted by workload label.
    pub fn percentiles(&self) -> Vec<WorkloadPercentiles> {
        let mut labels: Vec<&str> = self.sessions.iter().map(|s| s.workload.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
            .into_iter()
            .map(|w| self.percentiles_for(w))
            .collect()
    }

    /// Percentile summary for one workload label (empty-population
    /// summaries have all-zero percentiles and `sessions == 0`).
    pub fn percentiles_for(&self, workload: &str) -> WorkloadPercentiles {
        let all: Vec<&SessionHistory> = self
            .sessions
            .iter()
            .filter(|s| s.workload == workload)
            .collect();
        let done: Vec<&&SessionHistory> = all.iter().filter(|s| s.succeeded()).collect();
        let sample = |f: &dyn Fn(&SessionHistory) -> f64| -> Vec<f64> {
            done.iter().map(|s| f(s)).collect()
        };
        let errors: Vec<f64> = done.iter().filter_map(|s| s.error_avg).collect();
        let error_times: Vec<f64> = done.iter().filter_map(|s| s.error_time).collect();
        WorkloadPercentiles {
            workload: workload.to_owned(),
            sessions: all.len(),
            succeeded: done.len(),
            runtime_ns: Pctls::from_samples(sample(&|s| s.runtime_ns as f64)),
            cpu_ns: Pctls::from_samples(sample(&|s| s.total_cpu_ns as f64)),
            logical_reads: Pctls::from_samples(sample(&|s| s.total_logical_reads as f64)),
            error_avg: (!errors.is_empty()).then(|| Pctls::from_samples(errors)),
            error_time: (!error_times.is_empty()).then(|| Pctls::from_samples(error_times)),
        }
    }

    /// Accuracy segmented by the estimator that served each session, sorted
    /// by estimator id. Sessions whose journals carry no selection group
    /// under `"single"`.
    pub fn accuracy_by_estimator(&self) -> Vec<EstimatorAccuracy> {
        let mut labels: Vec<&str> = self
            .sessions
            .iter()
            .map(|s| s.estimator.as_deref().unwrap_or("single"))
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels
            .into_iter()
            .map(|label| {
                let all: Vec<&SessionHistory> = self
                    .sessions
                    .iter()
                    .filter(|s| s.estimator.as_deref().unwrap_or("single") == label)
                    .collect();
                let errors: Vec<f64> = all.iter().filter_map(|s| s.error_avg).collect();
                EstimatorAccuracy {
                    estimator: label.to_owned(),
                    sessions: all.len(),
                    scored: errors.len(),
                    error_avg: (!errors.is_empty()).then(|| Pctls::from_samples(errors)),
                }
            })
            .collect()
    }

    /// Fleet-wide slowest-node ranking: per-node CPU totals aggregated
    /// across sessions sharing a plan fingerprint, slowest first, top
    /// `top`. Deterministic: ties break on `(fingerprint, node)`.
    pub fn slowest_nodes(&self, top: usize) -> Vec<FleetNode> {
        use std::collections::BTreeMap;
        let mut agg: BTreeMap<(u64, usize), FleetNode> = BTreeMap::new();
        for s in &self.sessions {
            for n in &s.nodes {
                let e = agg
                    .entry((s.plan_fingerprint, n.node))
                    .or_insert(FleetNode {
                        plan_fingerprint: s.plan_fingerprint,
                        name: s.name.clone(),
                        node: n.node,
                        op: n.op.clone(),
                        sessions: 0,
                        cpu_ns: 0,
                        logical_reads: 0,
                    });
                e.sessions += 1;
                e.cpu_ns += n.cpu_ns;
                e.logical_reads += n.logical_reads;
                if e.op.is_none() {
                    e.op = n.op.clone();
                }
            }
        }
        let mut out: Vec<FleetNode> = agg.into_values().collect();
        out.sort_by(|a, b| {
            b.cpu_ns
                .cmp(&a.cpu_ns)
                .then(a.plan_fingerprint.cmp(&b.plan_fingerprint))
                .then(a.node.cmp(&b.node))
        });
        out.truncate(top);
        out
    }
}

/// Build one session's history from its recovered journal stream. `score`
/// runs the §5 accuracy replay (the dominant cost, one estimator pass per
/// snapshot); without it `error_avg`/`error_time` are `None`.
fn session_history(
    session: &RecoveredSession,
    resolver: Option<&dyn HistoryResolver>,
    score: bool,
) -> SessionHistory {
    let last = session.snapshots.last();
    let total_cpu_ns = last.map_or(0, |s| s.nodes.iter().map(|n| n.cpu_ns).sum());
    let total_logical_reads = last.map_or(0, |s| s.nodes.iter().map(|n| n.logical_reads).sum());
    let resolved = session.meta.as_ref().and_then(|meta| {
        let r = resolver?.resolve(meta)?;
        // A plan whose structure changed would mislabel nodes and produce
        // silently wrong estimator weights — same refusal as recovery.
        (lqs_journal::plan_fingerprint(&r.plan) == meta.plan_fingerprint).then_some(r)
    });

    let curve = session
        .snapshots
        .iter()
        .map(|s| {
            let cpu_ns: u64 = s.nodes.iter().map(|n| n.cpu_ns).sum();
            CurvePoint {
                ts_ns: s.ts_ns,
                cpu_ns,
                logical_reads: s.nodes.iter().map(|n| n.logical_reads).sum(),
                progress: if total_cpu_ns == 0 {
                    0.0
                } else {
                    (cpu_ns as f64 / total_cpu_ns as f64).clamp(0.0, 1.0)
                },
            }
        })
        .collect();

    let nodes = last
        .map(|s| {
            s.nodes
                .iter()
                .enumerate()
                .map(|(i, n)| NodeAttribution {
                    node: i,
                    op: resolved.as_ref().and_then(|r| {
                        (i < r.plan.len()).then(|| {
                            r.plan
                                .node(lqs_plan::NodeId(i))
                                .op
                                .display_name()
                                .to_owned()
                        })
                    }),
                    cpu_ns: n.cpu_ns,
                    logical_reads: n.logical_reads,
                    rows_output: n.rows_output,
                    share: if total_cpu_ns == 0 {
                        0.0
                    } else {
                        n.cpu_ns as f64 / total_cpu_ns as f64
                    },
                })
                .collect()
        })
        .unwrap_or_default();

    // §5 accuracy replay of the journaled run, bit-identical to the offline
    // harness and the poller's online scoring. A run none of whose
    // snapshots survived has nothing to score.
    let scored = (resolved.as_ref())
        .filter(|_| score && !session.snapshots.is_empty())
        .and_then(|r| Some((r, session.completed_run()?)));
    let (error_avg, error_time_v) = match scored {
        Some((r, run)) => {
            let est = ProgressEstimator::with_cost_model(
                &r.plan,
                &r.db,
                EstimatorConfig::full(),
                &run.cost_model,
            );
            let estimates = est.estimate_trace(&run.snapshots);
            (
                Some(error_count(&run, &estimates)),
                Some(error_time(&run, &estimates)),
            )
        }
        None => (None, None),
    };

    SessionHistory {
        epoch: session.epoch,
        session_id: session.session_id,
        name: session
            .meta
            .as_ref()
            .map(|m| m.name.clone())
            .unwrap_or_default(),
        workload: session
            .meta
            .as_ref()
            .map(|m| m.workload.clone())
            .unwrap_or_default(),
        plan_fingerprint: session.meta.as_ref().map_or(0, |m| m.plan_fingerprint),
        outcome: match (&session.meta, &session.terminal) {
            (None, _) => "unreadable",
            (_, Some(t)) => t.kind.as_str(),
            (_, None) => "interrupted",
        },
        runtime_ns: session.end_ts_ns(),
        total_cpu_ns,
        total_logical_reads,
        rows_returned: session.terminal.as_ref().map_or(0, |t| t.rows_returned),
        snapshots: session.snapshots.len(),
        corrupt_records: session.corrupt_records,
        curve,
        nodes,
        features: resolved.as_ref().map(|r| plan_features(&r.plan)),
        error_avg,
        error_time: error_time_v,
        estimator: session.estimator.as_ref().map(|e| e.selected.clone()),
    }
}

/// Materialize the fleet history of an already-performed journal scan.
pub fn history_from_scan(
    scan: &JournalScan,
    resolver: Option<&dyn HistoryResolver>,
) -> FleetHistory {
    FleetHistory {
        sessions: scan
            .sessions
            .iter()
            .map(|s| session_history(s, resolver, true))
            .collect(),
        corrupt_records: scan.corrupt_records,
        bytes_scanned: scan.bytes_scanned,
        sessions_swept: scan.sessions_swept,
    }
}

/// Scan a journal directory into a [`FleetHistory`], optionally windowed
/// to sessions whose virtual-time activity intersects `[since_ns,
/// until_ns]` and enriched through `resolver`. I/O errors on the directory
/// itself propagate; corrupt or concurrently-deleted content never does.
pub fn scan_history(
    dir: &Path,
    window: Option<(u64, u64)>,
    resolver: Option<&dyn HistoryResolver>,
) -> std::io::Result<FleetHistory> {
    let mut scan = scan_dir(dir)?;
    if let Some((since, until)) = window {
        scan.retain_window(since, until);
    }
    Ok(history_from_scan(&scan, resolver))
}

/// What [`scan_session_curve`] found and what finding it cost.
#[derive(Debug, Clone)]
pub struct SessionCurveScan {
    /// The addressed session, or `None` when no journaled session matches
    /// the key inside the window. `error_avg`/`error_time` are always
    /// `None`: the curve view skips the accuracy replay.
    pub session: Option<SessionHistory>,
    /// Journal bytes read to answer.
    pub bytes_scanned: u64,
    /// Sessions read from disk to answer (more than one only when a bare
    /// id had to fall back past a swept or out-of-window newer epoch).
    pub sessions_read: u64,
}

/// The route-scoped read behind `/history/session/{key}/curve`: list the
/// directory by name, then read **only** the segments of the session `key`
/// addresses — same key forms, same windowing and same sweep-race handling
/// as [`scan_history`] followed by [`FleetHistory::session`], so the
/// returned curve, attribution and outcome are identical to that session's
/// entry in a full scan. Only `error_avg`/`error_time` differ (not
/// computed here).
pub fn scan_session_curve(
    dir: &Path,
    key: &str,
    window: Option<(u64, u64)>,
    resolver: Option<&dyn HistoryResolver>,
) -> std::io::Result<SessionCurveScan> {
    let mut out = SessionCurveScan {
        session: None,
        bytes_scanned: 0,
        sessions_read: 0,
    };
    let Some((epoch, session_id)) = parse_session_key(key) else {
        return Ok(out);
    };
    let listed = list_sessions(dir)?;
    // Newest epoch first: a bare id means "the most recent run with that
    // id" among the sessions a full scan would have kept.
    let candidates = listed
        .iter()
        .rev()
        .filter(|l| l.session_id == session_id && epoch.is_none_or(|e| l.epoch == e));
    for candidate in candidates {
        let read = read_session(candidate);
        out.bytes_scanned += read.bytes_scanned;
        out.sessions_read += 1;
        let in_scan = read
            .session
            .filter(|s| window.is_none_or(|(since, until)| s.overlaps_window(since, until)));
        if let Some(session) = in_scan {
            out.session = Some(session_history(&session, resolver, false));
            break;
        }
    }
    Ok(out)
}

/// Parse a session key: `e{epoch}-s{id}` or a bare id (any epoch).
fn parse_session_key(key: &str) -> Option<(Option<u32>, u64)> {
    match key.strip_prefix('e') {
        Some(rest) => {
            let (epoch, sid) = rest.split_once("-s")?;
            Some((Some(epoch.parse().ok()?), sid.parse().ok()?))
        }
        None => Some((None, key.parse().ok()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_sample_does_not_panic_the_percentiles() {
        // One degenerate session replaying to a NaN error must not take
        // the whole summary down; the finite samples keep their order.
        let p = Pctls::from_samples(vec![0.3, f64::NAN, 0.1, 0.2]);
        assert_eq!(p.p50, percentile(&[0.1, 0.2, 0.3, f64::NAN], 0.50));
        assert!(p.p50.is_finite());
        assert!(
            p.p99.is_nan(),
            "the NaN surfaces at the top, not as a panic"
        );
    }

    #[test]
    fn session_keys_parse_both_forms() {
        assert_eq!(parse_session_key("e3-s12"), Some((Some(3), 12)));
        assert_eq!(parse_session_key("12"), Some((None, 12)));
        assert_eq!(parse_session_key("e3"), None);
        assert_eq!(parse_session_key("e3-sx"), None);
        assert_eq!(parse_session_key("nope"), None);
    }
}
