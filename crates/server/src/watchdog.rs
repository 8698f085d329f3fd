//! The live stall watchdog: a sweeper over the [`SessionRegistry`] that
//! classifies every running session as healthy, **stalled**, or
//! **diverging** — the "is the progress bar lying to me" question the
//! paper's DMV consumers (SSMS operators watching Live Query Statistics)
//! answer by eyeball, answered mechanically.
//!
//! * **Stalled** — the session is [`SessionState::Running`] but its
//!   publish sequence has not moved for [`WatchdogConfig::stall_sweeps`]
//!   consecutive sweeps *and* the wall-clock window
//!   [`WatchdogConfig::stall_wall`] has elapsed since the last observed
//!   change. The sweep count is the deterministic axis (tests zero the
//!   wall window); the wall window keeps a production watchdog sweeping
//!   faster than the snapshot cadence from crying wolf.
//! * **Diverging** — the GetNext-model estimate and the raw observed-rows
//!   progress disagree by more than [`WatchdogConfig::divergence_band`]
//!   for two consecutive sweeps (`DIVERGENCE_SWEEPS`). The
//!   estimate is the paper's Equation 2 figure from the session's
//!   [`GuardedEstimator`]; the observed figure is the unweighted row
//!   fraction Σ min(rows_output, N̂) / Σ N̂ over the same refined
//!   cardinalities, so the comparison uses the estimator's own world
//!   model and drifts only when *work-weighting* and *row counts* tell
//!   different stories (the §3.3 failure mode: a mis-costed operator
//!   dominating the weighted figure).
//!
//! Stalled takes priority over diverging: a wedged session's snapshot is
//! frozen, so any divergence it shows is an artifact of the stall.
//!
//! Each transition *into* an unhealthy state raises one alert: counted on
//! `lqs_watchdog_alerts_total{kind=...}`, appended to the session's
//! journal as an [`AlertRecord`] (so post-mortem scans see what the
//! watchdog saw, with virtual timestamps), and surfaced on
//! `GET /alerts`. Returning to health clears the live alert; the journal
//! record stays, as history.

use crate::registry::{lineup_of_one, session_estimator, Lineup, SessionRegistry};
use crate::session::{SessionHandle, SessionId, SessionState};
use lqs_exec::DmvSnapshot;
use lqs_journal::{AlertKind, AlertRecord};
use lqs_metrics::MetricsRegistry;
use lqs_progress::{EstimatorConfig, GuardedEstimator};
use lqs_storage::Database;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the watchdog *does* about a session that stays stalled —
/// detection turned into graceful degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemediationPolicy {
    /// Raise alerts only (the pre-remediation behavior, and the default).
    Observe,
    /// After `after_stalled_sweeps` consecutive stalled sweeps, cancel the
    /// session through its [`lqs_exec::CancellationToken`]. The run aborts
    /// at its next virtual-clock tick and lands in the terminal
    /// `Cancelled` state; the remediation never consumes the session's
    /// transient-fault retry budget.
    Cancel {
        /// Consecutive stalled sweeps before cancelling (min 1).
        after_stalled_sweeps: u64,
    },
}

/// Consecutive divergent sweeps before a session is flagged diverging.
const DIVERGENCE_SWEEPS: u64 = 2;

/// Classification thresholds for one [`Watchdog`].
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Consecutive sweeps the publish sequence must stay unchanged before
    /// a running session is stalled.
    pub stall_sweeps: u64,
    /// Wall-clock time the publish sequence must stay unchanged before a
    /// running session is stalled (on top of the sweep count). Zero makes
    /// classification purely sweep-driven — what deterministic tests use.
    pub stall_wall: Duration,
    /// How far (in absolute progress, `[0, 1]`) the estimate may sit from
    /// the observed-rows figure before a sweep counts as divergent.
    pub divergence_band: f64,
    /// What to do about sessions that stay stalled.
    pub remediation: RemediationPolicy,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            stall_sweeps: 3,
            stall_wall: Duration::from_secs(2),
            divergence_band: 0.35,
            remediation: RemediationPolicy::Observe,
        }
    }
}

/// One session's health as of the latest sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Publishing and telling a consistent story.
    Healthy,
    /// Running but not publishing progress.
    Stalled,
    /// Estimate and observed rows disagree beyond the band.
    Diverging,
}

/// A live alert: one session currently classified unhealthy.
#[derive(Debug, Clone)]
pub struct SessionAlert {
    /// The unhealthy session.
    pub id: SessionId,
    /// Its display name.
    pub(crate) name: String,
    /// What kind of unhealth.
    pub kind: AlertKind,
    /// Virtual timestamp of the session's latest snapshot when the alert
    /// was raised (0 before any publish).
    pub(crate) ts_ns: u64,
    /// Publish sequence when the alert was raised.
    pub seq: u64,
    /// Human-readable specifics (sweep counts, progress figures).
    pub detail: String,
}

/// Per-session sweep state.
struct Track {
    /// Publish sequence at the last sweep (`None` on the first).
    last_seq: Option<u64>,
    /// Sweeps since the sequence last moved.
    unchanged_sweeps: u64,
    /// Wall instant the sequence last moved (or was first observed).
    changed_at: Instant,
    /// Consecutive sweeps outside the divergence band.
    diverging_sweeps: u64,
    /// Latest (publish sequence, estimate, observed): the alert detail,
    /// and the verdict every sweep that finds that sequence unchanged
    /// applies again without re-estimating.
    last_drift: Option<(u64, f64, f64)>,
    /// Classification as of the previous sweep.
    health: Health,
    /// Consecutive sweeps classified [`Health::Stalled`] (the remediation
    /// countdown).
    stalled_sweeps: u64,
    /// Remediation already fired for this episode — fire at most once.
    remediated: bool,
    /// The session's progress estimator, persistent across sweeps (its
    /// anomaly state must accumulate, same as the poller's).
    estimator: GuardedEstimator,
}

/// Sweeps a [`SessionRegistry`], classifying running sessions and raising
/// alerts on transitions into [`Health::Stalled`] / [`Health::Diverging`].
///
/// Classification is deterministic given the snapshot sequence each sweep
/// observes: with [`WatchdogConfig::stall_wall`] zeroed, two watchdogs
/// sweeping the same published states reach identical verdicts.
pub struct Watchdog {
    db: Arc<Database>,
    registry: Arc<SessionRegistry>,
    config: WatchdogConfig,
    lineup: Box<Lineup>,
    metrics: Arc<MetricsRegistry>,
    track: HashMap<SessionId, Track>,
    /// Current alerts, keyed (and therefore served) by session id.
    alerts: BTreeMap<SessionId, SessionAlert>,
    /// Completed sweeps — the deterministic time axis.
    sweeps: u64,
    /// Remediations fired so far (cancellations).
    remediations: u64,
    /// Reusable snapshot buffer (same pooling as the poller's).
    scratch: DmvSnapshot,
}

impl Watchdog {
    /// A watchdog over `registry`, estimating with `estimator_config`,
    /// classifying with `config`, and counting into a registry of its own.
    pub fn new(
        db: Arc<Database>,
        registry: Arc<SessionRegistry>,
        estimator_config: EstimatorConfig,
        config: WatchdogConfig,
    ) -> Self {
        Watchdog {
            db,
            registry,
            config,
            lineup: lineup_of_one(estimator_config),
            metrics: Arc::default(),
            track: HashMap::new(),
            alerts: BTreeMap::new(),
            sweeps: 0,
            remediations: 0,
            scratch: DmvSnapshot {
                ts_ns: 0,
                nodes: Vec::new(),
            },
        }
    }

    /// Count raised alerts on `lqs_watchdog_alerts_total{kind=...}` in
    /// the shared `registry` instead of the watchdog's own.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// The registry the watchdog counts into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Completed sweeps so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Remediations fired so far (cancellations).
    pub fn remediations(&self) -> u64 {
        self.remediations
    }

    /// The latest classification of `id`, if it was running at the last
    /// sweep.
    pub fn health(&self, id: SessionId) -> Option<Health> {
        self.track.get(&id).map(|t| t.health)
    }

    /// Current alerts, ordered by session id. An alert stays listed until
    /// its session returns to health or leaves the running state.
    pub fn alerts(&self) -> Vec<SessionAlert> {
        self.alerts.values().cloned().collect()
    }

    /// Sweep every registered session once, returning the alerts *newly
    /// raised* by this sweep (transitions into an unhealthy state only —
    /// a session that stays stalled raises nothing new).
    pub fn sweep(&mut self) -> Vec<SessionAlert> {
        let sweep_started = Instant::now();
        self.sweeps += 1;
        let mut raised = Vec::new();
        let sessions = self.registry.sessions();
        for handle in &sessions {
            let id = handle.id();
            if handle.state() != SessionState::Running {
                // Queued sessions have nothing to classify yet; terminal
                // ones end the episode — drop tracking and any live alert
                // (the journal keeps the permanent record).
                self.track.remove(&id);
                self.alerts.remove(&id);
                continue;
            }
            let seq = handle.published_seq();
            let track = self.track.entry(id).or_insert_with(|| Track {
                last_seq: None,
                unchanged_sweeps: 0,
                changed_at: Instant::now(),
                diverging_sweeps: 0,
                last_drift: None,
                health: Health::Healthy,
                stalled_sweeps: 0,
                remediated: false,
                estimator: session_estimator(&self.lineup, &self.db, handle),
            });

            // Stall bookkeeping: the publish sequence is the heartbeat.
            let moved = track.last_seq != Some(seq);
            if moved {
                track.last_seq = Some(seq);
                track.unchanged_sweeps = 0;
                track.changed_at = Instant::now();
            } else {
                track.unchanged_sweeps += 1;
            }

            // Divergence bookkeeping: compare the work-weighted estimate
            // with the unweighted observed-rows fraction over the same
            // refined cardinalities. Only a new snapshot is estimated (a
            // re-read would reach the guard as a duplicate); no snapshot,
            // or a shape-mismatched one from a reshaping filter, leaves
            // the divergence state untouched — stall detection covers
            // silence.
            if moved
                && handle.read_snapshot_into(&mut self.scratch)
                && self.scratch.nodes.len() == handle.plan().len()
            {
                let report = track.estimator.observe(&self.scratch);
                let mut expected = 0.0f64;
                let mut done = 0.0f64;
                for (i, node) in report.nodes.iter().enumerate() {
                    let refined = node.refined_n.max(0.0);
                    expected += refined;
                    done += (self.scratch.nodes[i].rows_output as f64).min(refined);
                }
                if expected > 0.0 {
                    let observed = (done / expected).clamp(0.0, 1.0);
                    let estimate = report.query_progress.clamp(0.0, 1.0);
                    track.last_drift = Some((seq, estimate, observed));
                }
            }
            if let Some((_, estimate, observed)) = track.last_drift.filter(|d| d.0 == seq) {
                if (estimate - observed).abs() > self.config.divergence_band {
                    track.diverging_sweeps += 1;
                } else {
                    track.diverging_sweeps = 0;
                }
            }

            let stalled = track.unchanged_sweeps >= self.config.stall_sweeps
                && track.changed_at.elapsed() >= self.config.stall_wall;
            let diverging = track.diverging_sweeps >= DIVERGENCE_SWEEPS;
            let health = if stalled {
                Health::Stalled
            } else if diverging {
                Health::Diverging
            } else {
                Health::Healthy
            };
            if health == Health::Stalled {
                track.stalled_sweeps += 1;
            } else {
                track.stalled_sweeps = 0;
            }
            if health != track.health {
                track.health = health;
                let kind_detail = match health {
                    Health::Healthy => {
                        self.alerts.remove(&id);
                        None
                    }
                    Health::Stalled => Some((
                        AlertKind::Stalled,
                        format!(
                            "no snapshot progress for {} sweeps (published_seq {} unchanged)",
                            track.unchanged_sweeps, seq
                        ),
                    )),
                    Health::Diverging => {
                        let (_, estimate, observed) = track.last_drift.unwrap_or_default();
                        Some((
                            AlertKind::Diverging,
                            format!(
                                "estimated progress {:.3} vs observed-rows progress {:.3} \
                                 beyond band {:.3} for {} sweeps",
                                estimate,
                                observed,
                                self.config.divergence_band,
                                track.diverging_sweeps
                            ),
                        ))
                    }
                };
                if let Some((kind, detail)) = kind_detail {
                    self.metrics
                        .counter(
                            "lqs_watchdog_alerts_total",
                            "Watchdog alerts raised on transitions into an unhealthy state, by kind",
                            &[("kind", kind.as_str())],
                        )
                        .inc();
                    raised.push(raise(&mut self.alerts, handle, kind, seq, detail));
                }
            }
            // Remediation: after the policy's threshold of consecutive
            // stalled sweeps, act exactly once. The cancel rides the
            // session's own token, so the run aborts on its normal
            // cancellation path — an `Ok(Err(aborted))` landing in the
            // terminal `Cancelled` state, never a retryable fault (the
            // worker additionally refuses transient-fault retries once the
            // token is cancelled, so the retry budget is untouched).
            let cancel_due = matches!(
                self.config.remediation,
                RemediationPolicy::Cancel { after_stalled_sweeps }
                    if track.stalled_sweeps >= after_stalled_sweeps.max(1)
            );
            if health == Health::Stalled && !track.remediated && cancel_due {
                track.remediated = true;
                self.remediations += 1;
                handle.cancel();
                self.metrics
                    .counter(
                        "lqs_watchdog_remediations_total",
                        "Watchdog remediations fired on sessions that stayed stalled, by action",
                        &[("action", "cancel")],
                    )
                    .inc();
                let detail = format!(
                    "cancel after {} consecutive stalled sweeps",
                    track.stalled_sweeps
                );
                raised.push(raise(
                    &mut self.alerts,
                    handle,
                    AlertKind::Remediated,
                    seq,
                    detail,
                ));
            }
        }
        // Sessions gone from the registry entirely (evicted) end their
        // episodes too.
        let live: std::collections::HashSet<SessionId> = sessions.iter().map(|h| h.id()).collect();
        self.track.retain(|id, _| live.contains(id));
        self.alerts.retain(|id, _| live.contains(id));
        self.metrics
            .histogram(
                "lqs_watchdog_sweep_seconds",
                "Wall-clock duration of one watchdog sweep over the registry",
                &[],
            )
            .observe(sweep_started.elapsed().as_secs_f64());
        raised
    }
}

/// Raise one alert on `handle`: stamp it with the session's latest snapshot
/// time, append it to the session's journal, and make it the session's live
/// alert. Returns it for the sweep's newly-raised list.
fn raise(
    alerts: &mut BTreeMap<SessionId, SessionAlert>,
    handle: &SessionHandle,
    kind: AlertKind,
    seq: u64,
    detail: String,
) -> SessionAlert {
    let alert = SessionAlert {
        id: handle.id(),
        name: handle.name().to_string(),
        kind,
        ts_ns: handle.latest_snapshot_ts().unwrap_or(0),
        seq,
        detail,
    };
    if let Some(journal) = handle.journal() {
        journal.append_alert(&AlertRecord {
            kind: alert.kind,
            ts_ns: alert.ts_ns,
            seq: alert.seq,
            detail: alert.detail.clone(),
        });
    }
    alerts.insert(alert.id, alert.clone());
    alert
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{QuerySpec, SessionTerms};
    use lqs_exec::{NodeCounters, SnapshotPublisher};

    /// Sweeps that find the publish sequence where it was do not hand the
    /// snapshot to the estimator again — its guard would count the re-read
    /// as a duplicate from the channel — yet each still applies the
    /// snapshot's verdict, so a session diverges on its second sweep.
    #[test]
    fn unchanged_sequence_is_not_estimated_again() {
        let db = Database::new();
        let mut b = lqs_plan::PlanBuilder::new(&db);
        let scan = b.constant_scan(vec![vec![lqs_storage::Value::Int(1)]; 4]);
        let plan = Arc::new(b.finish(scan));
        let registry = Arc::new(SessionRegistry::new());
        let handle = registry.register(
            registry.next_id(),
            QuerySpec::new("q", plan),
            SessionTerms::default(),
        );
        handle.start().expect("queued to running");
        handle.publish(&DmvSnapshot {
            ts_ns: 1,
            nodes: vec![NodeCounters {
                rows_output: 1,
                open_ns: Some(0),
                ..NodeCounters::default()
            }],
        });
        let config = WatchdogConfig {
            divergence_band: -1.0,
            ..WatchdogConfig::default()
        };
        let mut watchdog = Watchdog::new(
            Arc::new(db),
            Arc::clone(&registry),
            EstimatorConfig::full(),
            config,
        );
        for _ in 0..3 {
            watchdog.sweep();
        }
        let track = &watchdog.track[&handle.id()];
        assert_eq!(track.estimator.anomalies().duplicates, 0);
        assert_eq!(track.diverging_sweeps, 3);
        assert_eq!(watchdog.health(handle.id()), Some(Health::Diverging));
    }
}
