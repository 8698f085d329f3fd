//! The session registry and its poller — the in-process analog of
//! `sys.dm_exec_query_profiles` plus the SSMS client that polls it.
//!
//! The registry is the shared surface: workers publish into their session
//! handles, pollers enumerate the handles and turn the latest snapshot of
//! each into a [`ProgressReport`]. Polling never blocks execution beyond
//! the one-clone critical section of the latest-snapshot slot.

use crate::metrics::PollerMetrics;
use crate::session::{
    QuerySpec, RunningGauge, SessionDurability, SessionHandle, SessionId, SessionResult,
    SessionState, SessionTerms,
};
use lqs_plan::{CostModel, PhysicalPlan};
use lqs_progress::{
    EnsembleConfig, EnsembleEstimator, EstimateQuality, EstimatorConfig, GuardedEstimator,
    ProgressEstimator, ProgressReport, TruthCurves,
};
use lqs_storage::Database;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// All sessions ever submitted to one [`crate::QueryService`], live and
/// finished. Finished sessions stay listed (like a DMV joined with a
/// completed-requests history) until [`SessionRegistry::evict_terminal`].
#[derive(Default)]
pub struct SessionRegistry {
    sessions: Mutex<Vec<Arc<SessionHandle>>>,
    next_id: AtomicU64,
    running: Arc<RunningGauge>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The session list. It is only ever pushed to or replaced whole, so a
    /// guard poisoned by a thread that panicked while holding it still
    /// guards a valid list: one failed session must not take the registry
    /// with it.
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<SessionHandle>>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The id the next session will be registered under.
    pub(crate) fn next_id(&self) -> SessionId {
        SessionId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Register the session `id` (from [`next_id`](Self::next_id)) for
    /// `spec`, built whole under `terms`. Submitters that took their ids
    /// in one order may register in another, so it goes in by id.
    pub(crate) fn register(
        &self,
        id: SessionId,
        spec: QuerySpec,
        terms: SessionTerms,
    ) -> Arc<SessionHandle> {
        let gauge = Arc::clone(&self.running);
        let handle = Arc::new(SessionHandle::new(id, spec, gauge, terms));
        let mut sessions = self.lock();
        let at = sessions.partition_point(|h| h.id() < id);
        sessions.insert(at, Arc::clone(&handle));
        handle
    }

    /// Snapshot of all registered sessions, in id (submission) order.
    pub fn sessions(&self) -> Vec<Arc<SessionHandle>> {
        self.lock().clone()
    }

    /// Look up one session by id.
    pub fn session(&self, id: SessionId) -> Option<Arc<SessionHandle>> {
        self.lock().iter().find(|h| h.id() == id).cloned()
    }

    /// Number of registered sessions (including finished ones).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the registry holds no sessions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sessions currently in [`SessionState::Running`].
    pub(crate) fn running_now(&self) -> usize {
        self.running.current()
    }

    /// Registered sessions that recovery rebuilt from a journal.
    pub(crate) fn recovered_now(&self) -> usize {
        self.lock().iter().filter(|h| h.recovered()).count()
    }

    /// High-water mark of simultaneously running sessions. Maintained on
    /// state transitions, so short overlaps count even if no poll ever
    /// observed them — use this (not poll sampling) for concurrency
    /// assertions.
    pub fn peak_running(&self) -> usize {
        self.running.peak()
    }

    /// Drop sessions that have reached a terminal state, returning them.
    /// Pollers holding estimators for them should drop those too (see
    /// [`RegistryPoller::evict_finished`]).
    pub fn evict_terminal(&self) -> Vec<Arc<SessionHandle>> {
        let mut sessions = self.lock();
        let (gone, kept) = sessions.drain(..).partition(|h| h.state().is_terminal());
        *sessions = kept;
        gone
    }
}

/// One session's progress as seen by a poll.
pub struct SessionProgress {
    /// Session id.
    pub id: SessionId,
    /// Session display name.
    pub name: String,
    /// Lifecycle state at poll time.
    pub state: SessionState,
    /// Publish sequence number of the snapshot underlying `report`.
    pub seq: u64,
    /// Virtual timestamp of that snapshot (None before the first publish).
    pub ts_ns: Option<u64>,
    /// Full estimator output for that snapshot (None before the first
    /// publish). `report.query_progress` is the paper's Equation 2 figure.
    pub report: Option<ProgressReport>,
}

/// Injects transient failures into the *polling* path (the client side of
/// the DMV channel): before the poller reads a session's snapshot, the
/// injector is asked whether this poll fails. Deterministic implementations
/// key off `(session, round)` only. A failed poll costs nothing real — the
/// poller serves its cached report (downgraded to at least `Stale`) and
/// backs off that session for exponentially more rounds (capped), exactly
/// the retry shape a production client uses against a flaky endpoint.
pub trait PollFaultInjector: Send {
    /// Whether the poll of `session` during poll round `round` fails.
    fn poll_fails(&self, session: SessionId, round: u64) -> bool;
}

/// Per-session capped exponential backoff, measured in poll rounds (the
/// poller's own deterministic time axis).
#[derive(Debug, Clone, Copy)]
struct Backoff {
    /// Consecutive failures so far.
    streak: u32,
    /// Next round at which the session will be polled again.
    retry_at_round: u64,
}

/// Maximum rounds one backoff step may skip (2^4): keeps a flaky session
/// from being starved indefinitely.
const MAX_BACKOFF_ROUNDS: u64 = 16;

/// Everything the poller remembers about one session, created on its first
/// poll and dropped whole by [`RegistryPoller::evict_finished`].
#[derive(Default)]
struct PollState {
    /// Built on the first poll that finds a snapshot (or on scoring).
    estimator: Option<GuardedEstimator>,
    /// Publish seq of the last completed poll (`None` until one completes);
    /// while the session has not published since, polls serve `report`
    /// without re-estimating.
    last_seq: Option<u64>,
    /// Report served by that poll, and its snapshot's virtual timestamp.
    report: Option<ProgressReport>,
    ts_ns: Option<u64>,
    /// That poll read the session's final counters and the guard adopted
    /// them as its view.
    settled: bool,
    /// Accuracy has been scored (or ruled out), so the replay runs exactly
    /// once per session.
    scored: bool,
    /// Present only after a failed poll.
    backoff: Option<Backoff>,
}

/// Polls a [`SessionRegistry`], reusing one [`GuardedEstimator`] per
/// session across polls — estimator statics depend only on (plan, db, cost
/// model), so rebuilding them every 500 ms poll would be pure waste (the
/// real LQS client keeps them for the lifetime of the monitored query) —
/// and the guard's anomaly state must persist across polls anyway.
pub struct RegistryPoller {
    db: Arc<Database>,
    registry: Arc<SessionRegistry>,
    /// Who estimates a session: a lineup of one until
    /// [`Self::with_ensemble`] names the standard six.
    lineup: Box<Lineup>,
    states: HashMap<SessionId, PollState>,
    metrics: PollerMetrics,
    /// Client-side fault injection on the poll path (chaos testing).
    poll_fault: Option<Box<dyn PollFaultInjector>>,
    /// Completed [`Self::poll`] rounds — the backoff time axis.
    round: u64,
    /// Snapshot age beyond which a served report is downgraded to `Stale`.
    stale_after: Duration,
    /// Reusable snapshot buffer: every poll copies the session's snapshot
    /// slot into this instead of allocating a fresh snapshot per session
    /// per round.
    scratch: lqs_exec::DmvSnapshot,
}

impl RegistryPoller {
    /// A poller over `registry`, estimating with `config` and recording its
    /// telemetry into a registry of its own.
    pub fn new(db: Arc<Database>, registry: Arc<SessionRegistry>, config: EstimatorConfig) -> Self {
        RegistryPoller {
            db,
            registry,
            lineup: lineup_of_one(config),
            states: HashMap::new(),
            metrics: PollerMetrics::new(Arc::default()),
            poll_fault: None,
            round: 0,
            stale_after: Duration::from_secs(1),
            scratch: lqs_exec::DmvSnapshot {
                ts_ns: 0,
                nodes: Vec::new(),
            },
        }
    }

    /// Estimate with the standard six-member lineup (one
    /// [`EnsembleEstimator`] per session, tuned by `cfg`) instead of the
    /// lineup of one. Accuracy scoring covers every member either way; with
    /// a choice to report, the composed `"ensemble"` figure is scored too
    /// and terminal sessions get their final selection journaled and
    /// exposed on `GET /sessions`.
    pub fn with_ensemble(mut self, cfg: EnsembleConfig) -> Self {
        self.lineup =
            Box::new(move |plan, db, cost| EnsembleEstimator::build(plan, db, cost, cfg.clone()));
        self
    }

    /// Record poll latency, snapshot staleness, and estimator accuracy
    /// into `metrics` (a shared registry's handle) instead of the poller's
    /// own.
    pub fn with_metrics(mut self, metrics: PollerMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The poller's telemetry.
    pub fn metrics(&self) -> &PollerMetrics {
        &self.metrics
    }

    /// Inject transient poll failures (chaos testing).
    pub fn with_poll_fault(mut self, fault: Box<dyn PollFaultInjector>) -> Self {
        self.poll_fault = Some(fault);
        self
    }

    /// Snapshot age beyond which served reports are marked
    /// [`EstimateQuality::Stale`] (default 1 s).
    pub fn with_stale_after(mut self, stale_after: Duration) -> Self {
        self.stale_after = stale_after;
        self
    }

    /// Estimate progress of every registered session from its latest
    /// published snapshot. One entry per session, in submission order.
    pub fn poll(&mut self) -> Vec<SessionProgress> {
        let started = Instant::now();
        self.round += 1;
        let sessions = self.registry.sessions();
        let mut out = Vec::with_capacity(sessions.len());
        for handle in sessions {
            // Staleness of the poller's view: age of the snapshot this very
            // poll is about to estimate from, running sessions only (a
            // terminal session's snapshot is final, not stale).
            if handle.state() == SessionState::Running {
                if let Some(age) = handle.snapshot_age() {
                    self.metrics.snapshot_age_seconds.observe(age.as_secs_f64());
                }
            }
            out.push(self.poll_session(&handle));
        }
        self.metrics
            .poll_latency_seconds
            .observe(started.elapsed().as_secs_f64());
        self.metrics.update_quantile_gauges();
        out
    }

    /// Estimate one session's progress.
    pub fn poll_session(&mut self, handle: &SessionHandle) -> SessionProgress {
        self.maybe_score_accuracy(handle);
        let id = handle.id();
        let st = self.states.entry(id).or_default();

        // In backoff after a failed poll: serve the cached report (marked
        // at least Stale) without touching the session until the retry
        // round arrives.
        if st.backoff.is_some_and(|b| self.round < b.retry_at_round) {
            return self.cached_progress(handle, EstimateQuality::Stale);
        }
        // Transient client-side poll failure: count it, extend the backoff
        // (capped exponential, in poll rounds — the poller's deterministic
        // time axis), and serve the cached report.
        if let Some(fault) = &self.poll_fault {
            if fault.poll_fails(id, self.round) {
                self.metrics.poll_faults.inc();
                let streak = st.backoff.map_or(0, |b| b.streak) + 1;
                let skip = (1u64 << streak.min(8)).min(MAX_BACKOFF_ROUNDS);
                st.backoff = Some(Backoff {
                    streak,
                    retry_at_round: self.round + skip,
                });
                return self.cached_progress(handle, EstimateQuality::Stale);
            }
        }
        st.backoff = None;

        let seq = handle.published_seq();
        // A session that `complete`d or `abort`ed published its final
        // counters before it became terminal, and nothing after them.
        let state = handle.state();
        let settled = matches!(
            state,
            SessionState::Succeeded | SessionState::Cancelled | SessionState::DeadlineExceeded
        );
        // Reuse the cached report when nothing new was published (but
        // re-stamp its staleness — the query may have silently moved on),
        // unless the session has since settled on the counters that report
        // was estimated from.
        if st.last_seq == Some(seq) && st.settled == settled {
            return self.cached_progress(handle, EstimateQuality::Fresh);
        }
        // Pooled read: the slot is copied into the poller's scratch buffer,
        // so steady-state polls allocate nothing.
        let snap = &mut self.scratch;
        let (report, ts_ns) = if handle.read_snapshot_into(snap) {
            let guarded = st
                .estimator
                .get_or_insert_with(|| session_estimator(&self.lineup, &self.db, handle));
            if snap.nodes.len() == handle.plan().len() {
                // The final counters are authoritative: merged by timestamp
                // like a live snapshot, a retried session's last attempt
                // (its clock restarted) would lose to the earlier attempt's
                // later-stamped snapshots.
                let report = if settled {
                    guarded.observe_final(snap)
                } else {
                    guarded.observe(snap)
                };
                // Surface the live ensemble selection on the handle so
                // `GET /sessions` can show it mid-run — but never for a
                // terminal session, whose stash is the deterministic
                // full-trace replay selection written by
                // `maybe_score_accuracy` (which already ran above).
                if let Some(sel) = &report.ensemble {
                    if !state.is_terminal() {
                        handle.set_estimator_selection(sel.clone());
                    }
                }
                (Some(report), Some(snap.ts_ns))
            } else {
                // A snapshot whose node count does not match the plan
                // (possible only from a reshaping snapshot filter or a
                // buggy publisher) would make the estimator index out of
                // bounds: keep the estimator, drop the snapshot, and serve
                // the previous view rather than panicking.
                (st.report.clone(), st.ts_ns)
            }
        } else {
            (None, None)
        };
        let progress = self.finish(handle, seq, ts_ns, report);
        if let Some(st) = self.states.get_mut(&id) {
            st.last_seq = Some(seq);
            st.report = progress.report.clone();
            st.ts_ns = ts_ns;
            st.settled = settled;
        }
        progress
    }

    /// Serve a session's cached report, re-stamped for the present: the
    /// staleness age is refreshed from the handle, quality is raised to at
    /// least `min_quality`, and a running session whose telemetry is older
    /// than `stale_after` is downgraded to `Stale` (terminal sessions are
    /// exempt — their final snapshot is final, not stale).
    fn cached_progress(
        &self,
        handle: &SessionHandle,
        min_quality: EstimateQuality,
    ) -> SessionProgress {
        let (seq, mut report, ts_ns) = match self.states.get(&handle.id()) {
            Some(st) => (st.last_seq, st.report.clone(), st.ts_ns),
            None => (None, None, None),
        };
        let seq = seq.unwrap_or_else(|| handle.published_seq());
        let age = handle.snapshot_age().unwrap_or_default();
        if let Some(r) = &mut report {
            r.staleness_ns = age.as_nanos().min(u128::from(u64::MAX)) as u64;
            r.quality = r.quality.max(min_quality);
        }
        let mut progress = self.finish(handle, seq, ts_ns, report);
        // Only a report still `Fresh` is downgraded, so this commutes with
        // `finish`'s Degraded cap and can use the state it stamped.
        if let Some(r) = &mut progress.report {
            if progress.state == SessionState::Running
                && age > self.stale_after
                && r.quality == EstimateQuality::Fresh
            {
                r.quality = EstimateQuality::Stale;
            }
        }
        progress
    }

    /// The one way a poll's answer leaves the poller: cap the report's
    /// quality where the session's telemetry cannot be trusted, refresh the
    /// per-session gauges, and stamp the session's current state.
    fn finish(
        &self,
        handle: &SessionHandle,
        seq: u64,
        ts_ns: Option<u64>,
        mut report: Option<ProgressReport>,
    ) -> SessionProgress {
        let id = handle.id();
        let state = handle.state();
        // An orphaned session's snapshot is the last thing a dead process
        // managed to journal: serve it, but never as anything better than
        // Degraded — the run it describes no longer exists. The same cap
        // applies when the journal circuit breaker dropped records (the
        // durable trail is incomplete).
        if let Some(r) = &mut report {
            if state == SessionState::Orphaned || handle.durability() == SessionDurability::Lost {
                r.quality = EstimateQuality::Degraded;
            }
            self.metrics.set_session_gauges(
                &id.to_string(),
                r.query_progress,
                handle.snapshot_age().map(|a| a.as_micros() as u64),
            );
        }
        SessionProgress {
            id,
            name: handle.name().to_string(),
            state,
            seq,
            ts_ns,
            report,
        }
    }

    /// Estimator-accuracy self-telemetry (the paper's §5 evaluation, run
    /// online): the first time this poller sees `handle` terminal with a
    /// completed run, replay the run's full snapshot trace through the
    /// session's lineup, score against the now-known ground truth, and fold
    /// the error figures into the per-workload, per-estimator accuracy
    /// histograms. Every member is scored individually; where the lineup
    /// had a choice to make, so is the composed `"ensemble"` figure, and
    /// the replay's final selection is journaled and stashed on the handle.
    fn maybe_score_accuracy(&mut self, handle: &SessionHandle) {
        // A result exists exactly when the session is terminal.
        let Some(result) = handle.result() else {
            return;
        };
        let st = self.states.entry(handle.id()).or_default();
        if st.scored {
            return;
        }
        // Run at most once per session, whatever the result variant:
        // aborted and failed runs have no ground truth to score against.
        st.scored = true;
        let SessionResult::Completed(run) = result else {
            return;
        };
        let guarded = st
            .estimator
            .get_or_insert_with(|| session_estimator(&self.lineup, &self.db, handle));
        // Replay through the *stateless* estimators (never the guard's live
        // anomaly state): the run's recorded trace is already clean, and
        // the accuracy figures must stay bit-identical to an offline replay
        // of the same trace (asserted in tests). The poller's live state
        // saw only the subsampled snapshots it happened to poll, so it is
        // not deterministic across timing; the full-trace replay is.
        // Every estimate vector is scored against the same two truth
        // curves, so those are computed once per run.
        let metrics = &self.metrics;
        let truth = TruthCurves::of(&run);
        let score = |id: &str, estimates: &[f64]| {
            metrics.observe_accuracy(
                handle.workload(),
                id,
                truth.error_count(estimates),
                truth.error_time(estimates),
            );
        };
        let ens = guarded.ensemble();
        let replay = ens.replay(&run.snapshots);
        for (member, estimates) in ens.members().zip(&replay.member_estimates) {
            score(member.id(), estimates);
        }
        if let Some(selection) = replay.selection {
            score("ensemble", &replay.estimates);
            // The replay's final selection is the authoritative one:
            // journal it for post-mortems and pin it on the handle for
            // `GET /sessions`.
            if let Some(journal) = handle.journal() {
                journal.append_estimator(&lqs_journal::EstimatorRecord {
                    selected: selection.selected.to_owned(),
                    weights: (selection.weights.iter())
                        .map(|(id, w)| ((*id).to_owned(), *w))
                        .collect(),
                });
            }
            handle.set_estimator_selection(selection);
        }
        metrics.accuracy_session_done();
    }

    /// Number of estimators currently cached (one per polled session).
    pub fn cached_estimators(&self) -> usize {
        self.states
            .values()
            .filter(|st| st.estimator.is_some())
            .count()
    }

    /// Drop cached estimators, reports, backoff state, accuracy
    /// bookkeeping, and per-session gauges for sessions no longer in the
    /// registry (pair with [`SessionRegistry::evict_terminal`]). Without
    /// this, a long-lived poller over a churning service grows without
    /// bound — and evicted sessions' gauges would linger at their last
    /// value in every future scrape.
    pub fn evict_finished(&mut self) {
        let live: HashSet<SessionId> = self.registry.sessions().iter().map(|h| h.id()).collect();
        let metrics = &self.metrics;
        self.states.retain(|id, _| {
            let keep = live.contains(id);
            if !keep {
                metrics.remove_session_gauges(&id.to_string());
            }
            keep
        });
    }
}

/// Who estimates a plan: the lineup to run over it, given the database and
/// the cost model its statics must be derived under.
pub(crate) type Lineup = dyn Fn(&PhysicalPlan, &Database, &CostModel) -> EnsembleEstimator + Send;

/// The lineup of one: `config` alone.
pub(crate) fn lineup_of_one(config: EstimatorConfig) -> Box<Lineup> {
    Box::new(move |plan, db, cost| {
        let estimator = ProgressEstimator::with_cost_model(plan, db, config.clone(), cost);
        EnsembleEstimator::single(estimator)
    })
}

/// The estimator for one session: `lineup` over the session's plan, with
/// the session's own cost model feeding the statics.
pub(crate) fn session_estimator(
    lineup: &Lineup,
    db: &Database,
    handle: &SessionHandle,
) -> GuardedEstimator {
    GuardedEstimator::new(lineup(handle.plan(), db, &handle.opts().cost_model))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> QuerySpec {
        let db = Database::new();
        let mut b = lqs_plan::PlanBuilder::new(&db);
        let scan = b.constant_scan(vec![vec![lqs_storage::Value::Int(1)]]);
        QuerySpec::new(name, Arc::new(b.finish(scan)))
    }

    fn register(registry: &SessionRegistry, name: &str) -> Arc<SessionHandle> {
        registry.register(registry.next_id(), spec(name), SessionTerms::default())
    }

    fn ids(handles: Vec<Arc<SessionHandle>>) -> Vec<SessionId> {
        handles.iter().map(|h| h.id()).collect()
    }

    /// Ids are taken before registration (a submitter opens its journal in
    /// between), so submitters can register out of id order; the list
    /// stays in id order whatever order they arrive in.
    #[test]
    fn sessions_stay_in_id_order_when_registrations_race() {
        let registry = SessionRegistry::new();
        let taken: Vec<SessionId> = (0..8).map(|_| registry.next_id()).collect();
        let barrier = std::sync::Barrier::new(taken.len());
        std::thread::scope(|s| {
            for (i, &id) in taken.iter().enumerate() {
                let (registry, barrier) = (&registry, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    // Later ids arrive first.
                    std::thread::sleep(Duration::from_millis(5 * (8 - i as u64)));
                    registry.register(id, spec("racer"), SessionTerms::default());
                });
            }
        });
        assert_eq!(ids(registry.sessions()), taken);
    }

    /// A retried session's last attempt restarts the virtual clock, so its
    /// final counters are stamped before the first attempt's late
    /// snapshots. The poll that finds it terminal must read those counters
    /// as they are — 100 % — not merged under the first attempt's
    /// later-stamped lifecycle fields; the anomaly the retry showed still
    /// degrades the report.
    #[test]
    fn a_retried_sessions_terminal_poll_reads_its_final_counters() {
        use lqs_exec::{DmvSnapshot, SnapshotPublisher};
        use lqs_storage::{Column, DataType, Schema, Table, Value};
        let mut t = Table::new("t", Schema::new(vec![Column::new("a", DataType::Int)]));
        for i in 0..2_000 {
            t.insert(vec![Value::Int(i % 97)]).unwrap();
        }
        let mut db = Database::new();
        let table = db.add_table_analyzed(t);
        let mut b = lqs_plan::PlanBuilder::new(&db);
        let scan = b.table_scan(table);
        let sort = b.sort(scan, vec![lqs_plan::SortKey::asc(0)]);
        // A root that passes nothing: while it is open its estimated rows
        // are still to come, so only its close reads as 100 %.
        let none = lqs_plan::Expr::col(0).lt(lqs_plan::Expr::lit(0));
        let filter = b.filter(sort, none);
        let plan = Arc::new(b.finish(filter));
        let db = Arc::new(db);
        let run = lqs_exec::execute(&db, &plan, &lqs_exec::ExecOptions::default());
        let mid = &run.snapshots[..run.snapshots.len() - 1];
        assert!(mid.len() >= 2, "the run needs mid-run snapshots");

        let registry = Arc::new(SessionRegistry::new());
        let spec = QuerySpec::new("retried", Arc::clone(&plan));
        let handle = registry.register(registry.next_id(), spec, SessionTerms::default());
        let mut poller = RegistryPoller::new(
            Arc::clone(&db),
            Arc::clone(&registry),
            EstimatorConfig::full(),
        );
        handle.start().unwrap();
        // Attempt 1 stalls, so its snapshots run past attempt 2's end.
        for s in mid {
            handle.publish(&DmvSnapshot {
                ts_ns: s.ts_ns + run.duration_ns,
                nodes: s.nodes.clone(),
            });
        }
        poller.poll_session(&handle);
        // Attempt 2 restarts from zero and completes below attempt 1's clock.
        handle.publish(&mid[0]);
        poller.poll_session(&handle);
        for s in &mid[1..] {
            handle.publish(s);
        }
        let pending = handle.complete(run);
        handle.settle(pending);
        assert_eq!(handle.state(), SessionState::Succeeded);

        let report = poller.poll_session(&handle).report.expect("a final report");
        assert!(
            (report.query_progress - 1.0).abs() <= 1e-9,
            "terminal poll read {}",
            report.query_progress
        );
        assert_eq!(report.quality, EstimateQuality::Degraded);
    }

    /// One thread panicking with the session list locked (a failed session,
    /// a bug in a caller) must not turn every later `sessions()` into a
    /// panic of its own.
    #[test]
    fn a_poisoned_registry_still_answers() {
        let registry = SessionRegistry::new();
        let done = register(&registry, "done");
        done.start().unwrap();
        done.settle(done.fail("boom".into()));
        let live = register(&registry, "live");
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = registry.sessions.lock().unwrap();
                panic!("poison the registry");
            })
            .join()
        });
        assert!(panicked.is_err() && registry.sessions.is_poisoned());

        assert_eq!(ids(registry.sessions()), [done.id(), live.id()]);
        assert!(registry.session(live.id()).is_some());
        let late = register(&registry, "late");
        assert_eq!(ids(registry.evict_terminal()), [done.id()]);
        assert_eq!(ids(registry.sessions()), [live.id(), late.id()]);
    }
}
