//! The query service: a bounded worker pool draining a submission queue.
//!
//! Each worker executes one session at a time, single-threaded and
//! deterministic on that session's own virtual clock; concurrency lives
//! entirely *between* sessions. The only cross-thread traffic on the hot
//! path is the snapshot publish into the session handle and, once per
//! session, the hand-off to the durability stage.
//!
//! The **durability stage** is one thread between "the worker finished
//! executing" and "the session is terminal". The worker still makes every
//! journal *append* (final snapshot, terminal record) in its own program
//! order — so file bytes, crash-point offsets and the shared circuit
//! breaker's call sequence do not depend on the stage — and then hands the
//! session over a bounded channel; the stage forces the terminal record to
//! disk and finishes the session with its outcome, while the worker is
//! already executing the next session. Journaled or not, whatever the fsync
//! policy, every executed session takes this one path, and none is
//! observable as terminal before its flush has returned.

use crate::metrics::ServiceMetrics;
use crate::registry::SessionRegistry;
use crate::session::{
    FilteredPublisher, PendingTerminal, QuerySpec, SessionCost, SessionHandle, SessionId,
    SessionState, SessionTerms,
};
use lqs_exec::{
    execute_hooked, ExecHooks, ExecMode, ExecOptions, FaultInjector, QueryFault, QueryRun,
    SnapshotPublisher,
};
use lqs_history::{plan_features, HistoryMetrics, HistoryStore, ObservedRun, ResourcePrediction};
use lqs_journal::{plan_fingerprint, Journal, JournalExecMode, SessionMeta};
use lqs_obs::EventSink;
use lqs_plan::PhysicalPlan;
use lqs_storage::Database;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SendError, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A concurrent multi-session query service over one database.
///
/// Submissions queue; `workers` threads drain the queue. Every session is
/// registered in the service's [`SessionRegistry`] at submission time, so
/// pollers see it (as `Queued`) before a worker picks it up — exactly the
/// visibility the DMV gives a query that is waiting on a scheduler.
pub struct QueryService {
    registry: Arc<SessionRegistry>,
    metrics: Arc<ServiceMetrics>,
    queue: Option<Sender<Arc<SessionHandle>>>,
    workers: Vec<JoinHandle<()>>,
    /// The durability stage. Its channel closes when the last worker exits,
    /// so joining it after the workers drains every pending terminal.
    stage: Option<JoinHandle<()>>,
    /// Admission control: sessions queued (admitted, not yet dequeued by a
    /// worker). `None` = unbounded (the pre-admission-control behavior).
    admission_limit: Option<usize>,
    queued_depth: Arc<AtomicUsize>,
    /// Durability: every session journals its snapshots and terminal state
    /// here when set; shutdown flushes all writers, stamps the
    /// clean-shutdown sentinel, and sweeps retention.
    journal: Option<Arc<Journal>>,
    /// Predicted-cost admission: when set, submissions whose plan has
    /// journaled history are admitted against a CPU-cost pool instead of
    /// the fixed queue-depth limit. Cold plans (no history) fall back to
    /// the fixed limit.
    cost_admission: Option<Arc<CostAdmission>>,
    /// Overload brownout: queue-wait deadline shedding plus snapshot-
    /// cadence widening under sustained queue pressure.
    brownout: Option<Arc<BrownoutState>>,
}

/// Overload-brownout tuning: degrade observability cadence, then shed,
/// before ever letting overload turn into run-to-fail sessions.
#[derive(Debug, Clone)]
pub struct BrownoutConfig {
    /// Queue depth at or above which a submission counts toward the
    /// sustained-overload streak.
    pub queue_high: usize,
    /// Consecutive over-threshold submissions before brownout activates
    /// (one under-threshold submission resets the streak and deactivates).
    pub sustain: u32,
    /// While brownout is active, new sessions' snapshot publish interval
    /// is widened by this factor (their snapshot target divided by it when
    /// no explicit interval is set). Min 1.
    pub widen_factor: u32,
    /// Maximum wall-clock queue wait: a session a worker dequeues later
    /// than this is `Rejected` with a `queue-wait deadline exceeded`
    /// reason instead of run. `None` disables dequeue-time shedding.
    pub queue_deadline: Option<Duration>,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        BrownoutConfig {
            queue_high: 32,
            sustain: 3,
            widen_factor: 4,
            queue_deadline: None,
        }
    }
}

/// Live brownout state shared by submitters.
struct BrownoutState {
    config: BrownoutConfig,
    /// Consecutive submissions that observed the queue at/over
    /// `queue_high`.
    streak: AtomicU32,
    active: AtomicBool,
}

impl BrownoutState {
    /// Fold one submission-time queue-depth observation in; returns
    /// whether brownout is active for this submission.
    fn note_submission(&self, depth: usize, metrics: &ServiceMetrics) -> bool {
        if depth >= self.config.queue_high {
            let streak = self.streak.fetch_add(1, Ordering::AcqRel) + 1;
            if streak >= self.config.sustain.max(1) && !self.active.swap(true, Ordering::AcqRel) {
                metrics.brownout_active.set(1);
            }
        } else {
            self.streak.store(0, Ordering::Release);
            if self.active.swap(false, Ordering::AcqRel) {
                metrics.brownout_active.set(0);
            }
        }
        self.active.load(Ordering::Acquire)
    }
}

/// Widen a submission's snapshot publish cadence for brownout: degrade
/// observability granularity, never correctness. With an explicit publish
/// interval the interval is multiplied; otherwise the snapshot budget is
/// divided (staying >= 1 so the terminal snapshot always lands).
fn widen_for_brownout(opts: &mut ExecOptions, factor: u32) {
    let factor = factor.max(1) as u64;
    match &mut opts.snapshot_interval_ns {
        Some(interval) => *interval = interval.saturating_mul(factor),
        None => opts.snapshot_target = (opts.snapshot_target / factor as usize).max(1),
    }
}

/// Service-wide predicted-cost admission state: the shared history store,
/// the CPU-cost pool, and the outstanding predicted cost of admitted,
/// not-yet-terminal sessions.
pub(crate) struct CostAdmission {
    store: Arc<HistoryStore>,
    pool_cpu_ns: u64,
    outstanding_cpu_ns: AtomicU64,
    metrics: HistoryMetrics,
}

impl CostAdmission {
    /// Try to take `cost_ns` from the pool. A session that alone exceeds
    /// the whole pool is still admitted when the pool is idle — otherwise
    /// any query predicted over the budget would starve forever.
    fn try_admit(&self, cost_ns: u64) -> bool {
        let mut current = self.outstanding_cpu_ns.load(Ordering::Acquire);
        loop {
            let next = current.saturating_add(cost_ns);
            if next > self.pool_cpu_ns && current != 0 {
                return false;
            }
            match self.outstanding_cpu_ns.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    /// A session's share of the pool: its plan's predicted cost, taken
    /// from the pool when it fits. A cold plan (no history) takes nothing
    /// but still carries the pool, so its completed run warms the store.
    fn admit(self: &Arc<Self>, plan: &PhysicalPlan) -> SessionCost {
        let prediction = self.store.predict_plan(plan);
        let mut admitted_cpu_ns = 0;
        match &prediction {
            None => self.metrics.cold_miss(),
            Some(p) => {
                self.metrics.prediction_issued(p.basis);
                let cost_ns = p.cpu_ns.max(1.0).ceil() as u64;
                match self.try_admit(cost_ns) {
                    true => admitted_cpu_ns = cost_ns,
                    false => self.metrics.cost_rejection(),
                }
            }
        }
        SessionCost {
            admission: Arc::clone(self),
            prediction,
            admitted_cpu_ns,
        }
    }

    /// Return `cost_ns` to the pool (terminal settlement).
    pub(crate) fn release(&self, cost_ns: u64) {
        let _ = self
            .outstanding_cpu_ns
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                Some(v.saturating_sub(cost_ns))
            });
    }

    /// Outstanding predicted CPU cost of admitted, unfinished sessions.
    pub(crate) fn outstanding_cpu_ns(&self) -> u64 {
        self.outstanding_cpu_ns.load(Ordering::Acquire)
    }

    /// Fold a completed run into the history store (warming predictions
    /// online) and score the admission-time prediction, if one was made,
    /// against the now-known ground truth.
    pub(crate) fn observe_completed(
        &self,
        plan: &PhysicalPlan,
        run: &QueryRun,
        prediction: Option<&ResourcePrediction>,
    ) {
        let features = plan_features(plan);
        let cpu: Vec<u64> = run.final_counters.iter().map(|n| n.cpu_ns).collect();
        let reads: Vec<u64> = run.final_counters.iter().map(|n| n.logical_reads).collect();
        let observed = ObservedRun::from_totals(&features, run.duration_ns, &cpu, &reads);
        if let Some(pred) = prediction {
            self.metrics.observe_prediction(
                pred,
                observed.cpu_ns,
                observed.logical_reads,
                observed.runtime_ns,
            );
        }
        self.store
            .observe(plan_fingerprint(plan), &features, observed);
    }
}

impl QueryService {
    /// Start a service with `workers` worker threads (min 1) over `db`,
    /// recording its telemetry into a registry of its own.
    pub fn new(db: Arc<Database>, workers: usize) -> Self {
        Self::with_metrics(db, workers, ServiceMetrics::new(Arc::default()))
    }

    /// [`QueryService::new`], with every worker recording session lifecycle
    /// and operator close-time telemetry into `metrics` — a shared
    /// registry's handle — instead of a private one.
    pub fn with_metrics(db: Arc<Database>, workers: usize, metrics: Arc<ServiceMetrics>) -> Self {
        let registry = Arc::new(SessionRegistry::new());
        let queued_depth = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel::<Arc<SessionHandle>>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = workers.max(1);
        // Bounded at one pending terminal per worker: a disk slower than
        // the engine blocks the workers instead of queueing `QueryRun`s.
        let (stage_tx, stage_rx) = sync_channel::<Handoff>(workers);
        let stage = std::thread::spawn(move || stage_loop(&stage_rx));
        let workers = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let db = Arc::clone(&db);
                let metrics = Arc::clone(&metrics);
                let depth = Arc::clone(&queued_depth);
                let stage_tx = stage_tx.clone();
                std::thread::spawn(move || worker_loop(&db, &rx, &stage_tx, &depth, &metrics))
            })
            .collect();
        QueryService {
            registry,
            metrics,
            queue: Some(tx),
            workers,
            stage: Some(stage),
            admission_limit: None,
            queued_depth,
            journal: None,
            cost_admission: None,
            brownout: None,
        }
    }

    /// Journal every session's snapshots, terminal state, and shutdown
    /// sentinel into `journal`. A session whose journal cannot be opened
    /// runs un-journaled (durability degrades; the query never fails for
    /// the journal's sake).
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(Arc::new(journal));
        self
    }

    /// The service's journal, when started via
    /// [`QueryService::with_journal`].
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Bound the submission queue: once `limit` admitted sessions are
    /// waiting for a worker, further submissions are shed — registered (so
    /// pollers see them) but immediately moved to the terminal
    /// [`SessionState::Rejected`], with the shed-load counter bumped.
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = Some(limit.max(1));
        self
    }

    /// Admit by *predicted cost*: a submission whose plan has journaled
    /// history in `store` takes its predicted CPU cost from a pool of
    /// `pool_cpu_ns`; when the pool can't cover it, the session is shed
    /// ([`SessionState::Rejected`]) exactly like a full fixed queue. Plans
    /// the store has never seen (explicit no-history — a cold store never
    /// fabricates a zero estimate) fall back to the fixed
    /// [`QueryService::with_admission_limit`] policy, and their completed
    /// runs warm the store for next time. Predictions issued, cold misses,
    /// cost rejections, and — once a predicted session completes —
    /// prediction error are recorded into the service's own registry.
    pub fn with_cost_admission(mut self, store: Arc<HistoryStore>, pool_cpu_ns: u64) -> Self {
        self.cost_admission = Some(Arc::new(CostAdmission {
            store,
            pool_cpu_ns: pool_cpu_ns.max(1),
            outstanding_cpu_ns: AtomicU64::new(0),
            metrics: HistoryMetrics::new(Arc::clone(self.metrics.registry())),
        }));
        self
    }

    /// Enable overload brownout: under sustained queue pressure
    /// (`config.queue_high` depth for `config.sustain` consecutive
    /// submissions), new sessions publish snapshots at a widened cadence,
    /// and a session that waited in the queue past
    /// `config.queue_deadline` is `Rejected` with a reason at dequeue
    /// instead of run — degrade observability cadence first, shed second,
    /// never run-to-fail.
    pub fn with_brownout(mut self, config: BrownoutConfig) -> Self {
        self.brownout = Some(Arc::new(BrownoutState {
            config,
            streak: AtomicU32::new(0),
            active: AtomicBool::new(false),
        }));
        self
    }

    /// Whether sustained-overload brownout is currently active (`false`
    /// when brownout is not configured).
    pub fn brownout_active(&self) -> bool {
        self.brownout
            .as_ref()
            .is_some_and(|b| b.active.load(Ordering::Acquire))
    }

    /// Outstanding predicted CPU cost of admitted, unfinished sessions
    /// (`None` unless running predicted-cost admission).
    pub fn predicted_outstanding_ns(&self) -> Option<u64> {
        self.cost_admission.as_ref().map(|c| c.outstanding_cpu_ns())
    }

    /// The shared session registry (hand clones to pollers).
    pub fn registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// The service's telemetry.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// Submit a query. Returns immediately with the session handle; the
    /// query runs when a worker frees up. Under an admission limit, a
    /// submission that finds the queue full returns a handle already in
    /// [`SessionState::Rejected`] — check the state, don't assume it ran.
    pub fn submit(&self, mut spec: QuerySpec) -> Arc<SessionHandle> {
        // Brownout widening happens before the journal opens so the widened
        // cadence is what the journal meta records and what pollers see in
        // `opts()` — replay and recovery stay consistent with the run.
        if let Some(brownout) = &self.brownout {
            let depth = self.queued_depth.load(Ordering::Acquire);
            if brownout.note_submission(depth, &self.metrics) {
                widen_for_brownout(&mut spec.opts, brownout.config.widen_factor);
                self.metrics.brownout_sessions.inc();
            }
        }
        let id = self.registry.next_id();
        self.metrics.submitted.inc();
        // Open the session's journal before admission control runs, so even
        // a shed session leaves a meta + Rejected terminal record behind.
        let journal = self.journal.as_ref().and_then(|journal| {
            match journal.writer(session_meta(id, &spec)) {
                Ok(writer) => Some(Arc::new(writer)),
                Err(e) => {
                    eprintln!("lqs-server: {id} runs un-journaled (journal open failed: {e})");
                    None
                }
            }
        });
        // Predicted-cost admission runs first: when the plan has history,
        // the prediction replaces the fixed queue-depth policy entirely.
        // Cold plans (explicit no-history) fall through to the fixed limit.
        // `limit` is the queue depth below which this session may join.
        let cost = (self.cost_admission.as_ref()).map(|pool| pool.admit(&spec.plan));
        let limit = match cost.as_ref().filter(|c| c.prediction.is_some()) {
            Some(c) if c.admitted_cpu_ns > 0 => usize::MAX, // the pool took it
            Some(_) => 0,                                   // the pool refused it
            None => self.admission_limit.unwrap_or(usize::MAX),
        };
        let terms = SessionTerms {
            journal,
            cost,
            queue_deadline: (self.brownout.as_ref())
                .map(|b| b.config.queue_deadline.unwrap_or(Duration::MAX)),
            recovered: false,
        };
        let handle = self.registry.register(id, spec, terms);
        // One atomic update, so two racing submissions cannot both take the
        // last queue slot.
        let queued = self
            .queued_depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |d| {
                (d < limit).then_some(d + 1)
            });
        if queued.is_err() {
            self.metrics.rejected.inc();
            self.metrics.finished(SessionState::Rejected);
            handle.reject(None);
            return handle;
        }
        self.queue
            .as_ref()
            .expect("service already shut down")
            .send(Arc::clone(&handle))
            .expect("worker pool hung up");
        handle
    }

    /// Block until every submitted session reaches a terminal state.
    pub fn wait_all(&self) {
        for handle in self.registry.sessions() {
            handle.wait_terminal();
        }
    }

    /// Stop accepting submissions, drain the queue, join the workers, then
    /// drain and join the durability stage.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // `shutdown` consumes self and Drop runs this again: only the call
        // that actually closed the channel does the durability epilogue.
        let first_shutdown = self.queue.take().is_some();
        for worker in self.workers.drain(..) {
            // Session panics are caught in `run_session`, so a failed join
            // means something outside execution went wrong. Never panic
            // here: this also runs from `Drop`, possibly mid-unwind, where
            // a second panic aborts the process.
            if worker.join().is_err() {
                eprintln!("lqs-server: worker thread panicked outside session execution");
            }
        }
        // The workers held the only senders, so the stage's channel is now
        // closed: it settles what is still pending and exits.
        if let Some(stage) = self.stage.take() {
            if stage.join().is_err() {
                eprintln!(
                    "lqs-server: durability stage panicked outside a session's terminal path"
                );
            }
        }
        if !first_shutdown || self.journal.is_none() {
            return;
        }
        // Workers and stage are joined, so every admitted session has its
        // terminal record appended and flushed. Stamp the clean-shutdown
        // sentinel on each journal — this is what lets recovery tell an
        // orderly exit from a crash — then enforce the retention budget.
        for handle in self.registry.sessions() {
            if let Some(journal) = handle.journal() {
                journal.append_clean_shutdown();
            }
        }
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.sweep_retention() {
                eprintln!("lqs-server: journal retention sweep failed: {e}");
            }
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// What a worker hands the durability stage: a session whose execution is
/// over, and the outcome that becomes observable once its terminal record
/// is on disk.
type Handoff = (Arc<SessionHandle>, PendingTerminal);

fn stage_loop(rx: &Receiver<Handoff>) {
    for (handle, pending) in rx {
        contain(&handle, || handle.settle(pending));
    }
}

/// Run one session's terminal path. A panic on it is contained like a panic
/// in execution: that session is marked `Failed` — so its waiters wake —
/// and the stage keeps serving the others.
fn contain(handle: &SessionHandle, terminal_path: impl FnOnce()) {
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(terminal_path)) {
        handle.settle(PendingTerminal::failed(format!(
            "terminal path panicked: {}",
            panic_message(payload.as_ref())
        )));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<QueryFault>()
        .map(QueryFault::to_string)
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked with a non-string payload".to_owned())
}

/// Hand an executed session to the durability stage. The send blocks while
/// the stage is `workers` sessions behind, and fails only if the stage's
/// thread is gone — then the worker settles the session itself rather than
/// strand its waiters.
fn hand_off(stage: &SyncSender<Handoff>, handle: &Arc<SessionHandle>, pending: PendingTerminal) {
    if let Err(SendError((handle, pending))) = stage.send((Arc::clone(handle), pending)) {
        contain(&handle, || handle.settle(pending));
    }
}

fn worker_loop(
    db: &Database,
    rx: &Mutex<Receiver<Arc<SessionHandle>>>,
    stage: &SyncSender<Handoff>,
    queued_depth: &AtomicUsize,
    metrics: &ServiceMetrics,
) {
    loop {
        // Hold the receiver lock only for the dequeue, not the execution. A
        // receiver has no state of ours to leave half-written, so a lock
        // poisoned by a panicking holder still dequeues.
        let handle = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(handle) => handle,
            Err(_) => return, // queue closed and drained
        };
        queued_depth.fetch_sub(1, Ordering::AcqRel);
        run_session(db, &handle, stage, metrics);
    }
}

/// The meta record session `id`'s journal opens with: what its spec runs.
fn session_meta(id: SessionId, spec: &QuerySpec) -> SessionMeta {
    SessionMeta {
        session_id: id.0,
        name: spec.name.clone(),
        workload: spec.workload.as_deref().unwrap_or(&spec.name).to_owned(),
        n_nodes: spec.plan.len() as u32,
        plan_fingerprint: plan_fingerprint(&spec.plan),
        snapshot_target: spec.opts.snapshot_target as u64,
        snapshot_interval_ns: spec.opts.snapshot_interval_ns,
        cost_model: spec.opts.cost_model.clone(),
        // Journaled so history analytics can segment throughput by engine
        // path. A fault injector does not change it: faults fire from
        // inside the charging scopes, at whatever batch size was asked for.
        exec_mode: match spec.opts.mode {
            ExecMode::Tuple => JournalExecMode::Tuple,
            ExecMode::Batch => JournalExecMode::Batch,
        },
        estimator: None,
    }
}

/// Execute one session on the calling thread, publishing snapshots into its
/// handle, then hand its outcome to the durability stage.
fn run_session(
    db: &Database,
    handle: &Arc<SessionHandle>,
    stage: &SyncSender<Handoff>,
    metrics: &ServiceMetrics,
) {
    // A session cancelled while still queued never starts. Its partial
    // counters must still be one-per-plan-node (all zero — no work was
    // done): pollers feed the published snapshot to an estimator that
    // indexes it by every plan node.
    if handle.cancel_token().is_cancelled() {
        let pending = handle.abort(lqs_exec::AbortedQuery {
            reason: lqs_exec::AbortReason::Cancelled,
            at_ns: 0,
            snapshots: Vec::new(),
            partial_counters: vec![lqs_exec::NodeCounters::default(); handle.plan().len()],
        });
        metrics.finished(pending.result.state());
        hand_off(stage, handle, pending);
        return;
    }
    let queue_wait = handle.submitted_at().elapsed();
    // Brownout shedding at dequeue: a session that cannot meet its latency
    // contract any more is rejected with a reason instead of run-to-fail.
    if let Some(deadline) = handle.queue_deadline() {
        if queue_wait > deadline {
            metrics.shed("queue_deadline");
            metrics.finished(SessionState::Rejected);
            handle.reject(Some(format!(
                "queue-wait deadline exceeded: waited {:.3}s over a {:.3}s budget",
                queue_wait.as_secs_f64(),
                deadline.as_secs_f64()
            )));
            return;
        }
        // A session whose predicted runtime already exceeds its virtual
        // deadline would only run to be aborted — shed it up front.
        if let (Some(deadline_ns), Some(prediction)) =
            (handle.deadline_ns(), handle.predicted_cost())
        {
            if prediction.runtime_ns > deadline_ns as f64 {
                metrics.shed("predicted_over_deadline");
                metrics.finished(SessionState::Rejected);
                handle.reject(Some(format!(
                    "predicted runtime {:.0}ns exceeds the {deadline_ns}ns virtual deadline",
                    prediction.runtime_ns
                )));
                return;
            }
        }
    }
    // Only a queued session starts; one already finished is not run.
    if handle.start().is_err() {
        return;
    }
    metrics.queue_wait_seconds.observe(queue_wait.as_secs_f64());
    metrics.running.inc();
    let started = Instant::now();
    let tap = handle.trace_sink().map(|sink| sink.tap(handle.id().0));
    let filter = handle.snapshot_filter().cloned();
    // Mid-run publishes go through the session's snapshot filter (the
    // telemetry-channel fault seam) when one is attached; the terminal
    // publish in `complete`/`abort` below bypasses it by design.
    let filtered = filter.as_ref().map(|f| FilteredPublisher {
        handle,
        filter: f.as_ref(),
    });
    let publisher: &dyn SnapshotPublisher = match &filtered {
        Some(fp) => fp,
        None => handle.as_ref(),
    };
    // `QueryAborted` unwinds are already converted to `Err` inside
    // `execute_hooked`; anything that still unwinds here is a genuine bug
    // in the query's execution — or an injected `QueryFault`. Contain it to
    // this session — mark it `Failed` so waiters wake up — and keep the
    // worker alive for the next session instead of hanging the pool.
    // Transient faults are retried in place up to the session's retry
    // budget: the re-execution republishes counters from zero, which is
    // exactly the counter-reset telemetry anomaly downstream guards absorb.
    let mut attempts_left = handle.retry_budget();
    let outcome = loop {
        let hooks = ExecHooks {
            sink: tap.as_ref().map(|t| t as &dyn EventSink),
            publisher: Some(publisher),
            cancel: Some(handle.cancel_token()),
            deadline_ns: handle.deadline_ns(),
            metrics: Some(metrics.exec()),
            fault: handle
                .fault_injector()
                .map(|f| f.as_ref() as &dyn FaultInjector),
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_hooked(db, handle.plan(), handle.opts(), hooks)
        }));
        if let Err(payload) = &outcome {
            let transient = payload
                .downcast_ref::<QueryFault>()
                .is_some_and(|f| f.transient);
            // Watchdog remediation cancels through the session's token;
            // a cancelled session must never burn its transient-fault
            // retry budget racing re-executions against the abort.
            if transient && attempts_left > 0 && !handle.cancel_token().is_cancelled() {
                attempts_left -= 1;
                metrics.retries.inc();
                continue;
            }
        }
        break outcome;
    };
    let run_wall = started.elapsed();
    let virtual_ns = match &outcome {
        Ok(Ok(run)) => Some(run.duration_ns),
        Ok(Err(aborted)) => Some(aborted.at_ns),
        Err(payload) => payload.downcast_ref::<QueryFault>().map(|f| f.at_ns),
    };
    // Deliver anything a delaying filter still buffers, then let the
    // terminal publish land last (the guard's high-water view tolerates
    // any interleaving, but in the common case this keeps order sane).
    if let Some(filter) = &filter {
        for s in filter.flush() {
            handle.publish(&s);
        }
    }
    let pending = match outcome {
        Ok(Ok(run)) => handle.complete(run),
        Ok(Err(aborted)) => handle.abort(aborted),
        Err(payload) => handle.fail(panic_message(payload.as_ref())),
    };
    // Record telemetry *before* the hand-off that leads to the terminal
    // state: anyone woken by `wait_terminal` must already see this session
    // in the counters. `running` counts executing sessions, so it drops
    // here and never exceeds the worker count.
    metrics.running.dec();
    metrics.run_wall_seconds.observe(run_wall.as_secs_f64());
    if let Some(ns) = virtual_ns {
        metrics.run_virtual_ns.observe_u64(ns);
    }
    metrics.finished(pending.result.state());
    if let Some(sink) = handle.trace_sink() {
        metrics.trace_events_dropped.set(sink.dropped() as i64);
    }
    hand_off(stage, handle, pending);
}

#[cfg(test)]
impl CostAdmission {
    /// An unbounded pool over an empty store, `outstanding_cpu_ns` already
    /// taken from it.
    pub(crate) fn holding(outstanding_cpu_ns: u64) -> Self {
        CostAdmission {
            store: Arc::default(),
            pool_cpu_ns: u64::MAX,
            outstanding_cpu_ns: AtomicU64::new(outstanding_cpu_ns),
            metrics: HistoryMetrics::new(Arc::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(registry: &SessionRegistry) -> Arc<SessionHandle> {
        let db = Database::new();
        let mut b = lqs_plan::PlanBuilder::new(&db);
        let scan = b.constant_scan(vec![vec![lqs_storage::Value::Int(1)]]);
        let spec = QuerySpec::new("q", Arc::new(b.finish(scan)));
        registry.register(registry.next_id(), spec, SessionTerms::default())
    }

    /// A panicking terminal path fails that session alone: its waiters
    /// wake with the reason, and the next hand-off is served as usual.
    #[test]
    fn a_panicking_terminal_path_fails_its_session_and_spares_the_stage() {
        let registry = SessionRegistry::new();
        let (tx, rx) = sync_channel::<Handoff>(1);
        let stage = std::thread::spawn(move || stage_loop(&rx));

        let doomed = handle(&registry);
        doomed.start().unwrap();
        contain(&doomed, || panic!("disk on fire"));
        assert_eq!(doomed.wait_terminal(), SessionState::Failed);
        let Some(crate::SessionResult::Failed(message)) = doomed.result() else {
            panic!("a contained panic must record a Failed result");
        };
        assert_eq!(message, "terminal path panicked: disk on fire");
        assert_eq!(registry.running_now(), 0);

        let next = handle(&registry);
        next.start().unwrap();
        let pending = next.fail("executed and failed".into());
        hand_off(&tx, &next, pending);
        assert_eq!(next.wait_terminal(), SessionState::Failed);

        // A stage whose thread is gone: the worker settles the session
        // itself instead of stranding its waiters.
        drop(tx);
        stage
            .join()
            .expect("stage exits when the last sender drops");
        let (dead_tx, dead_rx) = sync_channel::<Handoff>(1);
        drop(dead_rx);
        let stranded = handle(&registry);
        let pending = stranded.fail("no stage".into());
        hand_off(&dead_tx, &stranded, pending);
        assert_eq!(stranded.state(), SessionState::Failed);
    }

    /// A thread that panicked holding the queue's receiver lock must not
    /// take the pool with it: the next worker still dequeues and runs.
    #[test]
    fn a_poisoned_worker_queue_still_dequeues() {
        let registry = SessionRegistry::new();
        let (tx, rx) = channel();
        let rx = Mutex::new(rx);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = rx.lock().unwrap();
                panic!("poison the worker queue");
            })
            .join()
        });
        assert!(panicked.is_err() && rx.is_poisoned());

        let queued = handle(&registry);
        tx.send(Arc::clone(&queued)).unwrap();
        drop(tx);
        let (stage_tx, stage_rx) = sync_channel::<Handoff>(1);
        let depth = AtomicUsize::new(1);
        let metrics = ServiceMetrics::new(Arc::default());
        worker_loop(&Database::new(), &rx, &stage_tx, &depth, &metrics);
        drop(stage_tx);
        stage_loop(&stage_rx);
        assert_eq!(queued.state(), SessionState::Succeeded);
        assert_eq!(depth.load(Ordering::Acquire), 0);
    }
}
