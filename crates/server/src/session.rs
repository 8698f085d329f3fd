//! Sessions: one submitted query, its lifecycle, and its live-pollable
//! counter surface.
//!
//! A [`SessionHandle`] is the in-process analog of one row family of
//! `sys.dm_exec_query_profiles`: the executing worker *publishes* every
//! [`DmvSnapshot`] into the handle's latest-snapshot slot at snapshot
//! boundaries (via the [`SnapshotPublisher`] hook), and any number of
//! pollers read it concurrently without touching the execution.

use crate::seqslot::{copy_into, SnapshotSlot};
use crate::service::CostAdmission;
use lqs_exec::{
    AbortReason, AbortedQuery, CancellationToken, DmvSnapshot, ExecOptions, FaultInjector,
    QueryRun, SnapshotFilter, SnapshotPublisher,
};
use lqs_history::ResourcePrediction;
use lqs_journal::{SessionJournal, TerminalKind, TerminalRecord};
use lqs_plan::PhysicalPlan;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A snapshot that arrives this long after the session's previous one is
/// written at once, together with any frames held before it.
const HOLD_MAX_GAP_NS: u64 = 1_000_000;

/// Opaque session identifier, unique within one [`crate::SessionRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Lifecycle of a session. Terminal states are `Succeeded`, `Cancelled`,
/// `DeadlineExceeded`, `Failed`, `Rejected`, and `Orphaned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Submitted, waiting for a worker.
    Queued,
    /// A worker is executing the query — or has finished executing it and
    /// handed it to the service's durability stage, which has yet to force
    /// its terminal record to disk. The final counters are already
    /// published; the terminal state follows the flush.
    Running,
    /// Ran to completion; the full [`QueryRun`] is available.
    Succeeded,
    /// Aborted by its [`CancellationToken`] at a clock tick.
    Cancelled,
    /// Aborted by its per-session virtual-time deadline.
    DeadlineExceeded,
    /// Execution panicked; the panic message is in
    /// [`SessionResult::Failed`]. The worker survives and moves on.
    Failed,
    /// Shed before it ran: at admission (queue full, or predicted cost
    /// over the pool) or, under brownout, at dequeue. The session never
    /// executed and has no counters.
    Rejected,
    /// Restored from the journal of a crashed service incarnation: the
    /// session was in flight when the process died, so it has a last-known
    /// snapshot but no terminal record. Terminal here — the run is gone —
    /// and pollers serve its progress as
    /// [`lqs_progress::EstimateQuality::Degraded`].
    Orphaned,
}

impl SessionState {
    /// Whether the session has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        !matches!(self, SessionState::Queued | SessionState::Running)
    }
}

/// Whether a session's journaled record is trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionDurability {
    /// The session runs without a journal (no durability claim either way).
    Unjournaled,
    /// Every record the session journaled reached the file.
    Durable,
    /// At least one record was lost to a write error or breaker
    /// suppression — the journal has a gap. Surfaced as `durable: false`
    /// in `/sessions` and served at degraded estimate quality.
    Lost,
}

/// What a session left behind when it finished. A run's trace is shared,
/// not copied: every [`SessionHandle::result`] is a refcount on it.
#[derive(Debug, Clone)]
pub enum SessionResult {
    /// Completed run: full trace plus ground truth.
    Completed(Arc<QueryRun>),
    /// Aborted run: partial trace up to the abort tick.
    Aborted(Arc<AbortedQuery>),
    /// Execution panicked; the payload is the panic message.
    Failed(String),
    /// Shed before it ran: at admission (queue full, or predicted cost
    /// over the pool) or, under brownout, at dequeue. Never executed.
    Rejected {
        /// Why, when the shed gave a reason (brownout's dequeue-time sheds
        /// and a submission no worker can dequeue do); journaled as the
        /// terminal record's message.
        reason: Option<String>,
    },
    /// Interrupted by a service crash and restored from the journal; only
    /// the last journaled snapshot (in the handle's DMV slot) survives.
    Orphaned,
}

impl SessionResult {
    /// The terminal state this outcome is. A finished session's state is
    /// derived from its result here, never stored beside it, so the two
    /// cannot disagree.
    pub(crate) fn state(&self) -> SessionState {
        match self {
            SessionResult::Completed(_) => SessionState::Succeeded,
            SessionResult::Aborted(aborted) => match aborted.reason {
                AbortReason::Cancelled => SessionState::Cancelled,
                AbortReason::DeadlineExceeded => SessionState::DeadlineExceeded,
            },
            SessionResult::Failed(_) => SessionState::Failed,
            SessionResult::Rejected { .. } => SessionState::Rejected,
            SessionResult::Orphaned => SessionState::Orphaned,
        }
    }
}

/// Where a session is in its life. The outcome rides the terminal
/// variant, so the state a reader sees and the result it reads are one
/// value under one lock.
enum Lifecycle {
    Queued,
    Running,
    Done(SessionResult),
}

impl Lifecycle {
    fn state(&self) -> SessionState {
        match self {
            Lifecycle::Queued => SessionState::Queued,
            Lifecycle::Running => SessionState::Running,
            Lifecycle::Done(result) => result.state(),
        }
    }
}

/// A lifecycle transition the session's current state does not allow
/// (anything out of `Done`, or a second `start`). The refused call changed
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IllegalTransition;

/// What a worker leaves behind when a session's execution is over: the
/// final snapshot and the terminal record are appended to the journal (in
/// the worker's program order), the outcome is decided, and nothing of it is
/// observable yet. The service's durability stage turns it into the
/// session's terminal state with [`SessionHandle::settle`].
pub(crate) struct PendingTerminal {
    pub(crate) result: SessionResult,
    /// The terminal record reached the journal file and is owed its forced
    /// flush before the session may be reported terminal.
    sync_owed: bool,
}

impl PendingTerminal {
    /// The outcome of a session whose terminal path itself panicked: no
    /// journal traffic, just `Failed` with the reason.
    pub(crate) fn failed(message: String) -> Self {
        PendingTerminal {
            result: SessionResult::Failed(message),
            sync_owed: false,
        }
    }
}

/// Shared gauge of sessions currently in [`SessionState::Running`], with a
/// high-water mark. Updated on lifecycle *transitions* (under each
/// session's lifecycle lock), so the peak is exact — unlike sampling the
/// registry from a poll loop, which can miss short overlaps entirely.
#[derive(Default)]
pub(crate) struct RunningGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl RunningGauge {
    fn enter(&self) {
        let now = self.current.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak.fetch_max(now, Ordering::AcqRel);
    }

    fn exit(&self) {
        self.current.fetch_sub(1, Ordering::AcqRel);
    }

    pub(crate) fn current(&self) -> usize {
        self.current.load(Ordering::Acquire)
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Acquire)
    }
}

/// A query submission: the plan, execution options, and an optional
/// virtual-time budget.
#[derive(Clone)]
pub struct QuerySpec {
    /// Display name (e.g. the workload query label).
    pub(crate) name: String,
    /// The compiled physical plan. Shared with the poller, which builds
    /// its estimator statics from it.
    pub(crate) plan: Arc<PhysicalPlan>,
    /// Execution options (snapshot cadence, cost model).
    pub(crate) opts: ExecOptions,
    /// Abort the run once its virtual clock reaches this (runaway guard).
    pub(crate) deadline_ns: Option<u64>,
    /// Workload label for accuracy telemetry (the `workload` label on the
    /// `lqs_estimator_error_*` families). Defaults to `name`.
    pub(crate) workload: Option<String>,
    /// How many times a run that fails with a *transient*
    /// [`lqs_exec::QueryFault`] may be re-executed before the session is
    /// marked `Failed`. Zero (the default) disables retry.
    pub(crate) retry_budget: u32,
    /// Deterministic fault oracle driven on the executing worker (chaos
    /// testing). `None` runs fault-free.
    pub(crate) fault: Option<Arc<dyn FaultInjector + Send>>,
    /// Telemetry-channel fault filter interposed between the engine's
    /// mid-run publishes and this session's DMV slot (chaos testing). The
    /// *final* snapshot on completion/abort bypasses it — the terminal
    /// counter state always lands intact.
    pub(crate) snapshot_filter: Option<Arc<dyn SnapshotFilter>>,
}

impl QuerySpec {
    /// A spec with default options and no deadline.
    pub fn new(name: impl Into<String>, plan: Arc<PhysicalPlan>) -> Self {
        QuerySpec {
            name: name.into(),
            plan,
            opts: ExecOptions::default(),
            deadline_ns: None,
            workload: None,
            retry_budget: 0,
            fault: None,
            snapshot_filter: None,
        }
    }

    /// Set the execution options.
    pub fn with_opts(mut self, opts: ExecOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Set the virtual-time deadline.
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Set the workload label for accuracy telemetry.
    pub fn with_workload(mut self, workload: impl Into<String>) -> Self {
        self.workload = Some(workload.into());
        self
    }

    /// Allow up to `budget` re-executions on transient injected faults.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Attach a deterministic fault injector (chaos testing).
    pub fn with_fault(mut self, fault: Arc<dyn FaultInjector + Send>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Attach a telemetry-channel fault filter (chaos testing).
    pub fn with_snapshot_filter(mut self, filter: Arc<dyn SnapshotFilter>) -> Self {
        self.snapshot_filter = Some(filter);
        self
    }
}

/// Shared per-session state: the registry, the executing worker, and every
/// poller hold an `Arc` of this.
///
/// The hand-off is deliberately plain: the `latest` slot is one mutex
/// around one reusable snapshot buffer ([`SnapshotSlot`]). The worker's
/// publish and a poller's read each hold it for one allocation-free copy of
/// the counters, so neither can stall the other for longer than that.
/// `published_seq` lets a poller skip re-estimating a session that has not
/// published since its last poll.
pub struct SessionHandle {
    id: SessionId,
    spec: QuerySpec,
    cancel: CancellationToken,
    /// Where the session is in its life, outcome included. Replaced whole,
    /// and only by [`start`](Self::start) and [`finish`](Self::finish).
    lifecycle: Mutex<Lifecycle>,
    lifecycle_changed: Condvar,
    /// Latest published snapshot — the DMV row family for this session.
    latest: SnapshotSlot,
    /// Count of snapshots published so far (monotone; `Relaxed` reads are
    /// only ever used as a staleness hint). Counts only snapshots whose
    /// journal frames are written: a held batch advances it by its size.
    published_seq: AtomicU64,
    /// Snapshots whose journal frames the writer holds unwritten, and so
    /// not yet visible. Only the executing worker touches it.
    held: Mutex<HeldSnapshots>,
    /// Registry-wide running-sessions gauge, bumped on lifecycle transitions.
    gauge: Arc<RunningGauge>,
    /// Wall-clock submission instant (queue-wait and staleness metrics).
    created: Instant,
    /// Wall-clock nanoseconds after `created` of the most recent publish;
    /// `u64::MAX` until the first. Pollers subtract this from "now" to get
    /// snapshot age without taking the `latest` lock.
    last_publish_ns: AtomicU64,
    /// What the session runs under, fixed before the handle existed.
    terms: SessionTerms,
    /// Latest ensemble estimator selection a poller computed for this
    /// session (`None` for single-estimator pollers). Mid-run this tracks
    /// the live selection; once the session terminates the poller overwrites
    /// it with the deterministic full-trace replay selection, which is also
    /// what gets journaled.
    estimator_selection: Mutex<Option<lqs_progress::EnsembleSelection>>,
}

/// Everything a session runs under that is not in its [`QuerySpec`]:
/// decided by the service (or by recovery) before the handle is built, and
/// never changed after.
#[derive(Default)]
pub(crate) struct SessionTerms {
    /// Durability sink: every publish and terminal transition is appended
    /// here when the owning service runs with a journal.
    pub(crate) journal: Option<Arc<SessionJournal>>,
    /// Predicted-cost admission state, when the owning service runs
    /// cost-based admission.
    pub(crate) cost: Option<SessionCost>,
    /// Brownout's queue-wait budget: a session dequeued later is shed.
    /// `None` without brownout or without a budget.
    pub(crate) queue_deadline: Option<Duration>,
    /// Rebuilt from a journal by recovery rather than submitted live.
    pub(crate) recovered: bool,
    /// The owning service's count of sessions waiting for a worker. While
    /// it is non-zero, publishes hold their journal frames and write them
    /// in batches (`None`: every frame is written as it is published).
    pub(crate) queued: Option<Arc<AtomicUsize>>,
}

/// The group-commit batch of one session: snapshots published while
/// sessions wait for a worker, whose frames the journal writer holds.
#[derive(Default)]
struct HeldSnapshots {
    /// How many snapshots are held.
    count: u64,
    /// The newest of them: the slot gets it once their frames are written.
    newest: Option<DmvSnapshot>,
    /// Wall-clock nanoseconds after `created` at which the previous
    /// snapshot arrived (zero before the first).
    last_ns: u64,
}

/// Cost-admission state one session carries: the service-wide admission
/// pool, the prediction (if any) it was admitted on, and what it took from
/// the pool — zero for cold-start and rejected sessions — which its one
/// [`SessionHandle::finish`] gives back.
pub(crate) struct SessionCost {
    pub(crate) admission: Arc<CostAdmission>,
    pub(crate) prediction: Option<ResourcePrediction>,
    pub(crate) admitted_cpu_ns: u64,
}

impl SessionHandle {
    pub(crate) fn new(
        id: SessionId,
        spec: QuerySpec,
        gauge: Arc<RunningGauge>,
        terms: SessionTerms,
    ) -> Self {
        let plan_nodes = spec.plan.len();
        SessionHandle {
            id,
            spec,
            cancel: CancellationToken::new(),
            lifecycle: Mutex::new(Lifecycle::Queued),
            lifecycle_changed: Condvar::new(),
            latest: SnapshotSlot::new(plan_nodes),
            published_seq: AtomicU64::new(0),
            held: Mutex::default(),
            gauge,
            created: Instant::now(),
            last_publish_ns: AtomicU64::new(u64::MAX),
            terms,
            estimator_selection: Mutex::new(None),
        }
    }

    /// Record the poller's current ensemble selection for this session.
    pub(crate) fn set_estimator_selection(&self, sel: lqs_progress::EnsembleSelection) {
        // Like the lifecycle: one whole value, replaced whole.
        *self
            .estimator_selection
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(sel);
    }

    /// The latest ensemble estimator selection recorded for this session
    /// (`None` when no ensemble poller serves it). For terminal sessions
    /// this is the deterministic full-trace replay selection.
    pub fn estimator_selection(&self) -> Option<lqs_progress::EnsembleSelection> {
        self.estimator_selection
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The resource prediction this session was admitted on, if any.
    pub fn predicted_cost(&self) -> Option<&ResourcePrediction> {
        self.terms.cost.as_ref()?.prediction.as_ref()
    }

    /// The session's journal writer, if the service runs with one.
    pub(crate) fn journal(&self) -> Option<&Arc<SessionJournal>> {
        self.terms.journal.as_ref()
    }

    /// Brownout's queue-wait budget for this session, if any.
    pub(crate) fn queue_deadline(&self) -> Option<Duration> {
        self.terms.queue_deadline
    }

    /// Whether this session's journaled record is trustworthy. Lock-free;
    /// safe to call from pollers and HTTP handlers.
    pub fn durability(&self) -> SessionDurability {
        match self.journal() {
            None => SessionDurability::Unjournaled,
            Some(j) if j.is_durable() => SessionDurability::Durable,
            Some(_) => SessionDurability::Lost,
        }
    }

    /// Why the session was rejected, when it was shed with a reason.
    pub fn reject_reason(&self) -> Option<String> {
        match &*self.lifecycle() {
            Lifecycle::Done(SessionResult::Rejected { reason }) => reason.clone(),
            _ => None,
        }
    }

    /// Append the terminal record of an executed session without flushing
    /// it (the durability stage does). Returns whether a flush is owed.
    fn journal_terminal(
        &self,
        kind: TerminalKind,
        at_ns: u64,
        rows_returned: u64,
        message: &str,
    ) -> bool {
        self.release_held();
        self.journal().is_some_and(|journal| {
            journal.append_terminal_record(&TerminalRecord {
                kind,
                at_ns,
                rows_returned,
                message: message.to_owned(),
            })
        })
    }

    /// Whether this handle was rebuilt from a journal by recovery.
    pub fn recovered(&self) -> bool {
        self.terms.recovered
    }

    /// Session id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Display name from the spec.
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Workload label for accuracy telemetry (falls back to the name).
    pub fn workload(&self) -> &str {
        self.spec.workload.as_deref().unwrap_or(&self.spec.name)
    }

    /// Wall-clock instant the session was submitted.
    pub(crate) fn submitted_at(&self) -> Instant {
        self.created
    }

    /// Wall-clock age of the latest published snapshot — how stale a
    /// poller's view of this session is right now. `None` before the first
    /// publish.
    pub fn snapshot_age(&self) -> Option<Duration> {
        let at = self.last_publish_ns.load(Ordering::Acquire);
        if at == u64::MAX {
            return None;
        }
        Some(
            self.created
                .elapsed()
                .saturating_sub(Duration::from_nanos(at)),
        )
    }

    /// The plan this session executes.
    pub fn plan(&self) -> &Arc<PhysicalPlan> {
        &self.spec.plan
    }

    /// The execution options this session runs under (the poller needs the
    /// cost model to build matching estimator weights).
    pub fn opts(&self) -> &ExecOptions {
        &self.spec.opts
    }

    /// The session's virtual-time deadline, if any.
    pub(crate) fn deadline_ns(&self) -> Option<u64> {
        self.spec.deadline_ns
    }

    /// Allowed re-executions on transient injected faults.
    pub(crate) fn retry_budget(&self) -> u32 {
        self.spec.retry_budget
    }

    /// The session's deterministic fault injector, if any.
    pub(crate) fn fault_injector(&self) -> Option<&Arc<dyn FaultInjector + Send>> {
        self.spec.fault.as_ref()
    }

    /// The session's telemetry-channel fault filter, if any.
    pub(crate) fn snapshot_filter(&self) -> Option<&Arc<dyn SnapshotFilter>> {
        self.spec.snapshot_filter.as_ref()
    }

    /// The session's cancellation token (cancel it to abort the run at its
    /// next clock tick).
    pub fn cancel_token(&self) -> &CancellationToken {
        &self.cancel
    }

    /// Request cancellation. Queued sessions are cancelled before they
    /// start; running sessions abort at their next virtual-clock tick.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The lifecycle. It is only ever replaced whole, so a guard poisoned
    /// by a panicking holder still guards a valid value.
    fn lifecycle(&self) -> MutexGuard<'_, Lifecycle> {
        self.lifecycle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.lifecycle().state()
    }

    /// Block until the session reaches a terminal state, returning it.
    pub fn wait_terminal(&self) -> SessionState {
        self.lifecycle_changed
            .wait_while(self.lifecycle(), |l| !matches!(l, Lifecycle::Done(_)))
            .unwrap_or_else(PoisonError::into_inner)
            .state()
    }

    /// Snapshots published so far. A poller that remembers the last value
    /// it saw can skip sessions with nothing new.
    pub fn published_seq(&self) -> u64 {
        self.published_seq.load(Ordering::Acquire)
    }

    /// The most recently published snapshot, if any, as a fresh copy (the
    /// crate's own poller reuses one buffer instead of allocating per call).
    pub fn latest_snapshot(&self) -> Option<DmvSnapshot> {
        let mut buf = DmvSnapshot {
            ts_ns: 0,
            nodes: Vec::new(),
        };
        self.read_snapshot_into(&mut buf).then_some(buf)
    }

    /// Copy the most recently published snapshot into `buf`, reusing its
    /// allocations. Returns `false` (leaving `buf` untouched) before the
    /// first publish. Holds the slot's lock for the one copy only.
    pub(crate) fn read_snapshot_into(&self, buf: &mut DmvSnapshot) -> bool {
        self.latest.read_into(buf)
    }

    /// Virtual timestamp of the most recently published snapshot, without
    /// copying the counters (for listings that only need the position).
    pub(crate) fn latest_snapshot_ts(&self) -> Option<u64> {
        self.latest.read_ts()
    }

    /// Always `(0, 0)`: the slot no longer has torn or fallback reads to
    /// count. Kept only because `benchmark/src/stack.rs` (the ledger's
    /// `server.seqslot` torn-read figure) still calls it and a PR that
    /// changes `crates/` may not edit `benchmark/`; it goes with the next
    /// benchmark-only PR. Nothing under `crates/` may call it.
    #[doc(hidden)]
    pub fn snapshot_contention(&self) -> (u64, u64) {
        (0, 0)
    }

    /// The session's outcome, once terminal: a refcount on the stored
    /// result, never a copy of its trace.
    pub fn result(&self) -> Option<SessionResult> {
        match &*self.lifecycle() {
            Lifecycle::Done(result) => Some(result.clone()),
            Lifecycle::Queued | Lifecycle::Running => None,
        }
    }

    /// Queued → Running: a worker took the session. Enters the running
    /// gauge.
    pub(crate) fn start(&self) -> Result<(), IllegalTransition> {
        let mut lifecycle = self.lifecycle();
        if !matches!(*lifecycle, Lifecycle::Queued) {
            return Err(IllegalTransition);
        }
        *lifecycle = Lifecycle::Running;
        self.gauge.enter();
        self.lifecycle_changed.notify_all();
        Ok(())
    }

    /// Queued | Running → Done: the one way a session ends, whatever the
    /// outcome, and so the one owner of its side effects. It leaves the
    /// running gauge only if it was running, gives its admitted cost back
    /// to the pool, and wakes every waiter. Nothing leaves `Done`.
    pub(crate) fn finish(&self, result: SessionResult) -> Result<(), IllegalTransition> {
        let mut lifecycle = self.lifecycle();
        match *lifecycle {
            Lifecycle::Queued => {}
            Lifecycle::Running => self.gauge.exit(),
            Lifecycle::Done(_) => return Err(IllegalTransition),
        }
        *lifecycle = Lifecycle::Done(result);
        if let Some(cost) = &self.terms.cost {
            cost.admission.release(cost.admitted_cpu_ns);
        }
        self.lifecycle_changed.notify_all();
        Ok(())
    }

    /// Worker half of a completed run: publish the final counters as the
    /// last snapshot (so pollers see 100% without racing the lifecycle)
    /// and append the `Succeeded` record.
    pub(crate) fn complete(&self, run: QueryRun) -> PendingTerminal {
        self.publish_journaled(
            &DmvSnapshot {
                ts_ns: run.duration_ns,
                nodes: run.final_counters.clone(),
            },
            false,
        );
        let sync_owed = self.journal_terminal(
            TerminalKind::Succeeded,
            run.duration_ns,
            run.rows_returned,
            "",
        );
        PendingTerminal {
            result: SessionResult::Completed(Arc::new(run)),
            sync_owed,
        }
    }

    /// Worker half of an aborted run, keeping the partial trace honest: the
    /// counter state at the abort tick becomes the final published snapshot.
    pub(crate) fn abort(&self, aborted: AbortedQuery) -> PendingTerminal {
        self.publish_journaled(
            &DmvSnapshot {
                ts_ns: aborted.at_ns,
                nodes: aborted.partial_counters.clone(),
            },
            false,
        );
        let kind = match aborted.reason {
            AbortReason::Cancelled => TerminalKind::Cancelled,
            AbortReason::DeadlineExceeded => TerminalKind::DeadlineExceeded,
        };
        PendingTerminal {
            sync_owed: self.journal_terminal(kind, aborted.at_ns, 0, ""),
            result: SessionResult::Aborted(Arc::new(aborted)),
        }
    }

    /// Worker half of a genuine execution panic. No snapshot is published
    /// (the counter state is unknown); pollers keep whatever was last
    /// published.
    pub(crate) fn fail(&self, message: String) -> PendingTerminal {
        PendingTerminal {
            sync_owed: self.journal_terminal(TerminalKind::Failed, 0, 0, &message),
            result: SessionResult::Failed(message),
        }
    }

    /// Stage half of every executed session's terminal transition: force
    /// the terminal record to disk, then — and only then — make the outcome
    /// observable. A session is never terminal before its flush returned.
    pub(crate) fn settle(&self, pending: PendingTerminal) {
        if let (true, Some(journal)) = (pending.sync_owed, self.journal()) {
            journal.sync_terminal();
        }
        // Warm the prediction history with the now-known ground truth and
        // score this session's admission-time prediction against it.
        if let (SessionResult::Completed(run), Some(cost)) = (&pending.result, &self.terms.cost) {
            cost.admission
                .observe_completed(self.plan(), run, cost.prediction.as_ref());
        }
        // Refused only for a session already finished, which keeps its
        // first outcome.
        let _ = self.finish(pending.result);
    }

    /// Mark the session shed at admission or, by brownout shedding, at
    /// dequeue. Terminal immediately, on the calling thread (there was no
    /// execution for a flush to overlap with); the session never ran, so
    /// there are no counters to publish. A human-readable `reason` is
    /// journaled as the terminal record's message and kept in the result
    /// ([`SessionResult::Rejected`], [`reject_reason`](Self::reject_reason)),
    /// so an operator can tell *why* a session never ran.
    pub(crate) fn reject(&self, reason: Option<String>) {
        if let Some(journal) = self.journal() {
            journal.append_terminal(&TerminalRecord {
                kind: TerminalKind::Rejected,
                at_ns: 0,
                rows_returned: 0,
                message: reason.clone().unwrap_or_default(),
            });
        }
        let _ = self.finish(SessionResult::Rejected { reason });
    }

    /// Rebuild this handle's terminal state from journaled records
    /// (recovery path). Lands `snapshot` in the DMV slot — a recovered
    /// handle has no journal, so nothing is re-journaled — then finishes
    /// the session with `result`.
    pub(crate) fn restore(&self, snapshot: Option<DmvSnapshot>, result: SessionResult) {
        if let Some(snapshot) = &snapshot {
            self.publish(snapshot);
        }
        let _ = self.finish(result);
    }
}

/// Routes the engine's mid-run publishes through a session's
/// [`SnapshotFilter`] before they land in the handle's DMV slot — the
/// telemetry-channel fault seam. One filter output snapshot → one publish,
/// in the order the filter returns them (so a reordering filter really does
/// deliver stale-timestamp snapshots to pollers).
pub(crate) struct FilteredPublisher<'a> {
    pub(crate) handle: &'a SessionHandle,
    pub(crate) filter: &'a dyn SnapshotFilter,
}

impl SnapshotPublisher for FilteredPublisher<'_> {
    fn publish(&self, snapshot: &DmvSnapshot) {
        for s in self.filter.filter(snapshot) {
            self.handle.publish(&s);
        }
    }
}

impl SnapshotPublisher for SessionHandle {
    fn publish(&self, snapshot: &DmvSnapshot) {
        self.publish_journaled(snapshot, true);
    }
}

impl SessionHandle {
    /// Journal first, then make the snapshot visible: a poller must never
    /// see counters the journal can lose. (Landing the publish in the
    /// handle rather than an exec-level tee means terminal publishes from
    /// `complete`/`abort` — which bypass the engine's publisher hook — are
    /// journaled too.)
    ///
    /// Group commit: while sessions wait for a worker, and the snapshot
    /// came within [`HOLD_MAX_GAP_NS`] of the previous one, `may_hold`
    /// lets its frame wait in the journal writer, invisible, for the next
    /// one; the writer writes held frames before they pass 64 KiB. When a
    /// snapshot is not held, it is written together with the held ones,
    /// and the whole batch becomes visible at once: the slot takes the
    /// newest, `published_seq` advances by the batch size.
    fn publish_journaled(&self, snapshot: &DmvSnapshot, may_hold: bool) {
        // `u64::MAX` is the never-published sentinel; a >584-year uptime
        // would be needed to collide with it.
        let now_ns = self
            .created
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX - 1)) as u64;
        let Some(journal) = self.journal() else {
            self.show(snapshot, 1, now_ns);
            return;
        };
        let mut held = self.held();
        let prompt = now_ns.saturating_sub(held.last_ns) < HOLD_MAX_GAP_NS;
        held.last_ns = now_ns;
        if may_hold && prompt && self.sessions_waiting() {
            if journal.hold_snapshot(snapshot) {
                held.count += 1;
                match &mut held.newest {
                    Some(newest) => copy_into(newest, snapshot),
                    newest => *newest = Some(snapshot.clone()),
                }
                return;
            }
            journal.write_held();
        } else {
            journal.append_snapshot(snapshot);
        }
        let batch = std::mem::take(&mut held.count) + 1;
        drop(held);
        self.show(snapshot, batch, now_ns);
    }

    /// Write any held frames and show the newest held snapshot, then drop
    /// the batch buffer: a terminal record follows, so nothing is held
    /// again.
    fn release_held(&self) {
        let mut held = self.held();
        let (count, newest, at_ns) = (held.count, held.newest.take(), held.last_ns);
        held.count = 0;
        drop(held);
        if let (Some(journal), Some(newest)) = (self.journal(), newest.filter(|_| count > 0)) {
            journal.write_held();
            self.show(&newest, count, at_ns);
        }
    }

    /// Make `snapshot`, the newest of `batch` journaled snapshots that
    /// arrived up to `at_ns`, the visible one.
    fn show(&self, snapshot: &DmvSnapshot, batch: u64, at_ns: u64) {
        // Allocation-free copy into the slot, under its lock.
        self.latest.publish(snapshot);
        self.last_publish_ns.store(at_ns, Ordering::Release);
        self.published_seq.fetch_add(batch, Ordering::AcqRel);
    }

    /// The batch lives as long as the handle and is replaced field by
    /// field, so a guard poisoned by a panicking holder is still usable.
    fn held(&self) -> MutexGuard<'_, HeldSnapshots> {
        self.held.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether any session of the owning service waits for a worker.
    fn sessions_waiting(&self) -> bool {
        (self.terms.queued.as_ref()).is_some_and(|q| q.load(Ordering::Acquire) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_exec::NodeCounters;

    fn dummy_plan() -> Arc<PhysicalPlan> {
        let db = lqs_storage::Database::new();
        let mut b = lqs_plan::PlanBuilder::new(&db);
        let scan = b.constant_scan(vec![vec![lqs_storage::Value::Int(1)]]);
        Arc::new(b.finish(scan))
    }

    #[test]
    fn publish_updates_latest_and_seq() {
        let h = SessionHandle::new(
            SessionId(0),
            QuerySpec::new("q", dummy_plan()),
            Arc::default(),
            SessionTerms::default(),
        );
        assert_eq!(h.published_seq(), 0);
        assert!(h.latest_snapshot().is_none());
        let snap = DmvSnapshot {
            ts_ns: 42,
            nodes: vec![NodeCounters::default()],
        };
        h.publish(&snap);
        assert_eq!(h.published_seq(), 1);
        assert_eq!(h.latest_snapshot(), Some(snap));
    }

    #[test]
    fn snapshot_age_and_workload_label() {
        let h = SessionHandle::new(
            SessionId(0),
            QuerySpec::new("q", dummy_plan()),
            Arc::default(),
            SessionTerms::default(),
        );
        assert!(h.snapshot_age().is_none());
        assert_eq!(h.workload(), "q"); // falls back to the name
        h.publish(&DmvSnapshot {
            ts_ns: 1,
            nodes: vec![NodeCounters::default()],
        });
        assert!(h.snapshot_age().is_some());

        let labelled = SessionHandle::new(
            SessionId(1),
            QuerySpec::new("q", dummy_plan()).with_workload("tpch-q01"),
            Arc::default(),
            SessionTerms::default(),
        );
        assert_eq!(labelled.workload(), "tpch-q01");
    }

    /// The publish path must keep moving under aggressive polling: a poller
    /// holds the slot's lock for one copy only, every read is of one
    /// publish, and a copy a poller already holds is unaffected by later
    /// publishes. (The slot's never-torn contract itself is stress-tested
    /// in `seqslot::tests`.)
    #[test]
    fn publish_keeps_moving_while_pollers_hammer_reads() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};

        let h = SessionHandle::new(
            SessionId(7),
            QuerySpec::new("q", dummy_plan()),
            Arc::default(),
            SessionTerms::default(),
        );
        h.publish(&DmvSnapshot {
            ts_ns: 1,
            nodes: vec![NodeCounters::default()],
        });
        let held = h.latest_snapshot().expect("published");

        let stop = AtomicBool::new(false);
        let elapsed = std::thread::scope(|s| {
            s.spawn(|| {
                // Aggressive poller: pooled reads in a tight loop.
                let mut buf = DmvSnapshot {
                    ts_ns: 0,
                    nodes: Vec::new(),
                };
                while !stop.load(Ordering::Acquire) {
                    assert!(h.read_snapshot_into(&mut buf));
                    // Counters within one read are from one publish.
                    assert_eq!(buf.nodes[0].rows_output, buf.nodes[0].rows_input);
                }
            });
            let started = Instant::now();
            for i in 0..10_000u64 {
                let n = NodeCounters {
                    rows_output: i,
                    rows_input: i,
                    ..NodeCounters::default()
                };
                h.publish(&DmvSnapshot {
                    ts_ns: 2 + i,
                    nodes: vec![n],
                });
            }
            let elapsed = started.elapsed();
            stop.store(true, Ordering::Release);
            elapsed
        });
        // The copy taken before the storm is untouched by it.
        assert_eq!(held.ts_ns, 1);
        assert_eq!(h.published_seq(), 10_001);
        assert_eq!(h.latest_snapshot_ts(), Some(10_001));
        // Generous liveness bound: 10k one-node copies under a lock are
        // microseconds of work even on a loaded CI machine.
        assert!(
            elapsed < Duration::from_secs(20),
            "publish stalled behind a poller: {elapsed:?}"
        );
    }

    /// The worker and the durability stage both touch the lifecycle; a
    /// panic on one side while holding it must not wedge the other.
    #[test]
    fn a_poisoned_result_slot_still_takes_the_outcome() {
        let h = Arc::new(SessionHandle::new(
            SessionId(0),
            QuerySpec::new("q", dummy_plan()),
            Arc::default(),
            SessionTerms::default(),
        ));
        let poisoner = Arc::clone(&h);
        let panicked = std::thread::spawn(move || {
            let _held = poisoner.lifecycle.lock().unwrap();
            panic!("poison the lifecycle");
        })
        .join();
        assert!(panicked.is_err() && h.lifecycle.is_poisoned());
        h.start().unwrap();
        h.settle(h.fail("boom".into()));
        assert_eq!(h.state(), SessionState::Failed);
        assert_eq!(h.wait_terminal(), SessionState::Failed);
        assert!(matches!(h.result(), Some(SessionResult::Failed(m)) if m == "boom"));
    }

    #[test]
    fn state_machine_terminal_flags() {
        assert!(!SessionState::Queued.is_terminal());
        assert!(!SessionState::Running.is_terminal());
        assert!(SessionState::Succeeded.is_terminal());
        assert!(SessionState::Cancelled.is_terminal());
        assert!(SessionState::DeadlineExceeded.is_terminal());
        assert!(SessionState::Failed.is_terminal());
        assert!(SessionState::Rejected.is_terminal());
        assert!(SessionState::Orphaned.is_terminal());
    }

    #[test]
    fn running_gauge_tracks_transitions_and_peak() {
        let gauge = Arc::new(RunningGauge::default());
        let mk = |id| {
            SessionHandle::new(
                SessionId(id),
                QuerySpec::new("q", dummy_plan()),
                Arc::clone(&gauge),
                SessionTerms::default(),
            )
        };
        let a = mk(0);
        let b = mk(1);
        a.start().unwrap();
        b.start().unwrap();
        assert_eq!(gauge.current(), 2);
        a.finish(outcome(SessionState::Succeeded)).unwrap();
        assert_eq!(gauge.current(), 1);
        b.finish(outcome(SessionState::Failed)).unwrap();
        assert_eq!(gauge.current(), 0);
        assert_eq!(gauge.peak(), 2);
        // A queued session cancelled before running never touches the gauge.
        let c = mk(2);
        c.finish(outcome(SessionState::Cancelled)).unwrap();
        assert_eq!(gauge.current(), 0);
        assert_eq!(gauge.peak(), 2);
    }

    const TERMINAL: [SessionState; 6] = [
        SessionState::Succeeded,
        SessionState::Cancelled,
        SessionState::DeadlineExceeded,
        SessionState::Failed,
        SessionState::Rejected,
        SessionState::Orphaned,
    ];

    /// The result whose derived state is `state` (one of [`TERMINAL`]).
    fn outcome(state: SessionState) -> SessionResult {
        let aborted = |reason| {
            SessionResult::Aborted(Arc::new(AbortedQuery {
                reason,
                at_ns: 7,
                snapshots: Vec::new(),
                partial_counters: Vec::new(),
            }))
        };
        match state {
            SessionState::Succeeded => SessionResult::Completed(Arc::new(QueryRun {
                snapshots: Vec::new(),
                final_counters: Vec::new(),
                duration_ns: 7,
                rows_returned: 1,
                cost_model: lqs_plan::CostModel::default(),
                node_elapsed_ns: Vec::new(),
            })),
            SessionState::Cancelled => aborted(AbortReason::Cancelled),
            SessionState::DeadlineExceeded => aborted(AbortReason::DeadlineExceeded),
            SessionState::Failed => SessionResult::Failed("boom".into()),
            SessionState::Rejected => SessionResult::Rejected { reason: None },
            SessionState::Orphaned => SessionResult::Orphaned,
            SessionState::Queued | SessionState::Running => unreachable!("not an outcome"),
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Step {
        Start,
        Finish(SessionState),
    }

    fn apply(h: &SessionHandle, step: Step) -> Result<(), IllegalTransition> {
        match step {
            Step::Start => h.start(),
            Step::Finish(to) => h.finish(outcome(to)),
        }
    }

    /// Every (lifecycle, transition) pair: which are legal, the state each
    /// leaves, and the side effects only a legal one owns — the running
    /// gauge and its peak, the admitted cost, the waiters. `Done` is reached
    /// both from `Queued` and from `Running`, with each of the six outcomes,
    /// and every `finish` is tried with each of them. Named mutants this
    /// fails on every run: a second `finish` re-entering a terminal state
    /// (Succeeded → Failed); Running → Done not exiting the gauge; Queued →
    /// Done exiting a gauge it never entered; admitted cost released twice,
    /// or not at all on a session rejected while queued; `wait_terminal`
    /// waking on a non-terminal change.
    #[test]
    fn every_lifecycle_transition_pair() {
        use std::time::Duration;
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Before {
            Queued,
            Running,
            Done,
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Transition {
            Start,
            Finish,
        }
        // (lifecycle, transition, legal, running-gauge delta)
        const TABLE: [(Before, Transition, bool, isize); 6] = [
            (Before::Queued, Transition::Start, true, 1),
            (Before::Queued, Transition::Finish, true, 0),
            (Before::Running, Transition::Start, false, 0),
            (Before::Running, Transition::Finish, true, -1),
            (Before::Done, Transition::Start, false, 0),
            (Before::Done, Transition::Finish, false, 0),
        ];
        const ADMITTED: u64 = 100;
        const BYSTANDER: u64 = 1_000;
        let setups = |from| -> Vec<Vec<Step>> {
            match from {
                Before::Queued => vec![vec![]],
                Before::Running => vec![vec![Step::Start]],
                Before::Done => (TERMINAL.iter())
                    .flat_map(|&s| [vec![Step::Finish(s)], vec![Step::Start, Step::Finish(s)]])
                    .collect(),
            }
        };
        let mut cases = 0;
        for (from, transition, legal, gauge_delta) in TABLE {
            let steps: Vec<Step> = match transition {
                Transition::Start => vec![Step::Start],
                Transition::Finish => TERMINAL.iter().map(|&s| Step::Finish(s)).collect(),
            };
            for (setup, step) in setups(from)
                .into_iter()
                .flat_map(|setup| steps.iter().map(move |&step| (setup.clone(), step)))
            {
                let case = format!("{from:?} via {setup:?}, then {step:?}");
                // A bystander keeps both counters off zero, so a wrong
                // decrement shows as a delta rather than a wrap.
                let gauge = Arc::new(RunningGauge::default());
                let pool = Arc::new(CostAdmission::holding(BYSTANDER + ADMITTED));
                let handle = |terms| {
                    SessionHandle::new(
                        SessionId(0),
                        QuerySpec::new("q", dummy_plan()),
                        Arc::clone(&gauge),
                        terms,
                    )
                };
                handle(SessionTerms::default()).start().unwrap();
                let h = handle(SessionTerms {
                    cost: Some(SessionCost {
                        admission: Arc::clone(&pool),
                        prediction: None,
                        admitted_cpu_ns: ADMITTED,
                    }),
                    ..SessionTerms::default()
                });
                for &s in &setup {
                    apply(&h, s).unwrap();
                }
                let before = h.state();
                assert_eq!(before.is_terminal(), from == Before::Done, "{case}");
                let (running, cost) = (gauge.current() as isize, pool.outstanding_cpu_ns());
                std::thread::scope(|s| {
                    // Park a waiter across the transition whenever there is
                    // one to wake. Nothing outside `wait_terminal` can tell
                    // when it has parked, so the sleeps only make the
                    // waking mutant visible: correct code passes however
                    // late the waiter parks.
                    let waiter = (!before.is_terminal()).then(|| s.spawn(|| h.wait_terminal()));
                    if waiter.is_some() {
                        std::thread::sleep(Duration::from_millis(30));
                    }
                    assert_eq!(apply(&h, step).is_ok(), legal, "{case}");
                    let after = match (legal, step) {
                        (true, Step::Start) => SessionState::Running,
                        (true, Step::Finish(to)) => to,
                        (false, _) => before,
                    };
                    assert_eq!(h.state(), after, "{case}");
                    let derived = h.result().map(|r| r.state());
                    assert_eq!(derived, after.is_terminal().then_some(after), "{case}");
                    assert_eq!(gauge.current() as isize - running, gauge_delta, "{case}");
                    let ran = setup.iter().any(|s| matches!(s, Step::Start))
                        || (legal && transition == Transition::Start);
                    assert_eq!(gauge.peak(), 1 + usize::from(ran), "{case}");
                    let released = if legal && transition == Transition::Finish {
                        ADMITTED
                    } else {
                        0
                    };
                    assert_eq!(cost - pool.outstanding_cpu_ns(), released, "{case}");
                    if let Some(waiter) = waiter {
                        let woke_to = if after.is_terminal() {
                            after
                        } else {
                            // A non-terminal change leaves the waiter parked.
                            std::thread::sleep(Duration::from_millis(30));
                            assert!(!waiter.is_finished(), "{case}: woke on {after:?}");
                            h.finish(outcome(SessionState::Succeeded)).unwrap();
                            SessionState::Succeeded
                        };
                        assert_eq!(waiter.join().unwrap(), woke_to, "{case}");
                    }
                });
                cases += 1;
            }
        }
        // 8 lifecycles (Done once per outcome, reached two ways) × 7
        // transitions.
        assert_eq!(cases, (2 + 2 * 6) * 7);
    }

    /// `result()` hands out the stored run, not a copy of its trace.
    #[test]
    fn result_is_a_refcount_not_a_trace_copy() {
        let h = SessionHandle::new(
            SessionId(0),
            QuerySpec::new("q", dummy_plan()),
            Arc::default(),
            SessionTerms::default(),
        );
        h.start().unwrap();
        h.finish(outcome(SessionState::Succeeded)).unwrap();
        let (Some(SessionResult::Completed(a)), Some(SessionResult::Completed(b))) =
            (h.result(), h.result())
        else {
            panic!("a succeeded session holds a completed run");
        };
        assert!(Arc::ptr_eq(&a, &b));
    }
}
