//! Crash recovery: rebuild a [`SessionRegistry`] from the snapshot journal
//! a previous service incarnation left behind.
//!
//! On startup, [`RecoveryManager::recover`] scans the journal directory and
//! classifies every journaled session:
//!
//! * **Terminal record present** — the session finished before the process
//!   died (or exited cleanly). Its result is restored faithfully: a
//!   `Succeeded` session gets a reconstructed
//!   [`QueryRun`](lqs_exec::QueryRun) whose snapshot trace is the
//!   journaled publish stream, so a [`crate::RegistryPoller`] re-attaches
//!   and its accuracy replay scores **bit-identically** to the
//!   uninterrupted run (estimator statics depend only on plan, database,
//!   and cost model — all journaled or re-resolved).
//! * **No terminal record** — the process died mid-run. The session is
//!   restored as [`SessionState::Orphaned`] with its last journaled
//!   snapshot in the DMV slot; pollers serve that progress at
//!   [`EstimateQuality::Degraded`](lqs_progress::EstimateQuality).
//!
//! Plans are not journaled wholesale (they reference the live database);
//! instead the journal stores a structural fingerprint and recovery asks a
//! [`PlanResolver`] — typically "rebuild the workload query by name" — for
//! the plan, refusing to re-attach when the fingerprint no longer matches
//! (a changed plan would silently produce wrong estimator weights).

use crate::metrics::state_label;
use crate::registry::SessionRegistry;
use crate::session::{
    QuerySpec, SessionHandle, SessionId, SessionResult, SessionState, SessionTerms,
};
use lqs_exec::{AbortReason, AbortedQuery, ExecOptions};
use lqs_journal::{
    plan_fingerprint, scan_dir, JournalMetrics, JournalScan, RecoveredSession, SessionMeta,
    TerminalKind,
};
use lqs_plan::PhysicalPlan;
use std::path::Path;
use std::sync::Arc;

/// Re-resolves the physical plan of a journaled session. The journal
/// stores only the plan's fingerprint and the session's name/workload;
/// recovery needs the live [`Arc<PhysicalPlan>`] to hand pollers (their
/// estimator statics are built from it).
pub trait PlanResolver {
    /// The plan for `meta`'s session, or `None` if it cannot be rebuilt.
    fn resolve(&self, meta: &SessionMeta) -> Option<Arc<PhysicalPlan>>;
}

impl<F> PlanResolver for F
where
    F: Fn(&SessionMeta) -> Option<Arc<PhysicalPlan>>,
{
    fn resolve(&self, meta: &SessionMeta) -> Option<Arc<PhysicalPlan>> {
        self(meta)
    }
}

/// How one journaled session was classified by recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveredOutcome {
    /// Terminal record restored as-is (`Succeeded`, `Cancelled`,
    /// `DeadlineExceeded`, `Failed`, or `Rejected`).
    Restored(SessionState),
    /// No terminal record: the writing process died mid-run. Restored as
    /// [`SessionState::Orphaned`].
    Orphaned,
    /// The meta record was unreadable (corrupt first segment); nothing to
    /// re-attach. Counted, not registered.
    Unreadable,
    /// The [`PlanResolver`] could not rebuild the plan. Counted, not
    /// registered.
    Unresolved,
    /// The resolved plan's fingerprint differs from the journaled one —
    /// re-attaching would produce silently wrong estimates. Counted, not
    /// registered.
    PlanMismatch,
}

impl RecoveredOutcome {
    /// The `outcome` label on `lqs_sessions_recovered_total`.
    pub(crate) fn label(self) -> &'static str {
        match self {
            RecoveredOutcome::Restored(state) => state_label(state),
            RecoveredOutcome::Orphaned => "orphaned",
            RecoveredOutcome::Unreadable => "unreadable",
            RecoveredOutcome::Unresolved => "unresolved",
            RecoveredOutcome::PlanMismatch => "plan_mismatch",
        }
    }
}

/// One journaled session's recovery record.
#[derive(Debug, Clone)]
pub struct RecoveredSessionSummary {
    /// Id in the rebuilt registry; `None` when the session could not be
    /// re-attached (unreadable / unresolved / plan mismatch).
    pub id: Option<SessionId>,
    /// Epoch of the incarnation that journaled the session.
    pub original_epoch: u32,
    /// Session id within that epoch (ids are reassigned on recovery —
    /// originals are only unique per epoch).
    pub original_id: u64,
    /// Session name (empty when the meta record was lost).
    pub name: String,
    /// Classification.
    pub outcome: RecoveredOutcome,
    /// Snapshots that survived in the journal.
    pub snapshots: usize,
    /// Whether the journal ends with the clean-shutdown sentinel.
    pub clean_shutdown: bool,
}

/// What a recovery pass found and rebuilt.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Every journaled session, in `(epoch, session_id)` order.
    pub sessions: Vec<RecoveredSessionSummary>,
    /// Corrupt records discarded across the whole scan.
    pub corrupt_records: u64,
}

impl RecoveryReport {
    /// Sessions restored with their journaled terminal state.
    pub fn restored(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| matches!(s.outcome, RecoveredOutcome::Restored(_)))
            .count()
    }

    /// Sessions restored as [`SessionState::Orphaned`].
    pub fn orphaned(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.outcome == RecoveredOutcome::Orphaned)
            .count()
    }

    /// Sessions that could not be re-attached at all.
    pub fn unrecovered(&self) -> usize {
        self.sessions.len() - self.restored() - self.orphaned()
    }
}

/// Rebuilds a [`SessionRegistry`] from a journal directory.
pub struct RecoveryManager {
    resolver: Box<dyn PlanResolver>,
    metrics: JournalMetrics,
}

impl RecoveryManager {
    /// A manager resolving plans through `resolver`, counting outcomes into
    /// a registry of its own.
    pub fn new(resolver: impl PlanResolver + 'static) -> Self {
        RecoveryManager {
            resolver: Box::new(resolver),
            metrics: JournalMetrics::new(Arc::default()),
        }
    }

    /// Record recovery outcomes and scan corruption into `metrics` (a
    /// shared registry's handle) instead of the manager's own.
    pub fn with_metrics(mut self, metrics: JournalMetrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// The manager's telemetry.
    pub fn metrics(&self) -> &JournalMetrics {
        &self.metrics
    }

    /// Scan `dir` and register every recoverable session into `registry`.
    /// I/O errors on the directory propagate; corrupt content never does.
    pub fn recover(
        &self,
        dir: &Path,
        registry: &SessionRegistry,
    ) -> std::io::Result<RecoveryReport> {
        Ok(self.recover_scan(&scan_dir(dir)?, registry))
    }

    /// Register every recoverable session of an already-performed scan.
    pub fn recover_scan(&self, scan: &JournalScan, registry: &SessionRegistry) -> RecoveryReport {
        self.metrics.add_corrupt_records(scan.corrupt_records);
        let mut report = RecoveryReport {
            sessions: Vec::with_capacity(scan.sessions.len()),
            corrupt_records: scan.corrupt_records,
        };
        for session in &scan.sessions {
            let summary = self.recover_session(session, registry);
            self.metrics.session_recovered(summary.outcome.label());
            report.sessions.push(summary);
        }
        report
    }

    fn recover_session(
        &self,
        session: &RecoveredSession,
        registry: &SessionRegistry,
    ) -> RecoveredSessionSummary {
        let mut summary = RecoveredSessionSummary {
            id: None,
            original_epoch: session.epoch,
            original_id: session.session_id,
            name: session
                .meta
                .as_ref()
                .map(|m| m.name.clone())
                .unwrap_or_default(),
            outcome: RecoveredOutcome::Unreadable,
            snapshots: session.snapshots.len(),
            clean_shutdown: session.clean_shutdown,
        };
        let Some(meta) = &session.meta else {
            return summary;
        };
        let Some(plan) = self.resolver.resolve(meta) else {
            summary.outcome = RecoveredOutcome::Unresolved;
            return summary;
        };
        if plan_fingerprint(&plan) != meta.plan_fingerprint {
            summary.outcome = RecoveredOutcome::PlanMismatch;
            return summary;
        }
        let spec = QuerySpec::new(meta.name.clone(), plan)
            .with_workload(meta.workload.clone())
            .with_opts(ExecOptions {
                snapshot_target: meta.snapshot_target as usize,
                snapshot_interval_ns: meta.snapshot_interval_ns,
                cost_model: meta.cost_model.clone(),
                ..ExecOptions::default()
            });
        let terms = SessionTerms {
            recovered: true,
            ..SessionTerms::default()
        };
        let handle = registry.register(registry.next_id(), spec, terms);
        summary.id = Some(handle.id());
        summary.outcome = restore_handle(&handle, session);
        summary
    }
}

/// Install a journaled session's state into a freshly registered handle.
fn restore_handle(handle: &SessionHandle, session: &RecoveredSession) -> RecoveredOutcome {
    let Some((terminal, trace, last)) = session.terminal_publish() else {
        // Died mid-run: the last journaled snapshot is the session's
        // last-known progress; pollers estimate from it at Degraded.
        handle.restore(session.snapshots.last().cloned(), SessionResult::Orphaned);
        return RecoveredOutcome::Orphaned;
    };
    let aborted = |reason| {
        SessionResult::Aborted(Arc::new(AbortedQuery {
            reason,
            at_ns: terminal.at_ns,
            snapshots: trace.to_vec(),
            partial_counters: last.nodes.clone(),
        }))
    };
    let (result, snapshot) = match (session.completed_run(), terminal.kind) {
        (Some(run), _) => (SessionResult::Completed(Arc::new(run)), Some(last)),
        (None, TerminalKind::Cancelled) => (aborted(AbortReason::Cancelled), Some(last)),
        (None, TerminalKind::DeadlineExceeded) => {
            (aborted(AbortReason::DeadlineExceeded), Some(last))
        }
        (None, TerminalKind::Failed) => (
            SessionResult::Failed(terminal.message.clone()),
            // `fail` publishes nothing, so whatever snapshot is last in the
            // journal is a genuine mid-run publish — keep it visible.
            session.snapshots.last().cloned(),
        ),
        (None, TerminalKind::Rejected) => {
            let reason = Some(terminal.message.clone()).filter(|m| !m.is_empty());
            (SessionResult::Rejected { reason }, None)
        }
        // Not reached: `completed_run` answers every `Succeeded` record that
        // `terminal_publish` accepts. A run that is gone is an orphan.
        (None, TerminalKind::Succeeded) => (SessionResult::Orphaned, Some(last)),
    };
    let state = result.state();
    handle.restore(snapshot, result);
    RecoveredOutcome::Restored(state)
}
