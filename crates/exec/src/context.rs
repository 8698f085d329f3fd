//! The execution context: virtual clock, per-node counters, DMV snapshot
//! recording, runtime bitmaps, and nested-loops correlation state.
//!
//! # The virtual clock
//!
//! Every unit of operator work charges deterministic virtual nanoseconds:
//! CPU per row (constants from [`CostModel`], shared with the optimizer's
//! estimates) and I/O per page. This gives every experiment a reproducible
//! time axis, so the paper's progress-vs-time figures (Errortime, Figures
//! 8/11/12) are well-defined without wall-clock noise.
//!
//! # Snapshots
//!
//! Whenever the clock crosses a sampling boundary a [`DmvSnapshot`] of all
//! counters is recorded — the analog of the SSMS client polling
//! `sys.dm_exec_query_profiles` every 500 ms. The interval auto-scales from
//! the plan's estimated cost, and the buffer self-thins (dropping every
//! other sample and doubling the interval) when a query runs much longer
//! than estimated, bounding memory while keeping whole-run coverage.

use crate::bloom::BloomFilter;
use crate::fault::{FaultInjector, GetNextFault, IoVerdict, QueryFault};
use crate::trace::{EventKind, RingBufferSink, TraceEvent};
use lqs_plan::{BitmapId, CostModel, DmvSnapshot, NodeCounters, NodeId};
use lqs_storage::{Database, Row, Value};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Maximum snapshots retained before thinning.
pub(crate) const MAX_SNAPSHOTS: usize = 2048;

/// Why an execution was aborted before completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A [`CancellationToken`] was cancelled.
    Cancelled,
    /// The session's virtual-time deadline elapsed.
    DeadlineExceeded,
}

/// Panic payload thrown by the virtual clock's advance when a run is aborted.
/// The executor catches it at the drive loop and converts it into a
/// structured error; any other panic is propagated unchanged.
#[derive(Debug, Clone, Copy)]
pub struct QueryAborted {
    /// Why the run stopped.
    pub(crate) reason: AbortReason,
    /// Virtual time at which the abort was observed.
    pub(crate) at_ns: u64,
}

/// A shareable cancellation flag. Cloning is cheap (one `Arc`); cancelling
/// any clone aborts the run at its next virtual-clock tick.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Receives every [`DmvSnapshot`] the moment it is recorded — the hook a
/// live monitoring surface (e.g. `lqs-server`'s session registry) uses to
/// expose in-flight counters, the way `sys.dm_exec_query_profiles` exposes
/// a running query's counters to concurrent pollers. Implementations must
/// be `Sync`: the publish happens on the executing thread while pollers
/// read from others.
pub trait SnapshotPublisher: Sync {
    /// Called at each snapshot boundary, in virtual-time order.
    fn publish(&self, snapshot: &DmvSnapshot);
}

thread_local! {
    /// Depth of [`catch_query_abort`] frames on this thread. The quiet
    /// abort hook stays fully silent only when a frame is active (the
    /// unwind is about to be caught); an abort panicking on a thread with
    /// no catch frame would otherwise kill the thread with no diagnostic
    /// at all.
    static ABORT_CATCH_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Run `f`, catching any panic, while telling the quiet abort hook that a
/// [`QueryAborted`] unwind on this thread will be caught (so it stays
/// silent). Every catch site for abort unwinds must go through this.
pub(crate) fn catch_query_abort<R>(
    f: impl FnOnce() -> R,
) -> Result<R, Box<dyn std::any::Any + Send>> {
    struct DepthGuard;
    impl Drop for DepthGuard {
        fn drop(&mut self) {
            ABORT_CATCH_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    ABORT_CATCH_DEPTH.with(|d| d.set(d.get() + 1));
    let _guard = DepthGuard;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
}

/// Suppress the default panic message for [`QueryAborted`] and
/// [`QueryFault`] unwinds (both are structured control flow, caught by the
/// executor or the session worker) while leaving every other panic's
/// reporting untouched. Installed once, process-wide, the first time a
/// cancellable or fault-injected execution starts. A payload unwinding on
/// a thread with no executor catch frame below it (a misuse — e.g. ticking
/// a cancellable context outside `execute_hooked`) still logs one line, so
/// the thread never dies completely silently.
pub(crate) fn install_quiet_abort_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let caught = ABORT_CATCH_DEPTH.with(std::cell::Cell::get) > 0;
            if let Some(aborted) = info.payload().downcast_ref::<QueryAborted>() {
                if !caught {
                    eprintln!(
                        "lqs-exec: QueryAborted ({:?} at {} ns) unwinding with no \
                         executor catch frame on this thread; the unwind will escape",
                        aborted.reason, aborted.at_ns
                    );
                }
            } else if let Some(fault) = info.payload().downcast_ref::<QueryFault>() {
                if !caught {
                    eprintln!(
                        "lqs-exec: QueryFault ({fault}) unwinding with no executor \
                         catch frame on this thread; the unwind will escape"
                    );
                }
            } else {
                prev(info);
            }
        }));
    });
}

/// One node's published counters plus engine-internal charging state, kept
/// side by side so a charge updates both under a single
/// `RefCell` borrow.
///
/// The carry is deliberately *not* a [`NodeCounters`] field: it is
/// sub-nanosecond bookkeeping, and `NodeCounters` is the journaled,
/// serialized, `PartialEq`-compared DMV row format.
#[derive(Debug, Clone, Default)]
struct NodeAccount {
    /// The node's DMV counter row.
    counters: NodeCounters,
    /// Fractional virtual nanoseconds charged but not yet applied. CPU
    /// charges are f64 (e.g. batch-mode `25.0 × 0.3 = 7.5`); truncating
    /// each charge individually would leak up to 1 ns per call and drift
    /// long runs measurably below the f64 optimizer estimates. Invariant:
    /// always in `[0, 1)` (debug-asserted on every charge), so batched
    /// charging cannot silently drift the clock.
    cpu_carry: f64,
    /// Whole virtual nanoseconds of clock advance attributed to this node:
    /// CPU, I/O, and injected stalls. Every [`ExecContext::advance`] call
    /// is preceded by crediting its exact nanoseconds here, so the sum over
    /// all nodes equals the clock at every instant — including the abort
    /// tick of a cancelled or deadline-exceeded run. This is the profiler's
    /// exclusive (self-time) figure; unlike `cpu_ns` it also covers I/O
    /// wait and stall time.
    elapsed_ns: u64,
}

/// Shared execution state, passed to every operator call.
pub struct ExecContext<'a> {
    /// The database being queried.
    pub(crate) db: &'a Database,
    /// Cost/charging constants.
    pub(crate) cost: CostModel,
    clock_ns: Cell<u64>,
    accounts: RefCell<Vec<NodeAccount>>,
    snapshots: RefCell<Vec<DmvSnapshot>>,
    snapshot_interval_ns: Cell<u64>,
    next_snapshot_ns: Cell<u64>,
    /// Snapshots recorded so far, counting ones later thinned away.
    snapshot_seq: Cell<u64>,
    /// Trace event sink; `None` when the run is untraced.
    sink: Option<&'a RingBufferSink>,
    /// Live snapshot publisher; `None` for post-hoc-only runs.
    publisher: Option<&'a dyn SnapshotPublisher>,
    /// Cooperative cancellation flag, checked at every clock tick.
    cancel: Option<CancellationToken>,
    /// Virtual-time budget: the run aborts once the clock reaches this.
    deadline_ns: Option<u64>,
    /// Deterministic fault oracle, consulted by [`BatchCharge`] on every
    /// I/O charge and every output row.
    fault: Option<&'a dyn FaultInjector>,
    /// Number of live [`BatchCharge`] scopes (0 or 1). Debug-asserted
    /// against direct charging and scope nesting: a scope caches its
    /// flush budget, which is only exact while nothing else moves the
    /// clock.
    live_scopes: Cell<u32>,
    /// Per-node high-water marks of the buffered-rows gauge (tracing only).
    buffered_hw: RefCell<Vec<u64>>,
    bitmaps: RefCell<Vec<Option<BloomFilter>>>,
    /// Correlation stack: the current outer row(s) of enclosing
    /// nested-loops joins, innermost last.
    outer_rows: RefCell<Vec<Row>>,
}

impl<'a> ExecContext<'a> {
    /// New context for a plan with `node_count` nodes and `bitmap_count`
    /// bitmaps, sampling every `snapshot_interval_ns` of virtual time.
    pub fn new(
        db: &'a Database,
        node_count: usize,
        bitmap_count: usize,
        snapshot_interval_ns: u64,
        cost: CostModel,
    ) -> Self {
        let interval = snapshot_interval_ns.max(1);
        ExecContext {
            db,
            cost,
            clock_ns: Cell::new(0),
            accounts: RefCell::new(vec![NodeAccount::default(); node_count]),
            snapshots: RefCell::new(Vec::new()),
            snapshot_interval_ns: Cell::new(interval),
            next_snapshot_ns: Cell::new(interval),
            snapshot_seq: Cell::new(0),
            sink: None,
            publisher: None,
            cancel: None,
            deadline_ns: None,
            fault: None,
            live_scopes: Cell::new(0),
            buffered_hw: RefCell::new(vec![0; node_count]),
            bitmaps: RefCell::new((0..bitmap_count).map(|_| None).collect()),
            outer_rows: RefCell::new(Vec::new()),
        }
    }

    /// Attach a trace event sink. Call before handing the context to
    /// operators; events start flowing immediately.
    pub(crate) fn with_sink(mut self, sink: &'a RingBufferSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a live snapshot publisher: every [`DmvSnapshot`] is handed to
    /// it the moment it is recorded, before execution proceeds.
    pub(crate) fn with_publisher(mut self, publisher: &'a dyn SnapshotPublisher) -> Self {
        self.publisher = Some(publisher);
        self
    }

    /// Attach a cancellation token. Once cancelled, the run aborts (by
    /// unwinding with [`QueryAborted`]) at the next clock tick.
    pub(crate) fn with_cancellation(mut self, token: CancellationToken) -> Self {
        install_quiet_abort_hook();
        self.cancel = Some(token);
        self
    }

    /// Set a virtual-time deadline. The run aborts at the first clock tick
    /// at or past `deadline_ns`.
    pub(crate) fn with_deadline(mut self, deadline_ns: u64) -> Self {
        install_quiet_abort_hook();
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Attach a deterministic fault injector, consulted at every I/O charge
    /// and every successful GetNext. Injected hard faults unwind with a
    /// [`QueryFault`] payload (reported quietly, like aborts).
    pub fn with_fault(mut self, fault: &'a dyn FaultInjector) -> Self {
        install_quiet_abort_hook();
        self.fault = Some(fault);
        self
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns.get()
    }

    // ---- tracing --------------------------------------------------------

    /// Whether a sink is attached. Emission sites that must build an
    /// event (format strings, compare gauges) check this first so untraced
    /// runs skip the work entirely.
    pub(crate) fn trace_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit an event stamped `at_ns` (snapshot boundaries lag `now_ns`).
    fn emit_at(&self, at_ns: u64, node: Option<NodeId>, kind: EventKind) {
        if let Some(sink) = self.sink {
            sink.emit(TraceEvent {
                ts_ns: at_ns,
                node,
                kind,
            });
        }
    }

    /// Emit an event stamped with the current virtual time.
    fn emit(&self, node: Option<NodeId>, kind: EventKind) {
        self.emit_at(self.clock_ns.get(), node, kind);
    }

    /// Record an operator phase boundary (hash build → probe, sort
    /// blocking → emit, spool write → replay, ...).
    pub(crate) fn emit_phase(&self, node: NodeId, from: &str, to: &str) {
        if self.trace_enabled() {
            self.emit(
                Some(node),
                EventKind::PhaseTransition {
                    from: from.to_owned(),
                    to: to.to_owned(),
                },
            );
        }
    }

    /// Record a runtime bitmap finishing its build with `keys` distinct
    /// keys inserted.
    pub(crate) fn emit_bitmap_built(&self, node: NodeId, keys: u64) {
        if self.trace_enabled() {
            self.emit(Some(node), EventKind::BitmapBuilt { keys });
        }
    }

    /// Counters must never move backwards between snapshots — the
    /// estimator's refinement and the paper's monotone-progress analysis
    /// both assume it. Cheap enough to check at every snapshot in debug
    /// builds; compiled out in release.
    #[cfg(debug_assertions)]
    fn assert_counters_monotone(prev: &DmvSnapshot, cur: &[NodeCounters]) {
        for (i, (p, c)) in prev.nodes.iter().zip(cur).enumerate() {
            debug_assert!(
                p.rows_output <= c.rows_output,
                "node {i}: rows_output regressed {} -> {}",
                p.rows_output,
                c.rows_output
            );
            debug_assert!(
                p.logical_reads <= c.logical_reads,
                "node {i}: logical_reads regressed {} -> {}",
                p.logical_reads,
                c.logical_reads
            );
            debug_assert!(
                p.cpu_ns <= c.cpu_ns,
                "node {i}: cpu_ns regressed {} -> {}",
                p.cpu_ns,
                c.cpu_ns
            );
        }
    }

    /// Advance the clock and record any snapshot boundaries crossed.
    fn advance(&self, ns: u64) {
        let now = self.clock_ns.get() + ns;
        self.clock_ns.set(now);
        while self.next_snapshot_ns.get() <= now {
            let ts = self.next_snapshot_ns.get();
            {
                let nodes: Vec<NodeCounters> = self
                    .accounts
                    .borrow()
                    .iter()
                    .map(|a| a.counters.clone())
                    .collect();
                let mut snaps = self.snapshots.borrow_mut();
                #[cfg(debug_assertions)]
                if let Some(prev) = snaps.last() {
                    Self::assert_counters_monotone(prev, &nodes);
                }
                snaps.push(DmvSnapshot { ts_ns: ts, nodes });
                if let Some(publisher) = self.publisher {
                    publisher.publish(snaps.last().expect("just pushed"));
                }
                let seq = self.snapshot_seq.get();
                self.snapshot_seq.set(seq + 1);
                self.emit_at(ts, None, EventKind::SnapshotTick { index: seq });
                if snaps.len() > MAX_SNAPSHOTS {
                    // Thin: keep every other sample, double the interval.
                    let kept: Vec<DmvSnapshot> = snaps
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == 1)
                        .map(|(_, s)| s.clone())
                        .collect();
                    *snaps = kept;
                    self.snapshot_interval_ns
                        .set(self.snapshot_interval_ns.get() * 2);
                }
            }
            self.next_snapshot_ns
                .set(ts + self.snapshot_interval_ns.get());
        }
        // Abort checks come last: the snapshot trace up to the abort tick is
        // recorded (and published) before the unwind, so a cancelled session
        // still leaves an honest partial trace.
        if self
            .cancel
            .as_ref()
            .is_some_and(CancellationToken::is_cancelled)
        {
            std::panic::panic_any(QueryAborted {
                reason: AbortReason::Cancelled,
                at_ns: now,
            });
        }
        if self.deadline_ns.is_some_and(|d| now >= d) {
            std::panic::panic_any(QueryAborted {
                reason: AbortReason::DeadlineExceeded,
                at_ns: now,
            });
        }
    }

    /// Charge CPU time to a node: one [`BatchCharge::cpu`] charge in a
    /// span-less scope of its own. Charges are fractional; the
    /// sub-nanosecond remainder is carried per node (not truncated), so total
    /// charged time tracks the exact f64 sum to within 1 ns per node however
    /// the charges are sliced.
    pub(crate) fn charge_cpu(&self, node: NodeId, ns: f64) {
        self.scope(node, false).cpu(ns);
    }

    /// Charge logical page reads to a node: one [`BatchCharge::io`] charge
    /// in a span-less scope of its own, for reads issued outside an
    /// operator's charging loop (a seek's descent, a columnstore segment).
    ///
    /// # Panics
    /// Unwinds with a [`QueryFault`] payload when an attached
    /// [`FaultInjector`] fails the read.
    pub(crate) fn charge_io(&self, node: NodeId, pages: u64) {
        self.scope(node, false).io(pages);
    }

    /// Open a batched charging scope for `node`: CPU/I/O charges accumulate
    /// in locals (no `RefCell` traffic, no `advance` call per row) and are
    /// applied to the counters and the clock when a snapshot boundary or
    /// the deadline is crossed, when `finish` is called, or
    /// when the scope drops.
    ///
    /// The scope takes the node's fractional-carry state with it and
    /// returns it on flush, and it iterates the carry arithmetic per
    /// charge, so the whole-nanosecond sequence — and therefore the final
    /// clock, the snapshot cadence, and any deadline-abort tick — does not
    /// depend on how the charges are sliced into scopes (one per row at
    /// batch size 1, one per 1024 rows in production).
    ///
    /// The scope also carries deferred row counts
    /// ([`BatchCharge::rows_in`]/`rows_out`): they settle at
    /// every flush *before* the clock advances, so each snapshot observes
    /// the node's row counters in step with its charges — required by the
    /// progress estimator's cardinality bounds, which assume at most one
    /// in-flight consumed-but-unemitted row per operator.
    ///
    /// An attached [`FaultInjector`] is consulted from inside the scope, on
    /// every [`BatchCharge::io`] charge and every `rows_out`
    /// row, so faults fire at the same `(node, pages)` / `(node, k)` at any
    /// batch size.
    ///
    /// Contract: scopes are exclusive. While a scope is live, nothing else
    /// may move the clock — no second scope (for any node), and no
    /// `charge_cpu`/`charge_io` calls (which for the same node would
    /// also double-count the carry). Operators therefore pull their
    /// children *first* and open the scope only for the charging loop over
    /// rows already in hand. Exclusivity is what lets the scope cache its
    /// flush budget (`BatchCharge::flush_at`) instead of re-reading the
    /// clock and snapshot cells on every charge — the budget can only
    /// change at the scope's own flushes. Debug builds assert it.
    pub fn batch_charge(&self, node: NodeId) -> BatchCharge<'_, 'a> {
        self.scope(node, self.trace_enabled())
    }

    /// A scope for the one row a row-at-a-time operator (nested loops,
    /// merge join) has just pulled: its `rows_in`, its CPU and — through
    /// [`BatchCharge::finish_emitting`] — the row it may emit settle under
    /// one carry round-trip instead of three. It emits no span, exactly
    /// like the [`count_input`](ExecContext::count_input) /
    /// [`charge_cpu`](ExecContext::charge_cpu) /
    /// [`count_output`](ExecContext::count_output) sequence it stands for,
    /// and moves the counters and the clock in the same order.
    pub(crate) fn row_charge(&self, node: NodeId) -> BatchCharge<'_, 'a> {
        self.scope(node, false)
    }

    /// [`batch_charge`](ExecContext::batch_charge), choosing whether the
    /// scope emits [`EventKind::OperatorBatch`] spans. The context's own
    /// single-charge helpers pass `false`: they are not batches, and a span
    /// per seek rebind or per counted row would only inflate the trace.
    fn scope(&self, node: NodeId, spans: bool) -> BatchCharge<'_, 'a> {
        debug_assert_eq!(
            self.live_scopes.get(),
            0,
            "BatchCharge scopes must not nest"
        );
        self.live_scopes.set(self.live_scopes.get() + 1);
        let carry = std::mem::take(&mut self.accounts.borrow_mut()[node.0].cpu_carry);
        BatchCharge {
            ctx: self,
            node,
            carry,
            cpu_pending: 0,
            reads_pending: 0,
            rows_in_pending: 0,
            rows_out_pending: 0,
            clock_pending: 0,
            flush_at: self.flush_budget(),
            span_start_ns: spans.then(|| self.clock_ns.get()),
        }
    }

    /// Clock nanoseconds until the next snapshot boundary or the deadline,
    /// whichever comes first (0 when already at or past it).
    fn flush_budget(&self) -> u64 {
        self.next_snapshot_ns
            .get()
            .min(self.deadline_ns.unwrap_or(u64::MAX))
            .saturating_sub(self.clock_ns.get())
    }

    /// Record `n` rows consumed from children.
    pub(crate) fn count_input(&self, node: NodeId, n: u64) {
        self.accounts.borrow_mut()[node.0].counters.rows_input += n;
    }

    /// Record `n` rows output (`n` successful GetNexts — `kᵢ += n`): one
    /// [`BatchCharge::rows_out`] in a span-less scope of its own, for rows
    /// counted after the operator's charging scope has settled.
    ///
    /// # Panics
    /// Unwinds with a [`QueryFault`] payload when an attached
    /// [`FaultInjector`] panics the operator at one of these GetNext counts.
    pub(crate) fn count_output(&self, node: NodeId, n: u64) {
        if n > 0 {
            self.scope(node, false).rows_out(n);
        }
    }

    /// Record one columnstore segment fully processed.
    pub(crate) fn count_segment(&self, node: NodeId) {
        self.accounts.borrow_mut()[node.0]
            .counters
            .segments_processed += 1;
    }

    /// Update the buffered-rows gauge for a semi-blocking operator. When
    /// tracing, a rise past the node's previous maximum emits a
    /// [`EventKind::BufferHighWater`] event.
    pub(crate) fn set_buffered(&self, node: NodeId, buffered: u64) {
        self.accounts.borrow_mut()[node.0].counters.rows_buffered = buffered;
        if self.trace_enabled() {
            let rose = {
                let mut hw = self.buffered_hw.borrow_mut();
                if buffered > hw[node.0] {
                    hw[node.0] = buffered;
                    true
                } else {
                    false
                }
            };
            if rose {
                self.emit(Some(node), EventKind::BufferHighWater { rows: buffered });
            }
        }
    }

    /// Record outer rows fully processed by a buffering nested-loops join.
    pub(crate) fn count_processed(&self, node: NodeId, n: u64) {
        self.accounts.borrow_mut()[node.0].counters.rows_processed += n;
    }

    /// Mark `Open()`: records the open time on first execution and
    /// increments the execution count.
    pub(crate) fn mark_open(&self, node: NodeId) {
        {
            let mut accounts = self.accounts.borrow_mut();
            let c = &mut accounts[node.0].counters;
            if c.open_ns.is_none() {
                c.open_ns = Some(self.clock_ns.get());
            }
            // A rewind re-activates the operator: it is no longer closed (the
            // close time is re-stamped when it next exhausts).
            c.close_ns = None;
            c.executions += 1;
        }
        self.emit(Some(node), EventKind::OperatorOpen);
    }

    /// Mark `Close()` (idempotent; keeps the first close time, which is when
    /// the operator actually finished producing rows).
    pub(crate) fn mark_close(&self, node: NodeId) {
        let stamped = {
            let mut accounts = self.accounts.borrow_mut();
            let c = &mut accounts[node.0].counters;
            if c.close_ns.is_none() {
                c.close_ns = Some(self.clock_ns.get());
                true
            } else {
                false
            }
        };
        if stamped {
            self.emit(Some(node), EventKind::OperatorClose);
        }
    }

    /// Read a copy of a node's counters (test/inspection helper).
    pub fn counters_of(&self, node: NodeId) -> NodeCounters {
        self.accounts.borrow()[node.0].counters.clone()
    }

    /// Read a copy of a node's attributed self-time (test/inspection helper).
    pub fn elapsed_of(&self, node: NodeId) -> u64 {
        self.accounts.borrow()[node.0].elapsed_ns
    }

    /// Consume the context, returning (snapshots, final counters, per-node
    /// attributed self-time, end time). Every clock advance (CPU, I/O,
    /// injected stall) is credited to exactly one node, so the self-times
    /// sum exactly to the end time — even for aborted runs.
    pub fn into_results(self) -> (Vec<DmvSnapshot>, Vec<NodeCounters>, Vec<u64>, u64) {
        let end = self.clock_ns.get();
        let (counters, elapsed) = self
            .accounts
            .into_inner()
            .into_iter()
            .map(|a| (a.counters, a.elapsed_ns))
            .unzip();
        (self.snapshots.into_inner(), counters, elapsed, end)
    }

    // ---- bitmaps --------------------------------------------------------

    /// Insert a key into a bitmap, creating it (sized for `capacity_hint`
    /// keys) on first insert. Used by hash-join builds and Bitmap Create
    /// operators as rows stream through.
    pub(crate) fn bitmap_insert<'k>(
        &self,
        id: BitmapId,
        key: impl IntoIterator<Item = &'k Value> + Clone,
        capacity_hint: usize,
    ) {
        let mut bitmaps = self.bitmaps.borrow_mut();
        let slot = &mut bitmaps[id.0];
        if slot.is_none() {
            *slot = Some(BloomFilter::with_capacity(capacity_hint));
        }
        slot.as_mut().expect("just initialized").insert(key);
    }

    /// Probe a bitmap. Returns `true` (pass) when the bitmap has not been
    /// built yet — a scan running before its hash join's build phase sees no
    /// reduction.
    pub(crate) fn bitmap_may_contain<'k>(
        &self,
        id: BitmapId,
        key: impl IntoIterator<Item = &'k Value> + Clone,
    ) -> bool {
        match &self.bitmaps.borrow()[id.0] {
            Some(f) => f.may_contain(key),
            None => true,
        }
    }

    // ---- correlation ----------------------------------------------------

    /// Push the current outer row before opening/rewinding an inner subtree.
    pub(crate) fn push_outer(&self, row: Row) {
        self.outer_rows.borrow_mut().push(row);
    }

    /// Pop the outer row after the inner subtree finishes.
    pub(crate) fn pop_outer(&self) {
        self.outer_rows.borrow_mut().pop();
    }

    /// Run `f` on the innermost outer row, for resolving
    /// `SeekKey::OuterRef`. The row is lent, not cloned: a correlated seek
    /// reads one or two values out of it per rebind.
    ///
    /// # Panics
    /// Panics if no nested-loops join is currently driving an inner subtree
    /// — a correlated seek outside a join is a plan bug.
    pub(crate) fn with_outer<R>(&self, f: impl FnOnce(&[Value]) -> R) -> R {
        let outer_rows = self.outer_rows.borrow();
        f(outer_rows
            .last()
            .expect("correlated seek executed outside a nested-loops inner subtree"))
    }
}

/// A batched charging scope (see [`ExecContext::batch_charge`]).
///
/// Charges accumulate in plain locals and are flushed — written to the
/// node's counters and applied to the virtual clock in one `advance` —
/// only when a snapshot boundary or the deadline would be crossed, on
/// `finish`, or on drop. Because the fractional
/// carry is iterated per charge, every flush leaves the clock, counters,
/// and carry exactly where one scope per charge would have left them.
pub struct BatchCharge<'s, 'a> {
    ctx: &'s ExecContext<'a>,
    node: NodeId,
    /// The node's fractional carry, held locally while the scope is live
    /// (taken from the account in `batch_charge`, written back on flush).
    carry: f64,
    /// Whole CPU nanoseconds charged but not yet in the counters.
    cpu_pending: u64,
    /// Logical reads charged but not yet in the counters.
    reads_pending: u64,
    /// Rows consumed but not yet in the counters.
    rows_in_pending: u64,
    /// Rows output but not yet in the counters.
    rows_out_pending: u64,
    /// Clock nanoseconds (CPU, I/O, injected stalls) not yet applied via
    /// `advance`.
    clock_pending: u64,
    /// Pending clock nanoseconds at which the next snapshot boundary (or
    /// the deadline) is crossed. Cached at scope creation and refreshed at
    /// every flush; exact because scopes are exclusive (see
    /// [`ExecContext::batch_charge`]) — nothing else moves the clock while
    /// one is live. Turns the per-charge due-check into one integer
    /// compare on the hot path.
    flush_at: u64,
    /// Virtual time at which the current trace span began: the clock at
    /// scope open, reset after every flush. Traced runs emit one
    /// [`EventKind::OperatorBatch`] span per flush instead of per-row
    /// events — timestamps are coarsened to flush boundaries, counters are
    /// not. `None` for a scope that emits no spans (untraced run, or one of
    /// the context's single-charge helpers).
    span_start_ns: Option<u64>,
}

impl BatchCharge<'_, '_> {
    /// Charge fractional CPU nanoseconds (same semantics as
    /// `ExecContext::charge_cpu`).
    #[inline]
    pub fn cpu(&mut self, ns: f64) {
        let total = self.carry + ns.max(0.0);
        let whole = total as u64;
        self.carry = total - whole as f64;
        debug_assert!(
            (0.0..1.0).contains(&self.carry),
            "node {}: cpu carry {} left [0,1)",
            self.node.0,
            self.carry
        );
        self.cpu_pending += whole;
        self.clock_pending += whole;
        if whole > 0 && self.due() {
            self.flush();
        }
    }

    /// Charge logical page reads: `pages × io_page_ns`, truncated per call,
    /// plus whatever slow-page penalty an attached [`FaultInjector`] adds.
    ///
    /// # Panics
    /// Unwinds with a [`QueryFault`] payload when the injector fails the
    /// read. The scope is flushed first, so the clock, the counters and the
    /// node's self-time all carry the failed read: the pages were
    /// requested, the time was spent.
    #[inline]
    pub fn io(&mut self, pages: u64) {
        if pages == 0 {
            return;
        }
        self.reads_pending += pages;
        let mut io_ns = (pages as f64 * self.ctx.cost.io_page_ns) as u64;
        if let Some(fault) = self.ctx.fault {
            let settled = self.ctx.accounts.borrow()[self.node.0]
                .counters
                .logical_reads;
            let total = settled + self.reads_pending;
            match fault.on_io(self.node, total, self.now_ns()) {
                IoVerdict::Ok => {}
                IoVerdict::Slow { extra_ns } => io_ns = io_ns.saturating_add(extra_ns),
                IoVerdict::Error { message, transient } => {
                    self.clock_pending += io_ns;
                    self.raise(message, transient);
                }
            }
        }
        self.clock_pending += io_ns;
        if io_ns > 0 && self.due() {
            self.flush();
        }
    }

    /// Record rows consumed from children (deferred
    /// `ExecContext::count_input`). Pending counts settle into the
    /// counters at every flush *before* the clock advances, so any snapshot
    /// the flush records already sees them — the row counters stay in step
    /// with the charges at every observable instant, which the §4.2 bounds
    /// rely on (at most one consumed-but-unemitted row per operator).
    #[inline]
    pub fn rows_in(&mut self, n: u64) {
        self.rows_in_pending += n;
    }

    /// Record rows output (same settle-before-advance visibility as
    /// [`rows_in`](BatchCharge::rows_in)). `first_row_ns` is stamped at the
    /// settling flush, not at the exact per-row clock, so it is the one
    /// counter that depends on the batch size.
    ///
    /// An attached [`FaultInjector`] sees every row: `on_get_next` is
    /// visited once per row with the node's cumulative `k`. A stall is pure
    /// elapsed time — pending clock the next flush credits to this node,
    /// with no counter moving.
    ///
    /// # Panics
    /// Unwinds with a [`QueryFault`] payload (after flushing, with the
    /// faulting row counted) when the injector panics the operator.
    #[inline]
    pub(crate) fn rows_out(&mut self, n: u64) {
        let Some(fault) = self.ctx.fault else {
            self.rows_out_pending += n;
            return;
        };
        for _ in 0..n {
            self.rows_out_pending += 1;
            // Re-read per row: a stall's flush settles the pending rows.
            let settled = self.ctx.accounts.borrow()[self.node.0].counters.rows_output;
            let k = settled + self.rows_out_pending;
            match fault.on_get_next(self.node, k, self.now_ns()) {
                None => {}
                Some(GetNextFault::Stall { ns }) => {
                    self.clock_pending += ns;
                    if ns > 0 && self.due() {
                        self.flush();
                    }
                }
                Some(GetNextFault::Panic { message, transient }) => self.raise(message, transient),
            }
        }
    }

    /// The virtual clock as this scope sees it: flushed plus pending.
    fn now_ns(&self) -> u64 {
        self.ctx.clock_ns.get() + self.clock_pending
    }

    /// Flush — counters, then clock — and unwind with a [`QueryFault`]
    /// stamped at the flushed clock. [`Drop`] skips the clock while
    /// unwinding, so anything still pending here would be lost.
    fn raise(&mut self, message: String, transient: bool) -> ! {
        self.flush();
        std::panic::panic_any(QueryFault {
            node: self.node,
            message,
            transient,
            at_ns: self.ctx.clock_ns.get(),
        })
    }

    /// Would applying the pending clock time cross the next snapshot
    /// boundary or the deadline? Compares against the cached
    /// [`flush_at`](BatchCharge::flush_at) budget — exclusive scopes mean
    /// the live cells cannot have changed since it was computed.
    #[inline]
    fn due(&self) -> bool {
        self.clock_pending >= self.flush_at
    }

    /// Write everything pending back to the account under one borrow: the
    /// counters (charges *and* row counts), `clock_ns` nanoseconds of
    /// self-time about to be applied to the clock, and — when the scope is
    /// `ending` — the carry. The caller advances the clock *afterwards*, so
    /// a snapshot (or abort unwind) triggered by the advance observes all of
    /// it.
    fn settle(&mut self, clock_ns: u64, ending: bool) {
        let counted = self.cpu_pending > 0
            || self.reads_pending > 0
            || self.rows_in_pending > 0
            || self.rows_out_pending > 0;
        if !(counted || clock_ns > 0 || ending) {
            return;
        }
        let first = {
            let mut accounts = self.ctx.accounts.borrow_mut();
            let a = &mut accounts[self.node.0];
            a.counters.cpu_ns += self.cpu_pending;
            a.counters.logical_reads += self.reads_pending;
            a.counters.rows_input += self.rows_in_pending;
            a.counters.rows_output += self.rows_out_pending;
            a.elapsed_ns += clock_ns;
            if ending {
                a.cpu_carry = self.carry;
            }
            let first = self.rows_out_pending > 0 && a.counters.first_row_ns.is_none();
            if first {
                a.counters.first_row_ns = Some(self.ctx.clock_ns.get());
            }
            first
        };
        self.cpu_pending = 0;
        self.reads_pending = 0;
        self.rows_in_pending = 0;
        self.rows_out_pending = 0;
        if first {
            self.ctx.emit(Some(self.node), EventKind::OperatorFirstRow);
        }
    }

    /// Close the current trace span: emit one [`EventKind::OperatorBatch`]
    /// covering everything since the previous flush (or scope open) and
    /// start the next span at the current clock. `rows_in`/`rows_out` are
    /// the counts settled by this flush, `advanced` the clock nanoseconds
    /// it applied; all-zero flushes emit nothing.
    fn emit_span(&mut self, rows_in: u64, rows_out: u64, advanced: u64) {
        let Some(start) = self.span_start_ns else {
            return;
        };
        self.span_start_ns = Some(self.ctx.clock_ns.get());
        if advanced > 0 || rows_in > 0 || rows_out > 0 {
            self.ctx.emit(
                Some(self.node),
                EventKind::OperatorBatch {
                    start_ns: start,
                    rows_in,
                    rows_out,
                },
            );
        }
    }

    fn flush(&mut self) {
        let (rows_in, rows_out) = (self.rows_in_pending, self.rows_out_pending);
        let pending = std::mem::take(&mut self.clock_pending);
        self.settle(pending, false);
        if pending > 0 {
            self.ctx.advance(pending);
        }
        // The advance may have recorded snapshots (moving the boundary)
        // and has moved the clock: recompute the budget.
        self.flush_at = self.ctx.flush_budget();
        self.emit_span(rows_in, rows_out, pending);
    }

    /// Flush and consume the scope. Equivalent to dropping it, spelled out
    /// so call sites show where the batch settles.
    pub(crate) fn finish(self) {}

    /// `finish`, then count `n` rows output at the
    /// settled clock: a producer's rows become visible (and `first_row_ns`
    /// is stamped) only once every charge for them has been applied. The
    /// count is not part of the span the flush closed.
    pub(crate) fn finish_emitting(mut self, n: u64) {
        self.flush();
        self.span_start_ns = None;
        self.rows_out(n);
    }
}

impl Drop for BatchCharge<'_, '_> {
    fn drop(&mut self) {
        // Both the normal path (`finish`/end of scope) and the unwind path
        // (abort raised by a flush inside `cpu`/`io`, an injected fault that
        // `raise` already flushed for, or a plain panic) land here: settle
        // pending counters and the carry first, then — only when not
        // unwinding — apply the pending clock time.
        // Advancing during an unwind could re-raise the abort and turn it
        // into a double panic; skipping it loses at most the clock slice
        // of an already-aborted run's final partial state.
        let (rows_in, rows_out) = (self.rows_in_pending, self.rows_out_pending);
        let unwinding = std::thread::panicking();
        let pending = if unwinding {
            0
        } else {
            std::mem::take(&mut self.clock_pending)
        };
        self.settle(pending, true);
        self.ctx.live_scopes.set(self.ctx.live_scopes.get() - 1);
        if !unwinding {
            if pending > 0 {
                self.ctx.advance(pending);
            }
            self.emit_span(rows_in, rows_out, pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_storage::Database;

    fn ctx(db: &Database) -> ExecContext<'_> {
        ExecContext::new(db, 3, 1, 1000, CostModel::default())
    }

    #[test]
    fn clock_and_snapshots() {
        let db = Database::new();
        let c = ctx(&db);
        c.charge_cpu(NodeId(0), 2500.0);
        // Crossed boundaries at 1000 and 2000.
        let (snaps, counters, elapsed, end) = c.into_results();
        assert_eq!(elapsed.iter().sum::<u64>(), end);
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].ts_ns, 1000);
        assert_eq!(snaps[1].ts_ns, 2000);
        assert_eq!(end, 2500);
        assert_eq!(counters[0].cpu_ns, 2500);
    }

    #[test]
    fn io_charging_advances_clock() {
        let db = Database::new();
        let c = ctx(&db);
        c.charge_io(NodeId(1), 2);
        assert_eq!(c.counters_of(NodeId(1)).logical_reads, 2);
        assert_eq!(c.now_ns(), (2.0 * CostModel::default().io_page_ns) as u64);
    }

    #[test]
    fn output_counting_sets_first_row_time() {
        let db = Database::new();
        let c = ctx(&db);
        c.charge_cpu(NodeId(0), 500.0);
        c.count_output(NodeId(0), 1);
        c.count_output(NodeId(0), 1);
        let counters = c.counters_of(NodeId(0));
        assert_eq!(counters.rows_output, 2);
        assert_eq!(counters.first_row_ns, Some(500));
    }

    #[test]
    fn snapshot_thinning_bounds_memory() {
        let db = Database::new();
        let c = ctx(&db);
        // Cross 3x MAX boundaries.
        for _ in 0..(MAX_SNAPSHOTS * 3) {
            c.charge_cpu(NodeId(0), 1000.0);
        }
        let (snaps, _, _, _) = c.into_results();
        assert!(snaps.len() <= MAX_SNAPSHOTS);
        assert!(snaps.len() > MAX_SNAPSHOTS / 4);
        // Still ordered.
        for w in snaps.windows(2) {
            assert!(w[0].ts_ns < w[1].ts_ns);
        }
    }

    #[test]
    fn fractional_charges_do_not_drift() {
        // Regression: `ns.max(0.0) as u64` truncated every charge, so
        // 10_000 batch-mode charges of 7.5 ns lost 5 µs of virtual time.
        let db = Database::new();
        let c = ctx(&db);
        let mut exact = 0.0f64;
        for i in 0..10_000u64 {
            // Mix of awkward fractions, all sub-integer on their own.
            let ns = match i % 3 {
                0 => 7.5,
                1 => 0.3,
                _ => 25.0 * 0.3,
            };
            exact += ns;
            c.charge_cpu(NodeId(0), ns);
        }
        let counters = c.counters_of(NodeId(0));
        assert!(
            (counters.cpu_ns as f64 - exact).abs() <= 1.0,
            "charged {} vs exact {exact}",
            counters.cpu_ns
        );
        assert!((c.now_ns() as f64 - exact).abs() <= 1.0);
    }

    #[test]
    fn fractional_carry_is_per_node() {
        let db = Database::new();
        let c = ctx(&db);
        for _ in 0..1000 {
            c.charge_cpu(NodeId(0), 0.5);
            c.charge_cpu(NodeId(1), 0.25);
        }
        assert!((c.counters_of(NodeId(0)).cpu_ns as f64 - 500.0).abs() <= 1.0);
        assert!((c.counters_of(NodeId(1)).cpu_ns as f64 - 250.0).abs() <= 1.0);
    }

    #[test]
    fn cancellation_aborts_at_next_tick() {
        let db = Database::new();
        let token = CancellationToken::new();
        let c = ctx(&db).with_cancellation(token.clone());
        c.charge_cpu(NodeId(0), 100.0); // fine while un-cancelled
        token.cancel();
        let err = catch_query_abort(|| {
            c.charge_cpu(NodeId(0), 50.0);
        })
        .expect_err("cancelled run must abort");
        let aborted = err
            .downcast::<QueryAborted>()
            .expect("QueryAborted payload");
        assert_eq!(aborted.reason, AbortReason::Cancelled);
        assert_eq!(aborted.at_ns, 150);
    }

    #[test]
    fn deadline_aborts_when_clock_reaches_it() {
        let db = Database::new();
        let c = ctx(&db).with_deadline(250);
        c.charge_cpu(NodeId(0), 200.0);
        let err = catch_query_abort(|| {
            c.charge_cpu(NodeId(0), 100.0);
        })
        .expect_err("deadline must abort the run");
        let aborted = err
            .downcast::<QueryAborted>()
            .expect("QueryAborted payload");
        assert_eq!(aborted.reason, AbortReason::DeadlineExceeded);
        assert_eq!(aborted.at_ns, 300);
    }

    #[test]
    fn abort_catch_depth_balances_across_unwinds() {
        let depth = || ABORT_CATCH_DEPTH.with(std::cell::Cell::get);
        assert_eq!(depth(), 0);
        let _ = catch_query_abort(|| {
            assert_eq!(depth(), 1);
            // An unwind out of a nested frame must still restore the count.
            let _ = catch_query_abort(|| {
                std::panic::panic_any(QueryAborted {
                    reason: AbortReason::Cancelled,
                    at_ns: 0,
                });
            });
            assert_eq!(depth(), 1);
        });
        assert_eq!(depth(), 0);
    }

    #[test]
    fn publisher_sees_every_snapshot() {
        use std::sync::Mutex;
        struct Capture(Mutex<Vec<u64>>);
        impl SnapshotPublisher for Capture {
            fn publish(&self, snapshot: &DmvSnapshot) {
                self.0.lock().unwrap().push(snapshot.ts_ns);
            }
        }
        let db = Database::new();
        let capture = Capture(Mutex::new(Vec::new()));
        let c = ctx(&db).with_publisher(&capture);
        c.charge_cpu(NodeId(0), 3500.0);
        let (snaps, _, _, _) = c.into_results();
        let published = capture.0.into_inner().unwrap();
        assert_eq!(published, vec![1000, 2000, 3000]);
        assert_eq!(snaps.len(), published.len());
    }

    #[test]
    fn elapsed_attribution_sums_to_clock() {
        let db = Database::new();
        let c = ctx(&db);
        c.charge_cpu(NodeId(0), 1234.5);
        c.charge_io(NodeId(1), 3);
        let mut scope = c.batch_charge(NodeId(2));
        for _ in 0..100 {
            scope.cpu(7.5);
        }
        scope.io(1);
        scope.finish();
        let (_, _, elapsed, end) = c.into_results();
        assert_eq!(elapsed.iter().sum::<u64>(), end);
        assert_eq!(elapsed[0], 1234);
        assert!(elapsed[1] > 0 && elapsed[2] > 0);
    }

    #[test]
    fn elapsed_attribution_survives_abort() {
        let db = Database::new();
        let c = ctx(&db).with_deadline(2_000);
        c.charge_cpu(NodeId(0), 500.0);
        let err = catch_query_abort(|| {
            c.charge_cpu(NodeId(1), 5_000.0);
        })
        .expect_err("deadline must abort");
        err.downcast::<QueryAborted>()
            .expect("QueryAborted payload");
        // The aborting advance fully moved the clock before unwinding, and
        // its nanoseconds were credited to node 1 first: the invariant
        // holds even on the abort tick.
        assert_eq!(c.elapsed_of(NodeId(0)) + c.elapsed_of(NodeId(1)), 5_500);
    }

    #[test]
    fn unbuilt_bitmap_passes_everything() {
        let db = Database::new();
        let c = ctx(&db);
        assert!(c.bitmap_may_contain(lqs_plan::BitmapId(0), &[Value::Int(7)]));
        c.bitmap_insert(lqs_plan::BitmapId(0), &[Value::Int(1)], 10);
        assert!(c.bitmap_may_contain(lqs_plan::BitmapId(0), &[Value::Int(1)]));
        assert!(!c.bitmap_may_contain(lqs_plan::BitmapId(0), &[Value::Int(2)]));
    }

    #[test]
    fn open_close_and_executions() {
        let db = Database::new();
        let c = ctx(&db);
        c.mark_open(NodeId(2));
        c.charge_cpu(NodeId(2), 100.0);
        c.mark_open(NodeId(2)); // rewind
        c.mark_close(NodeId(2));
        let counters = c.counters_of(NodeId(2));
        assert_eq!(counters.executions, 2);
        assert_eq!(counters.open_ns, Some(0));
        assert_eq!(counters.close_ns, Some(100));
    }
}
