//! Top-level query execution: builds the operator tree, drives it to
//! completion on the virtual clock, and returns the DMV snapshot trace.

use crate::context::{
    AbortReason, CancellationToken, ExecContext, QueryAborted, SnapshotPublisher,
};
use crate::ops::build_operator;
use crate::trace::RingBufferSink;
use lqs_plan::{CostModel, DmvSnapshot, NodeCounters, PhysicalOp, PhysicalPlan, QueryRun};
use lqs_storage::Database;

/// How many rows the root operator is asked for per `next_batch` call.
/// Both values drive the same operator code; the only counter that depends
/// on the choice is `first_row_ns`, stamped when a charging scope settles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// One row per call (`limit = 1`), whatever `batch_size` says: the
    /// root and every pipelined operator under it run row-at-a-time.
    Tuple,
    /// `batch_size` rows per call — production.
    #[default]
    Batch,
}

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Desired number of DMV snapshots over the query's lifetime. The
    /// sampling interval is derived from the plan's estimated cost; the
    /// trace self-thins if the query runs much longer than estimated.
    pub snapshot_target: usize,
    /// Explicit sampling interval (overrides `snapshot_target` if set).
    pub snapshot_interval_ns: Option<u64>,
    /// Cost/charging constants.
    pub cost_model: CostModel,
    /// Row-at-a-time or `batch_size` rows per root call (see [`ExecMode`]).
    pub mode: ExecMode,
    /// Rows per root `next_batch` call in [`ExecMode::Batch`] (clamped to
    /// ≥ 1).
    pub batch_size: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            snapshot_target: 192,
            snapshot_interval_ns: None,
            cost_model: CostModel::default(),
            mode: ExecMode::Batch,
            batch_size: 1024,
        }
    }
}

/// Optional per-run hooks: live snapshot publishing, cooperative
/// cancellation, and a virtual-time deadline. All default to off;
/// [`execute`]/[`execute_traced`] run with no hooks.
#[derive(Default, Clone, Copy)]
pub struct ExecHooks<'a> {
    /// Trace event sink (same role as in [`execute_traced`]).
    pub sink: Option<&'a RingBufferSink>,
    /// Receives every DMV snapshot as it is recorded.
    pub publisher: Option<&'a dyn SnapshotPublisher>,
    /// Cancelling this token aborts the run at its next clock tick.
    pub cancel: Option<&'a CancellationToken>,
    /// Virtual-time budget; the run aborts once the clock reaches it.
    pub deadline_ns: Option<u64>,
    /// Records the run's final counters into metric families at close time.
    /// Aborted runs record nothing (their counters are not totals).
    /// Optional on purpose, unlike the server's handles: the bare engine is
    /// a real caller (the ledger's `bare_real3` runs without it,
    /// `steady_real3` with it).
    pub metrics: Option<&'a crate::metrics::ExecMetrics>,
    /// Deterministic fault oracle consulted on every I/O charge and every
    /// output row, from inside the charging scopes — so a fault-injected
    /// run executes the same code, at the same batch size, as a clean one.
    /// Injected hard failures unwind with a
    /// [`crate::fault::QueryFault`] payload, which [`execute_hooked`]
    /// re-raises for the caller to catch (it is *not* an abort).
    pub fault: Option<&'a dyn crate::fault::FaultInjector>,
}

/// A run stopped early by cancellation or deadline. The partial trace up to
/// the abort tick is preserved — counters are honest, just incomplete.
#[derive(Debug, Clone)]
pub struct AbortedQuery {
    /// Why the run stopped.
    pub reason: AbortReason,
    /// Virtual time at which the abort was observed.
    pub at_ns: u64,
    /// Snapshots recorded before the abort.
    pub snapshots: Vec<DmvSnapshot>,
    /// Counter state at the abort (not final — the query did not finish).
    pub partial_counters: Vec<NodeCounters>,
}

/// Total estimated virtual duration of a plan (CPU + I/O, serial).
pub fn estimated_duration_ns(plan: &PhysicalPlan, cost: &CostModel) -> f64 {
    plan.nodes()
        .iter()
        .map(|n| n.est_cpu_ns + n.est_io_pages * cost.io_page_ns)
        .sum()
}

/// Count of bitmaps referenced anywhere in a plan.
fn bitmap_count(plan: &PhysicalPlan) -> usize {
    let mut max_id = 0usize;
    let mut any = false;
    for n in plan.nodes() {
        let ids: Vec<usize> = match &n.op {
            PhysicalOp::HashJoin {
                bitmap: Some(b), ..
            } => vec![b.0],
            PhysicalOp::BitmapCreate { bitmap, .. } => vec![bitmap.0],
            PhysicalOp::TableScan {
                bitmap_probe: Some(bp),
                ..
            }
            | PhysicalOp::IndexScan {
                bitmap_probe: Some(bp),
                ..
            }
            | PhysicalOp::ColumnstoreScan {
                bitmap_probe: Some(bp),
                ..
            } => vec![bp.bitmap.0],
            _ => vec![],
        };
        for id in ids {
            any = true;
            max_id = max_id.max(id);
        }
    }
    if any {
        max_id + 1
    } else {
        0
    }
}

/// Display names for each plan node, indexed by `NodeId` — the label table
/// the trace exporters and live view take alongside events.
pub fn plan_node_names(plan: &PhysicalPlan) -> Vec<String> {
    plan.nodes()
        .iter()
        .map(|n| n.op.display_name().to_owned())
        .collect()
}

/// Execute `plan` against `db`, returning the DMV trace and ground truth.
pub fn execute(db: &Database, plan: &PhysicalPlan, opts: &ExecOptions) -> QueryRun {
    execute_inner(db, plan, opts, ExecHooks::default())
        .expect("run without cancel/deadline hooks cannot abort")
}

/// [`execute`], with every engine event (operator lifecycle, phase
/// transitions, buffer high-water marks, bitmap builds, snapshot ticks)
/// emitted into `sink` as it happens on the virtual clock.
pub fn execute_traced(
    db: &Database,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    sink: &RingBufferSink,
) -> QueryRun {
    execute_inner(
        db,
        plan,
        opts,
        ExecHooks {
            sink: Some(sink),
            ..ExecHooks::default()
        },
    )
    .expect("run without cancel/deadline hooks cannot abort")
}

/// [`execute`] with the full hook set: live snapshot publishing,
/// cancellation, and a virtual-time deadline. An aborted run returns
/// [`AbortedQuery`] carrying the partial trace.
pub fn execute_hooked(
    db: &Database,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    hooks: ExecHooks<'_>,
) -> Result<QueryRun, AbortedQuery> {
    execute_inner(db, plan, opts, hooks)
}

fn execute_inner(
    db: &Database,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    hooks: ExecHooks<'_>,
) -> Result<QueryRun, AbortedQuery> {
    let interval = opts.snapshot_interval_ns.unwrap_or_else(|| {
        let est = estimated_duration_ns(plan, &opts.cost_model);
        ((est / opts.snapshot_target.max(1) as f64) as u64).max(1)
    });
    let mut ctx = ExecContext::new(
        db,
        plan.len(),
        bitmap_count(plan),
        interval,
        opts.cost_model.clone(),
    );
    if let Some(sink) = hooks.sink {
        ctx = ctx.with_sink(sink);
    }
    if let Some(publisher) = hooks.publisher {
        ctx = ctx.with_publisher(publisher);
    }
    if let Some(token) = hooks.cancel {
        ctx = ctx.with_cancellation(token.clone());
    }
    if let Some(deadline) = hooks.deadline_ns {
        ctx = ctx.with_deadline(deadline);
    }
    if let Some(fault) = hooks.fault {
        ctx = ctx.with_fault(fault);
    }
    let limit = match opts.mode {
        ExecMode::Tuple => 1,
        ExecMode::Batch => opts.batch_size.max(1),
    };
    // The abort path unwinds out of the operator tree with a `QueryAborted`
    // payload; catching it here (and only it) turns the unwind into a
    // structured error while leaving real panics fatal. The context lives
    // outside the catch, so the partial trace survives the unwind.
    let drive = crate::context::catch_query_abort(|| {
        let mut root = build_operator(plan, db, plan.root());
        root.open(&ctx);
        let mut rows_returned = 0u64;
        let mut batch = crate::ops::RowBatch::with_capacity(limit);
        while root.next_batch(&ctx, &mut batch, limit) {
            rows_returned += batch.len() as u64;
            batch.clear();
        }
        root.close(&ctx);
        rows_returned
    });
    match drive {
        Ok(rows_returned) => {
            let (snapshots, final_counters, node_elapsed_ns, duration_ns) = ctx.into_results();
            let run = QueryRun {
                snapshots,
                final_counters,
                duration_ns,
                rows_returned,
                cost_model: opts.cost_model.clone(),
                node_elapsed_ns,
            };
            if let Some(metrics) = hooks.metrics {
                metrics.record_run(plan, &run);
            }
            Ok(run)
        }
        Err(payload) => match payload.downcast::<QueryAborted>() {
            Ok(aborted) => {
                let (snapshots, partial_counters, _, _) = ctx.into_results();
                Err(AbortedQuery {
                    reason: aborted.reason,
                    at_ns: aborted.at_ns,
                    snapshots,
                    partial_counters,
                })
            }
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_plan::{Expr, PlanBuilder, SortKey};
    use lqs_storage::{Column, DataType, Schema, Table, Value};

    fn db() -> (Database, lqs_storage::TableId) {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        );
        for i in 0..5000 {
            t.insert(vec![Value::Int(i), Value::Int(i % 100)]).unwrap();
        }
        let mut db = Database::new();
        let id = db.add_table_analyzed(t);
        (db, id)
    }

    #[test]
    fn scan_sort_end_to_end() {
        let (db, t) = db();
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(50i64)), true);
        let sort = b.sort(scan, vec![SortKey::desc(0)]);
        let plan = b.finish(sort);
        let run = execute(&db, &plan, &ExecOptions::default());

        assert_eq!(run.rows_returned, 2500);
        assert_eq!(run.true_n(scan.0), 2500.0);
        assert_eq!(run.true_n(sort.0 as usize), 2500.0);
        assert!(run.duration_ns > 0);
        // Snapshots recorded across the run, roughly on target.
        assert!(run.snapshots.len() > 20, "got {}", run.snapshots.len());
        // Monotone counters across snapshots.
        for w in run.snapshots.windows(2) {
            for i in 0..plan.len() {
                assert!(w[0].nodes[i].rows_output <= w[1].nodes[i].rows_output);
                assert!(w[0].nodes[i].logical_reads <= w[1].nodes[i].logical_reads);
            }
        }
        // The scan charged one read per page.
        assert_eq!(
            run.final_counters[scan.0].logical_reads,
            db.table(t).page_count() as u64
        );
    }

    #[test]
    fn true_progress_is_monotone_and_bounded() {
        let (db, t) = db();
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(t);
        let agg = b.hash_aggregate(
            scan,
            vec![1],
            vec![lqs_plan::Aggregate::of_col(lqs_plan::AggFunc::Sum, 0)],
        );
        let plan = b.finish(agg);
        let run = execute(&db, &plan, &ExecOptions::default());
        assert_eq!(run.rows_returned, 100);
        let mut prev = 0.0;
        for s in &run.snapshots {
            let p = run.true_query_progress(s);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev);
            prev = p;
        }
    }
}
