//! Static per-node facts the estimator precomputes from the plan and
//! catalog metadata. Everything here is available to a real client before
//! the query produces a single row: showplan shape, optimizer estimates,
//! table/index sizes and `sys.column_store_segments` totals.

use lqs_plan::{NodeId, PhysicalOp, PhysicalPlan, PipelineSet};
use lqs_storage::Database;

/// Whether an index seek is a full-key equality probe of a unique index —
/// at most one row per execution.
fn unique_point_seek(
    db: &Database,
    index: lqs_storage::IndexId,
    seek: &lqs_plan::SeekRange,
) -> bool {
    let ix = db.btree(index);
    ix.is_unique()
        && seek.lo.is_none()
        && seek.hi.is_none()
        && seek.eq_keys.len() == ix.key_columns().len()
}

/// Operator classification used by the bounding logic (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BoundKind {
    /// Joins: `(outer_child, inner_child)` as arena indices into children.
    Join {
        /// Index of the outer/probe child in `children`.
        outer: usize,
        /// Index of the inner/build child in `children`.
        inner: usize,
        /// Semi/anti joins emit at most one row per outer row.
        semi: bool,
        /// Full outer joins may additionally emit every inner row.
        full: bool,
        /// Nested loops buffer outer rows: consumed ≠ processed, so the
        /// bound must use the join's `rows_processed` counter.
        buffers_outer: bool,
    },
    /// Leaf accesses bounded by table size.
    Access,
    /// Constant scan: exact row count known.
    Constant,
    /// Spools (unbounded when replayed inside NL inner subtrees).
    Spool,
    /// Row-preserving stream ops: Filter, Exchange, Segment, Distinct Sort.
    Stream,
    /// Sort-like: output exactly equals input.
    SortLike,
    /// Top / Top N Sort: capped at `n`.
    Capped(usize),
    /// Aggregates.
    Aggregate {
        /// Scalar aggregates always emit at least (and at most, per group
        /// set) one row.
        scalar: bool,
    },
    /// Concatenation.
    Concat,
}

/// Precomputed facts about one plan node.
#[derive(Debug, Clone)]
pub struct NodeStatic {
    /// Display name (operator type) for per-operator reporting.
    pub name: &'static str,
    /// Optimizer estimate `N̂ᵢ` (total rows across executions).
    pub(crate) est_rows: f64,
    /// Children ids.
    pub children: Vec<NodeId>,
    /// Fully blocking operator (§4.5 candidates).
    pub blocking: bool,
    /// Semi-blocking operator (§4.4).
    pub(crate) semi_blocking: bool,
    /// Base-relation row count for access operators (`TableSize`).
    pub(crate) table_rows: Option<f64>,
    /// Total pages/leaves a full scan of this node's relation touches
    /// (denominator of §4.3 I/O-fraction progress).
    pub total_pages: Option<f64>,
    /// Exact output cardinality known a priori (unpredicated scans,
    /// constant scans): used for driver-node denominators.
    pub(crate) known_rows: Option<f64>,
    /// Columnstore segment total (denominator of §4.7).
    pub(crate) total_segments: Option<f64>,
    /// The scan evaluates a predicate or bitmap probe inside the storage
    /// engine (§4.3 applies, and `known_rows` does not).
    pub storage_filtered: bool,
    /// Batch-mode operator (§4.7).
    pub batch_mode: bool,
    /// Bounding classification.
    pub(crate) bound_kind: BoundKind,
    /// Static (counter-free) upper bound on *per-execution* output, used for
    /// join bounding of nested-loops inner sides.
    pub(crate) static_ub_per_exec: f64,
    /// The enclosing nested-loops join if this node is on an inner side.
    pub enclosing_nl: Option<NodeId>,
    /// An ancestor may stop pulling before this node is exhausted (Top
    /// above it, a merge join side, the inner side of a semi/anti nested
    /// loops). When set, "a priori exact" cardinalities become upper bounds
    /// only and consumed-input lower bounds are invalid.
    pub(crate) may_stop_early: bool,
    /// This node filters rows (refinement guard: must observe both passing
    /// and non-passing rows).
    pub(crate) filters_rows: bool,
    /// Index seek that is a full-key equality probe of a unique index.
    pub(crate) unique_seek: bool,
    /// Per-tuple weight `wᵢ` from optimizer costs: `max(cpu, io)` per output
    /// tuple, in ns (§4.6).
    pub weight: f64,
    /// Total estimated work of this node in ns: `max(cpu_total, io_total)`
    /// (§4.6's overlap assumption applied to the whole operator).
    pub(crate) work_total_ns: f64,
    /// For blocking nodes: fraction of the operator's work attributed to the
    /// input phase (rest is output phase).
    pub(crate) input_phase_fraction: f64,
    /// A semi-blocking operator sits strictly below this node within the
    /// same pipeline (§4.4(2)'s trigger condition).
    pub(crate) semi_blocking_below: bool,
    /// Columnstore scans in this node's subtree (itself included), whose
    /// segment counters give a batch-mode operator its §4.7 progress.
    pub(crate) columnstore_scans: Vec<NodeId>,
}

/// All static estimator inputs for one plan.
pub struct PlanStatics {
    /// Per node, indexed by `NodeId.0`.
    pub nodes: Vec<NodeStatic>,
    /// Pipeline decomposition.
    pub pipelines: PipelineSet,
    /// Post-order traversal (children before parents).
    pub(crate) post_order: Vec<NodeId>,
}

impl PlanStatics {
    /// Precompute from plan + catalog.
    pub fn build(plan: &PhysicalPlan, db: &Database, io_page_ns: f64) -> Self {
        let pipelines = PipelineSet::decompose(plan);
        let mut nodes: Vec<NodeStatic> = plan
            .nodes()
            .iter()
            .map(|n| build_node(db, n, io_page_ns))
            .collect();
        // static_ub_per_exec bottom-up.
        let post_order = plan.post_order();
        for &id in &post_order {
            let ub = static_ub(plan, &nodes, id);
            nodes[id.0].static_ub_per_exec = ub;
        }
        // enclosing_nl and may_stop_early: walk top-down.
        let mut stack = vec![(plan.root(), None::<NodeId>, false)];
        while let Some((id, nl, stop_early)) = stack.pop() {
            nodes[id.0].enclosing_nl = nl;
            nodes[id.0].may_stop_early = stop_early;
            let n = plan.node(id);
            match &n.op {
                PhysicalOp::NestedLoops { kind, .. } => {
                    stack.push((n.children[0], nl, stop_early));
                    // Semi/anti joins stop pulling the inner side at the
                    // first match.
                    let inner_stops = stop_early
                        || matches!(
                            kind,
                            lqs_plan::JoinKind::LeftSemi | lqs_plan::JoinKind::LeftAnti
                        );
                    stack.push((n.children[1], Some(id), inner_stops));
                }
                PhysicalOp::Top { .. } => {
                    stack.push((n.children[0], nl, true));
                }
                PhysicalOp::MergeJoin { .. } => {
                    // Either side may be abandoned when the other exhausts.
                    stack.push((n.children[0], nl, true));
                    stack.push((n.children[1], nl, true));
                }
                _ => {
                    for &c in &n.children {
                        stack.push((c, nl, stop_early));
                    }
                }
            }
        }
        // Both are functions of the plan alone, so they are walked here
        // once instead of once per node per snapshot.
        for i in 0..nodes.len() {
            nodes[i].semi_blocking_below = semi_blocking_below(&nodes, &pipelines, NodeId(i));
            nodes[i].columnstore_scans = columnstore_descendants(&nodes, NodeId(i));
        }
        PlanStatics {
            nodes,
            pipelines,
            post_order,
        }
    }
}

/// Whether a semi-blocking operator sits strictly below `node` within the
/// same pipeline.
fn semi_blocking_below(nodes: &[NodeStatic], pipelines: &PipelineSet, node: NodeId) -> bool {
    let pipe = pipelines.pipeline_of(node);
    let same_pipe = |id: NodeId| {
        nodes[id.0]
            .children
            .iter()
            .copied()
            .filter(move |c| pipelines.pipeline_of(*c) == pipe)
    };
    let mut stack: Vec<NodeId> = same_pipe(node).collect();
    while let Some(id) = stack.pop() {
        if nodes[id.0].semi_blocking {
            return true;
        }
        stack.extend(same_pipe(id));
    }
    false
}

/// Columnstore scans among `node`'s descendants (including itself).
fn columnstore_descendants(nodes: &[NodeStatic], node: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![node];
    while let Some(id) = stack.pop() {
        if nodes[id.0].total_segments.is_some() {
            out.push(id);
        }
        stack.extend(nodes[id.0].children.iter().copied());
    }
    out
}

fn build_node(db: &Database, n: &lqs_plan::PlanNode, io_page_ns: f64) -> NodeStatic {
    use PhysicalOp as P;
    let est_rows = n.est_total_rows();
    let mut s = NodeStatic {
        name: n.op.display_name(),
        est_rows,
        children: n.children.clone(),
        blocking: n.op.is_blocking(),
        semi_blocking: n.op.is_semi_blocking(),
        table_rows: None,
        total_pages: None,
        known_rows: None,
        total_segments: None,
        storage_filtered: false,
        batch_mode: n.batch_mode,
        bound_kind: BoundKind::Stream,
        static_ub_per_exec: f64::INFINITY,
        enclosing_nl: None,
        may_stop_early: false,
        filters_rows: false,
        unique_seek: false,
        weight: {
            let cpu = n.est_cpu_per_tuple();
            let io = n.est_io_per_tuple() * io_page_ns;
            cpu.max(io).max(1.0)
        },
        work_total_ns: n.est_cpu_ns.max(n.est_io_pages * io_page_ns).max(1.0),
        input_phase_fraction: 0.6,
        semi_blocking_below: false,
        columnstore_scans: Vec::new(),
    };
    match &n.op {
        P::TableScan {
            table,
            predicate,
            bitmap_probe,
            ..
        } => {
            // An unanalyzed table has no optimizer statistics; fall back to
            // live physical counts rather than panicking (robustness: the
            // estimator must degrade, not die, on missing metadata).
            let (row_count, page_count) = match db.try_stats(*table) {
                Some(stats) => (stats.row_count, stats.page_count),
                None => {
                    let t = db.table(*table);
                    (t.row_count() as f64, t.page_count() as f64)
                }
            };
            s.table_rows = Some(row_count);
            s.total_pages = Some(page_count.max(1.0));
            s.storage_filtered = predicate.is_some() || bitmap_probe.is_some();
            s.filters_rows = s.storage_filtered;
            if !s.storage_filtered {
                s.known_rows = Some(row_count);
            }
            s.bound_kind = BoundKind::Access;
        }
        P::IndexScan {
            index,
            predicate,
            bitmap_probe,
            ..
        } => {
            let ix = db.btree(*index);
            s.table_rows = Some(ix.len() as f64);
            s.total_pages = Some(ix.leaf_count().max(1) as f64);
            s.storage_filtered = predicate.is_some() || bitmap_probe.is_some();
            s.filters_rows = s.storage_filtered;
            if !s.storage_filtered {
                s.known_rows = Some(ix.len() as f64);
            }
            s.bound_kind = BoundKind::Access;
        }
        P::IndexSeek {
            index,
            seek,
            residual,
            ..
        } => {
            let ix = db.btree(*index);
            s.table_rows = Some(ix.len() as f64);
            s.filters_rows = true; // seeks select a subset by definition
            s.unique_seek = unique_point_seek(db, *index, seek);
            let _ = residual;
            s.bound_kind = BoundKind::Access;
        }
        P::ColumnstoreScan {
            columnstore,
            predicate,
            bitmap_probe,
        } => {
            let cs = db.columnstore(*columnstore);
            s.table_rows = Some(cs.row_count() as f64);
            s.total_segments = Some(cs.segment_count().max(1) as f64);
            s.storage_filtered = predicate.is_some() || bitmap_probe.is_some();
            s.filters_rows = s.storage_filtered;
            if !s.storage_filtered {
                s.known_rows = Some(cs.row_count() as f64);
            }
            s.bound_kind = BoundKind::Access;
        }
        P::ConstantScan { rows } => {
            s.known_rows = Some(rows.len() as f64);
            s.bound_kind = BoundKind::Constant;
        }
        P::RidLookup { .. } => {
            s.bound_kind = BoundKind::SortLike; // passes every input row
        }
        P::Filter { .. } => {
            s.filters_rows = true;
            s.bound_kind = BoundKind::Stream;
        }
        P::ComputeScalar { .. } | P::Segment { .. } | P::BitmapCreate { .. } => {
            s.bound_kind = BoundKind::SortLike;
        }
        P::Sort { .. } => {
            s.bound_kind = BoundKind::SortLike;
            s.input_phase_fraction = 0.6;
        }
        P::TopNSort { n: limit, .. } => {
            s.bound_kind = BoundKind::Capped(*limit);
        }
        P::DistinctSort { .. } => {
            s.filters_rows = true;
            s.bound_kind = BoundKind::Stream;
        }
        P::Top { n: limit } => {
            s.bound_kind = BoundKind::Capped(*limit);
        }
        P::StreamAggregate { group_by, .. } | P::HashAggregate { group_by, .. } => {
            s.filters_rows = true;
            s.bound_kind = BoundKind::Aggregate {
                scalar: group_by.is_empty(),
            };
            s.input_phase_fraction = 0.7;
        }
        P::HashJoin { kind, .. } => {
            s.filters_rows = true;
            s.bound_kind = BoundKind::Join {
                outer: 1, // probe
                inner: 0, // build
                semi: kind.left_only(),
                full: *kind == lqs_plan::JoinKind::FullOuter,
                buffers_outer: false,
            };
        }
        P::MergeJoin { kind, .. } => {
            s.filters_rows = true;
            s.bound_kind = BoundKind::Join {
                outer: 0,
                inner: 1,
                semi: kind.left_only(),
                full: *kind == lqs_plan::JoinKind::FullOuter,
                buffers_outer: false,
            };
        }
        P::NestedLoops { kind, .. } => {
            s.filters_rows = true;
            s.bound_kind = BoundKind::Join {
                outer: 0,
                inner: 1,
                semi: kind.left_only(),
                full: false,
                buffers_outer: true,
            };
        }
        P::Spool { .. } => {
            s.bound_kind = BoundKind::Spool;
        }
        P::Concat => {
            s.bound_kind = BoundKind::Concat;
        }
        P::Exchange { .. } => {
            // Exchanges pass every input row through (they buffer, so a
            // "remaining child rows" bound would miss queued rows).
            s.bound_kind = BoundKind::SortLike;
        }
    }
    s
}

/// Counter-free per-execution upper bound, used to bound join fan-out for
/// inner sides whose totals depend on execution counts.
fn static_ub(plan: &PhysicalPlan, nodes: &[NodeStatic], id: NodeId) -> f64 {
    let n = plan.node(id);
    let s = &nodes[id.0];
    let child = |i: usize| nodes[n.children[i].0].static_ub_per_exec;
    use PhysicalOp as P;
    match &n.op {
        P::TableScan { .. } | P::IndexScan { .. } | P::ColumnstoreScan { .. } => {
            s.table_rows.unwrap_or(f64::INFINITY)
        }
        P::IndexSeek { .. } => {
            if s.unique_seek {
                1.0
            } else {
                s.table_rows.unwrap_or(f64::INFINITY)
            }
        }
        P::ConstantScan { rows } => rows.len() as f64,
        P::Filter { .. }
        | P::ComputeScalar { .. }
        | P::Segment { .. }
        | P::Sort { .. }
        | P::DistinctSort { .. }
        | P::Exchange { .. }
        | P::BitmapCreate { .. }
        | P::RidLookup { .. }
        | P::Spool { .. } => child(0),
        P::TopNSort { n: limit, .. } | P::Top { n: limit } => (*limit as f64).min(child(0)),
        P::StreamAggregate { group_by, .. } | P::HashAggregate { group_by, .. } => {
            if group_by.is_empty() {
                1.0
            } else {
                child(0)
            }
        }
        P::HashJoin { kind, .. } | P::MergeJoin { kind, .. } | P::NestedLoops { kind, .. } => {
            let (a, b) = (child(0), child(1));
            let product = a * b;
            match kind {
                lqs_plan::JoinKind::LeftSemi | lqs_plan::JoinKind::LeftAnti => {
                    // At most one row per left-side row.
                    match &n.op {
                        P::HashJoin { .. } => b, // probe side is child 1
                        _ => a,
                    }
                }
                lqs_plan::JoinKind::FullOuter => product + a + b,
                _ => product.max(a).max(b),
            }
        }
        P::Concat => n
            .children
            .iter()
            .map(|c| nodes[c.0].static_ub_per_exec)
            .sum(),
    }
}
