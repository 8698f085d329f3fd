//! The mini-optimizer's cost model.
//!
//! Produces per-node estimates of total CPU nanoseconds and logical I/O
//! pages. The *same* constants drive both the optimizer estimates here and
//! the executor's virtual-clock charging in `lqs-exec`, so — as in the paper
//! (§4.6) — the accuracy of the operator weights `wᵢ` is limited by
//! cardinality errors and modelling simplifications (e.g. the max(CPU, I/O)
//! overlap assumption), not by arbitrary constant mismatches.

use crate::op::PhysicalOp;
use crate::plan::{PhysicalPlan, PlanNode};
use lqs_storage::Database;

/// Cost/charging constants shared by planner and executor. All CPU values
/// are nanoseconds of virtual time; I/O is in pages (one page read costs
/// [`CostModel::io_page_ns`] of virtual time).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Virtual nanoseconds per logical page read.
    pub io_page_ns: f64,
    /// Row-mode scan: CPU per row examined.
    pub scan_row_ns: f64,
    /// Batch-mode scan: CPU per row examined (an order of magnitude cheaper,
    /// per the columnstore papers' vectorized execution).
    pub batch_row_ns: f64,
    /// Logical pages charged per columnstore segment read.
    pub segment_io_pages: f64,
    /// Predicate evaluation per row per comparison.
    pub pred_row_ns: f64,
    /// Filter operator per input row.
    pub filter_row_ns: f64,
    /// Compute Scalar per expression per row.
    pub compute_expr_ns: f64,
    /// Sort: per row per log2(N) comparisons.
    pub sort_cmp_ns: f64,
    /// Fraction of sort CPU charged while consuming input (rest on output).
    pub sort_input_fraction: f64,
    /// Hash aggregate / hash join build: CPU per input row.
    pub hash_build_row_ns: f64,
    /// Hash probe: CPU per probe row.
    pub hash_probe_row_ns: f64,
    /// Hash aggregate output phase: CPU per output row.
    pub hash_output_row_ns: f64,
    /// Merge join: CPU per input row (each side).
    pub merge_row_ns: f64,
    /// Nested loops: CPU per (outer row, inner row) pair inspected.
    pub nl_pair_ns: f64,
    /// Nested loops: CPU per outer row (rebind overhead).
    pub nl_outer_row_ns: f64,
    /// Index seek: CPU per row returned.
    pub seek_row_ns: f64,
    /// Stream aggregate: CPU per input row.
    pub stream_agg_row_ns: f64,
    /// Exchange: CPU per row moved.
    pub exchange_row_ns: f64,
    /// Spool: CPU per row written to the spool.
    pub spool_write_row_ns: f64,
    /// Spool: CPU per row read back.
    pub spool_read_row_ns: f64,
    /// Rows per spilled spool page (spools charge I/O for writes + reads).
    pub spool_rows_per_page: f64,
    /// RID lookup: pages per looked-up row (random access: 1).
    pub rid_lookup_pages: f64,
    /// Bitmap create/probe: CPU per row.
    pub bitmap_row_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            io_page_ns: 40_000.0,
            scan_row_ns: 40.0,
            batch_row_ns: 4.0,
            segment_io_pages: 8.0,
            pred_row_ns: 15.0,
            filter_row_ns: 12.0,
            compute_expr_ns: 8.0,
            sort_cmp_ns: 30.0,
            sort_input_fraction: 0.6,
            hash_build_row_ns: 70.0,
            hash_probe_row_ns: 55.0,
            hash_output_row_ns: 30.0,
            merge_row_ns: 35.0,
            nl_pair_ns: 18.0,
            nl_outer_row_ns: 20.0,
            seek_row_ns: 25.0,
            stream_agg_row_ns: 30.0,
            exchange_row_ns: 25.0,
            spool_write_row_ns: 45.0,
            spool_read_row_ns: 25.0,
            spool_rows_per_page: 200.0,
            rid_lookup_pages: 1.0,
            bitmap_row_ns: 10.0,
        }
    }
}

impl CostModel {
    /// log2 with a floor of 1 comparison, for sort costing.
    pub fn log2_rows(rows: f64) -> f64 {
        rows.max(2.0).log2()
    }
}

/// Fill `est_cpu_ns` / `est_io_pages` for every node of `plan`.
pub(crate) fn estimate(plan: &mut PhysicalPlan, db: &Database, m: &CostModel) {
    for id in plan.post_order() {
        let (cpu, io) = node_cost(plan, db, m, plan.node(id));
        let n = plan.node_mut(id);
        n.est_cpu_ns = cpu;
        n.est_io_pages = io;
    }
}

/// Total (CPU ns, IO pages) estimate for one node across all executions.
fn node_cost(plan: &PhysicalPlan, db: &Database, m: &CostModel, node: &PlanNode) -> (f64, f64) {
    let out_total = node.est_total_rows();
    let child_total = |i: usize| {
        let c = plan.node(node.children[i]);
        c.est_total_rows()
    };
    match &node.op {
        PhysicalOp::TableScan {
            table, predicate, ..
        } => {
            let stats = db.stats(*table);
            let examined = stats.row_count * node.est_executions;
            let preds = predicate.is_some() as u8 as f64;
            (
                examined * (m.scan_row_ns + preds * m.pred_row_ns),
                stats.page_count * node.est_executions,
            )
        }
        PhysicalOp::IndexScan {
            index, predicate, ..
        } => {
            let t = db.btree_table(*index);
            let stats = db.stats(t);
            let examined = stats.row_count * node.est_executions;
            let preds = predicate.is_some() as u8 as f64;
            let leaf_pages = db.btree(*index).leaf_count() as f64;
            (
                examined * (m.scan_row_ns + preds * m.pred_row_ns),
                leaf_pages * node.est_executions,
            )
        }
        PhysicalOp::IndexSeek { index, .. } => {
            let height = db.btree(*index).height() as f64;
            // Height pages per execution plus one leaf per ~LEAF_FANOUT rows.
            let leaves = out_total / lqs_storage::btree::LEAF_FANOUT as f64;
            (
                out_total * m.seek_row_ns,
                height * node.est_executions + leaves,
            )
        }
        PhysicalOp::RidLookup { .. } => {
            let rows = child_total(0);
            (rows * m.seek_row_ns, rows * m.rid_lookup_pages)
        }
        PhysicalOp::ColumnstoreScan { columnstore, .. } => {
            let cs = db.columnstore(*columnstore);
            let rows = cs.row_count() as f64 * node.est_executions;
            let segs = cs.segment_count() as f64 * node.est_executions;
            (rows * m.batch_row_ns, segs * m.segment_io_pages)
        }
        PhysicalOp::Filter { .. } => {
            let batch_factor = if node.batch_mode { 0.2 } else { 1.0 };
            (child_total(0) * m.filter_row_ns * batch_factor, 0.0)
        }
        PhysicalOp::ComputeScalar { exprs } => {
            let batch_factor = if node.batch_mode { 0.2 } else { 1.0 };
            (
                child_total(0) * m.compute_expr_ns * exprs.len() as f64 * batch_factor,
                0.0,
            )
        }
        PhysicalOp::Sort { .. } | PhysicalOp::DistinctSort { .. } => {
            let n = child_total(0);
            (n * m.sort_cmp_ns * CostModel::log2_rows(n), 0.0)
        }
        PhysicalOp::TopNSort { n, .. } => {
            let rows = child_total(0);
            (
                rows * m.sort_cmp_ns * CostModel::log2_rows((*n).max(2) as f64),
                0.0,
            )
        }
        PhysicalOp::Top { .. } => (out_total * 2.0, 0.0),
        PhysicalOp::StreamAggregate { aggs, .. } => (
            child_total(0) * (m.stream_agg_row_ns + aggs.len() as f64 * m.compute_expr_ns),
            0.0,
        ),
        PhysicalOp::HashAggregate { aggs, .. } => {
            let batch_factor = if node.batch_mode { 0.3 } else { 1.0 };
            let input = child_total(0);
            let cpu = input * (m.hash_build_row_ns + aggs.len() as f64 * m.compute_expr_ns)
                + out_total * m.hash_output_row_ns;
            (cpu * batch_factor, 0.0)
        }
        PhysicalOp::HashJoin { bitmap, .. } => {
            let batch_factor = if node.batch_mode { 0.3 } else { 1.0 };
            let build = child_total(0);
            let probe = child_total(1);
            let bitmap_cpu = if bitmap.is_some() {
                build * m.bitmap_row_ns
            } else {
                0.0
            };
            (
                (build * m.hash_build_row_ns + probe * m.hash_probe_row_ns + bitmap_cpu)
                    * batch_factor,
                0.0,
            )
        }
        PhysicalOp::MergeJoin { .. } => ((child_total(0) + child_total(1)) * m.merge_row_ns, 0.0),
        PhysicalOp::NestedLoops { .. } => {
            let outer = child_total(0);
            let inner_total = child_total(1);
            (outer * m.nl_outer_row_ns + inner_total * m.nl_pair_ns, 0.0)
        }
        PhysicalOp::Spool { .. } => {
            // Child populated once; output replayed est_executions times.
            let stored = plan.node(node.children[0]).est_total_rows();
            let read = out_total;
            let pages = (stored + read) / m.spool_rows_per_page;
            (
                stored * m.spool_write_row_ns + read * m.spool_read_row_ns,
                pages,
            )
        }
        PhysicalOp::Concat => (out_total * 2.0, 0.0),
        PhysicalOp::Segment { .. } => (child_total(0) * 5.0, 0.0),
        PhysicalOp::ConstantScan { .. } => (out_total * 2.0, 0.0),
        PhysicalOp::Exchange { .. } => {
            let batch_factor = if node.batch_mode { 0.3 } else { 1.0 };
            (child_total(0) * m.exchange_row_ns * batch_factor, 0.0)
        }
        PhysicalOp::BitmapCreate { .. } => (child_total(0) * m.bitmap_row_ns, 0.0),
    }
}
