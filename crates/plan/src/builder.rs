//! Fluent construction of physical plans.
//!
//! The simulator has no SQL frontend — like the real LQS client, the
//! estimator consumes compiled plans, so workloads author plans directly
//! through this builder. `finish()` runs the mini-optimizer passes
//! (cardinality, cost, batch-mode propagation) and validates the tree.

use crate::cardinality;
use crate::cost::{self, CostModel};
use crate::expr::{Aggregate, Expr};
use crate::op::{
    BitmapId, ExchangeKind, IndexOutput, JoinKind, NodeId, PhysicalOp, SeekRange, SortKey,
};
use crate::plan::{PhysicalPlan, PlanNode, Provenance};
use lqs_storage::{ColumnstoreId, Database, IndexId, TableId, Value};

/// Builds a [`PhysicalPlan`] bottom-up against a database catalog.
pub struct PlanBuilder<'a> {
    db: &'a Database,
    nodes: Vec<PlanNode>,
    next_bitmap: usize,
}

impl<'a> PlanBuilder<'a> {
    /// Start building against `db`.
    pub fn new(db: &'a Database) -> Self {
        PlanBuilder {
            db,
            nodes: Vec::new(),
            next_bitmap: 0,
        }
    }

    /// Allocate a fresh bitmap id for a hash-join bitmap / bitmap probe pair.
    pub fn new_bitmap(&mut self) -> BitmapId {
        let id = BitmapId(self.next_bitmap);
        self.next_bitmap += 1;
        id
    }

    /// Add an arbitrary operator node. Panics on arity or column-bound
    /// violations — plans are authored in code, so failures are programmer
    /// errors.
    pub fn add(&mut self, op: PhysicalOp, children: Vec<NodeId>) -> NodeId {
        if let Some(required) = op.required_children() {
            assert_eq!(
                children.len(),
                required,
                "{} requires {} children, got {}",
                op.display_name(),
                required,
                children.len()
            );
        } else {
            assert!(
                !children.is_empty(),
                "{} requires at least one child",
                op.display_name()
            );
        }
        let (output_arity, provenance) = self.output_shape(&op, &children);
        self.validate_columns(&op, &children, output_arity);
        let id = NodeId(self.nodes.len());
        self.nodes.push(PlanNode {
            id,
            op,
            children,
            parent: None,
            est_rows_per_exec: 0.0,
            est_executions: 1.0,
            est_cpu_ns: 0.0,
            est_io_pages: 0.0,
            batch_mode: false,
            output_arity,
            provenance,
        });
        id
    }

    // ---- convenience constructors -------------------------------------

    /// Full table scan.
    pub fn table_scan(&mut self, table: TableId) -> NodeId {
        self.add(
            PhysicalOp::TableScan {
                table,
                predicate: None,
                pushed_to_storage: false,
                bitmap_probe: None,
            },
            vec![],
        )
    }

    /// Table scan with a predicate; `pushed` evaluates it in the storage
    /// engine (§4.3).
    pub fn table_scan_filtered(&mut self, table: TableId, predicate: Expr, pushed: bool) -> NodeId {
        self.add(
            PhysicalOp::TableScan {
                table,
                predicate: Some(predicate),
                pushed_to_storage: pushed,
                bitmap_probe: None,
            },
            vec![],
        )
    }

    /// Ordered index scan emitting full base rows.
    pub fn index_scan(&mut self, index: IndexId) -> NodeId {
        self.add(
            PhysicalOp::IndexScan {
                index,
                predicate: None,
                pushed_to_storage: false,
                bitmap_probe: None,
                output: IndexOutput::BaseRow,
            },
            vec![],
        )
    }

    /// Index seek (point/range/correlated).
    pub fn index_seek(&mut self, index: IndexId, seek: SeekRange) -> NodeId {
        self.add(
            PhysicalOp::IndexSeek {
                index,
                seek,
                residual: None,
                output: IndexOutput::BaseRow,
            },
            vec![],
        )
    }

    /// Batch-mode columnstore scan.
    pub fn columnstore_scan(
        &mut self,
        columnstore: ColumnstoreId,
        predicate: Option<Expr>,
    ) -> NodeId {
        self.add(
            PhysicalOp::ColumnstoreScan {
                columnstore,
                predicate,
                bitmap_probe: None,
            },
            vec![],
        )
    }

    /// Row filter.
    pub fn filter(&mut self, child: NodeId, predicate: Expr) -> NodeId {
        self.add(PhysicalOp::Filter { predicate }, vec![child])
    }

    /// Compute scalar appending `exprs`.
    pub fn compute_scalar(&mut self, child: NodeId, exprs: Vec<Expr>) -> NodeId {
        self.add(PhysicalOp::ComputeScalar { exprs }, vec![child])
    }

    /// Blocking sort.
    pub fn sort(&mut self, child: NodeId, keys: Vec<SortKey>) -> NodeId {
        self.add(PhysicalOp::Sort { keys }, vec![child])
    }

    /// Top-N sort.
    pub fn top_n_sort(&mut self, child: NodeId, n: usize, keys: Vec<SortKey>) -> NodeId {
        self.add(PhysicalOp::TopNSort { n, keys }, vec![child])
    }

    /// Hash aggregation.
    pub fn hash_aggregate(
        &mut self,
        child: NodeId,
        group_by: Vec<usize>,
        aggs: Vec<Aggregate>,
    ) -> NodeId {
        self.add(PhysicalOp::HashAggregate { group_by, aggs }, vec![child])
    }

    /// Stream aggregation (input must arrive grouped).
    pub fn stream_aggregate(
        &mut self,
        child: NodeId,
        group_by: Vec<usize>,
        aggs: Vec<Aggregate>,
    ) -> NodeId {
        self.add(PhysicalOp::StreamAggregate { group_by, aggs }, vec![child])
    }

    /// Hash join (`build`, then `probe`); output = probe ++ build columns.
    pub fn hash_join(
        &mut self,
        kind: JoinKind,
        build: NodeId,
        probe: NodeId,
        build_keys: Vec<usize>,
        probe_keys: Vec<usize>,
    ) -> NodeId {
        self.add(
            PhysicalOp::HashJoin {
                kind,
                build_keys,
                probe_keys,
                bitmap: None,
            },
            vec![build, probe],
        )
    }

    /// Merge join over sorted inputs.
    pub fn merge_join(
        &mut self,
        kind: JoinKind,
        left: NodeId,
        right: NodeId,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
    ) -> NodeId {
        self.add(
            PhysicalOp::MergeJoin {
                kind,
                left_keys,
                right_keys,
            },
            vec![left, right],
        )
    }

    /// Nested-loops join; `outer_buffer > 1` makes it semi-blocking (§4.4).
    pub fn nested_loops(
        &mut self,
        kind: JoinKind,
        outer: NodeId,
        inner: NodeId,
        predicate: Option<Expr>,
        outer_buffer: usize,
    ) -> NodeId {
        self.add(
            PhysicalOp::NestedLoops {
                kind,
                predicate,
                outer_buffer,
            },
            vec![outer, inner],
        )
    }

    /// Exchange (Parallelism) operator.
    pub fn exchange(&mut self, child: NodeId, kind: ExchangeKind, degree: usize) -> NodeId {
        self.add(PhysicalOp::Exchange { kind, degree }, vec![child])
    }

    /// Table spool.
    pub fn spool(&mut self, child: NodeId, lazy: bool) -> NodeId {
        self.add(PhysicalOp::Spool { lazy }, vec![child])
    }

    /// Constant scan of literal rows.
    pub fn constant_scan(&mut self, rows: Vec<Vec<Value>>) -> NodeId {
        self.add(PhysicalOp::ConstantScan { rows }, vec![])
    }

    // ---- finishing ------------------------------------------------------

    /// Finalize: link parents, propagate batch mode, estimate cardinalities
    /// and costs, and return the immutable plan.
    pub fn finish(self, root: NodeId) -> PhysicalPlan {
        self.finish_with_model(root, &CostModel::default())
    }
    /// Finalize with an explicit cost model.
    pub(crate) fn finish_with_model(mut self, root: NodeId, model: &CostModel) -> PhysicalPlan {
        // Parent links.
        let links: Vec<(NodeId, NodeId)> = self
            .nodes
            .iter()
            .flat_map(|n| n.children.iter().map(move |&c| (c, n.id)))
            .collect();
        for (child, parent) in links {
            assert!(
                self.nodes[child.0].parent.is_none(),
                "node {child:?} has two parents"
            );
            self.nodes[child.0].parent = Some(parent);
        }
        // Reachability: every node must be in root's subtree.
        let mut plan = PhysicalPlan::new(self.nodes, root);
        let reach = plan.post_order();
        assert_eq!(
            reach.len(),
            plan.len(),
            "plan contains nodes unreachable from the root"
        );

        // Batch-mode propagation: a node runs in batch mode if it is a batch
        // source, or if it is batch-capable and all children are batch.
        for id in plan.post_order() {
            let children_batch = plan
                .node(id)
                .children
                .iter()
                .all(|&c| plan.node(c).batch_mode);
            let n = plan.node(id);
            let batch = n.op.is_batch_source()
                || (!n.children.is_empty() && children_batch && batch_capable(&n.op));
            plan.node_mut(id).batch_mode = batch;
        }

        cardinality::estimate(&mut plan, self.db);
        cost::estimate(&mut plan, self.db, model);
        plan
    }

    /// Compute output arity + provenance for an op over its children.
    fn output_shape(&self, op: &PhysicalOp, children: &[NodeId]) -> (usize, Vec<Provenance>) {
        let child = |i: usize| &self.nodes[children[i].0];
        let table_prov = |t: TableId| -> Vec<Provenance> {
            (0..self.db.table(t).schema().len())
                .map(|c| Provenance::Base(t, c))
                .collect()
        };
        let prov = match op {
            PhysicalOp::TableScan { table, .. } | PhysicalOp::RidLookup { table } => {
                table_prov(*table)
            }
            PhysicalOp::IndexScan { index, output, .. }
            | PhysicalOp::IndexSeek { index, output, .. } => {
                let t = self.db.btree_table(*index);
                match output {
                    IndexOutput::BaseRow => table_prov(t),
                    IndexOutput::KeyAndRid => {
                        let mut p: Vec<Provenance> = self
                            .db
                            .btree(*index)
                            .key_columns()
                            .iter()
                            .map(|&c| Provenance::Base(t, c))
                            .collect();
                        p.push(Provenance::Computed); // the RID
                        p
                    }
                }
            }
            PhysicalOp::ColumnstoreScan { columnstore, .. } => {
                table_prov(self.db.columnstore_table(*columnstore))
            }
            PhysicalOp::ConstantScan { rows } => {
                let arity = rows.first().map_or(0, |r| r.len());
                for r in rows {
                    assert_eq!(r.len(), arity, "ragged constant scan rows");
                }
                vec![Provenance::Computed; arity]
            }
            PhysicalOp::ComputeScalar { exprs } => {
                let mut p = child(0).provenance.clone();
                p.extend(std::iter::repeat_n(Provenance::Computed, exprs.len()));
                p
            }
            PhysicalOp::Segment { .. } => {
                let mut p = child(0).provenance.clone();
                p.push(Provenance::Computed); // segment marker
                p
            }
            PhysicalOp::StreamAggregate { group_by, aggs }
            | PhysicalOp::HashAggregate { group_by, aggs } => {
                let mut p: Vec<Provenance> =
                    group_by.iter().map(|&g| child(0).provenance[g]).collect();
                p.extend(std::iter::repeat_n(Provenance::Computed, aggs.len()));
                p
            }
            PhysicalOp::HashJoin { kind, .. } => {
                // Output = probe (child 1) ++ build (child 0).
                let mut p = child(1).provenance.clone();
                if !kind.left_only() {
                    p.extend(child(0).provenance.iter().copied());
                }
                p
            }
            PhysicalOp::MergeJoin { kind, .. } | PhysicalOp::NestedLoops { kind, .. } => {
                let mut p = child(0).provenance.clone();
                if !kind.left_only() {
                    p.extend(child(1).provenance.iter().copied());
                }
                p
            }
            PhysicalOp::Concat => child(0).provenance.clone(),
            // Pass-through operators.
            PhysicalOp::Filter { .. }
            | PhysicalOp::Sort { .. }
            | PhysicalOp::TopNSort { .. }
            | PhysicalOp::DistinctSort { .. }
            | PhysicalOp::Top { .. }
            | PhysicalOp::Spool { .. }
            | PhysicalOp::Exchange { .. }
            | PhysicalOp::BitmapCreate { .. } => child(0).provenance.clone(),
        };
        (prov.len(), prov)
    }

    /// Sanity-check all column references in the op against child arity.
    fn validate_columns(&self, op: &PhysicalOp, children: &[NodeId], output_arity: usize) {
        let child_arity = |i: usize| self.nodes[children[i].0].output_arity;
        let check = |cols: &[usize], bound: usize, what: &str| {
            for &c in cols {
                assert!(
                    c < bound,
                    "{what}: column {c} out of bounds (arity {bound})"
                );
            }
        };
        let check_expr = |e: &Expr, bound: usize, what: &str| {
            check(&e.referenced_columns(), bound, what);
        };
        match op {
            PhysicalOp::Filter { predicate } => check_expr(predicate, child_arity(0), "Filter"),
            PhysicalOp::ComputeScalar { exprs } => {
                for e in exprs {
                    check_expr(e, child_arity(0), "Compute Scalar");
                }
            }
            PhysicalOp::Sort { keys }
            | PhysicalOp::TopNSort { keys, .. }
            | PhysicalOp::DistinctSort { keys } => {
                check(
                    &keys.iter().map(|k| k.column).collect::<Vec<_>>(),
                    child_arity(0),
                    "Sort",
                );
            }
            PhysicalOp::StreamAggregate { group_by, aggs }
            | PhysicalOp::HashAggregate { group_by, aggs } => {
                check(group_by, child_arity(0), "Aggregate group-by");
                for a in aggs {
                    check_expr(&a.input, child_arity(0), "Aggregate input");
                }
            }
            PhysicalOp::HashJoin {
                build_keys,
                probe_keys,
                ..
            } => {
                check(build_keys, child_arity(0), "Hash Join build keys");
                check(probe_keys, child_arity(1), "Hash Join probe keys");
                assert_eq!(
                    build_keys.len(),
                    probe_keys.len(),
                    "hash key arity mismatch"
                );
            }
            PhysicalOp::MergeJoin {
                left_keys,
                right_keys,
                ..
            } => {
                check(left_keys, child_arity(0), "Merge Join left keys");
                check(right_keys, child_arity(1), "Merge Join right keys");
                assert_eq!(
                    left_keys.len(),
                    right_keys.len(),
                    "merge key arity mismatch"
                );
            }
            PhysicalOp::NestedLoops {
                predicate: Some(p), ..
            } => {
                check_expr(
                    p,
                    output_arity.max(child_arity(0) + child_arity(1)),
                    "NL predicate",
                );
            }
            PhysicalOp::Segment { group_by } => check(group_by, child_arity(0), "Segment"),
            PhysicalOp::BitmapCreate { key_columns, .. } => {
                check(key_columns, child_arity(0), "Bitmap Create")
            }
            PhysicalOp::Concat => {
                let arity = child_arity(0);
                for i in 1..children.len() {
                    assert_eq!(child_arity(i), arity, "Concat children arity mismatch");
                }
            }
            PhysicalOp::TableScan {
                predicate,
                bitmap_probe,
                ..
            }
            | PhysicalOp::IndexScan {
                predicate,
                bitmap_probe,
                ..
            }
            | PhysicalOp::ColumnstoreScan {
                predicate,
                bitmap_probe,
                ..
            } => {
                if let Some(p) = predicate {
                    check_expr(p, output_arity, "Scan predicate");
                }
                if let Some(bp) = bitmap_probe {
                    check(&bp.key_columns, output_arity, "Bitmap probe");
                }
            }
            PhysicalOp::IndexSeek {
                residual: Some(r), ..
            } => {
                check_expr(r, output_arity, "Seek residual");
            }
            _ => {}
        }
    }
}

/// Operators that can run in batch mode when their inputs do (the subset SQL
/// Server supported in the 2014/2016 era: hash join/aggregate and row
/// filters/projections over columnstore scans).
fn batch_capable(op: &PhysicalOp) -> bool {
    matches!(
        op,
        PhysicalOp::HashJoin { .. }
            | PhysicalOp::HashAggregate { .. }
            | PhysicalOp::Filter { .. }
            | PhysicalOp::ComputeScalar { .. }
            | PhysicalOp::BitmapCreate { .. }
            | PhysicalOp::Exchange { .. }
    )
}
