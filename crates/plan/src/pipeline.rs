//! Pipeline decomposition and driver-node identification (paper §3.1.1).
//!
//! A *pipeline* is a maximal set of operators that execute concurrently,
//! obtained by cutting the plan at blocking boundaries: fully blocking
//! operators (Sort, Hash Aggregate, Eager Spool, ...) and the build side of
//! hash joins. A blocking operator *consumes* its input in the child
//! pipeline (it is that pipeline's **sink**) and *produces* output in its
//! parent's pipeline (where it acts as a source) — this is precisely the
//! two-phase structure the paper's §4.5 blocking model exploits.
//!
//! The **driver nodes** of a pipeline are its tuple sources: members with no
//! same-pipeline children, excluding leaves on the inner side of
//! nested-loops joins (whose cardinality is demand-driven). The paper's
//! §4.4(1) technique re-adds nested-loops inner-side leaves as driver nodes;
//! they are kept separately in [`Pipeline::nl_inner_leaves`] so the
//! estimator can toggle that behaviour.

use crate::op::{NodeId, PhysicalOp};
use crate::plan::PhysicalPlan;

/// Identifies a pipeline within a [`PipelineSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PipelineId(pub usize);

/// One pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// This pipeline's id.
    pub id: PipelineId,
    /// Production members: nodes that emit their output rows while this
    /// pipeline runs.
    pub nodes: Vec<NodeId>,
    /// Tuple sources (classic definition — NL-inner leaves excluded).
    pub driver_nodes: Vec<NodeId>,
    /// Leaves on the inner side of nested-loops joins, the additional driver
    /// nodes of §4.4(1).
    pub nl_inner_leaves: Vec<NodeId>,
    /// Pipelines that feed this one through blocking boundaries; they must
    /// finish before (or as) this pipeline runs.
    pub upstream: Vec<PipelineId>,
}

/// The full decomposition of a plan into pipelines.
#[derive(Debug, Clone)]
pub struct PipelineSet {
    pipelines: Vec<Pipeline>,
    /// Production pipeline of each node (indexed by `NodeId`).
    pipeline_of: Vec<PipelineId>,
    /// Whether each node sits on the inner side of a nested-loops join
    /// within its pipeline.
    nl_inner: Vec<bool>,
}

impl PipelineSet {
    /// Decompose `plan`.
    pub fn decompose(plan: &PhysicalPlan) -> Self {
        let n = plan.len();
        let mut set = PipelineSet {
            pipelines: vec![],
            pipeline_of: vec![PipelineId(0); n],
            nl_inner: vec![false; n],
        };
        let root_pipe = set.new_pipeline();
        set.assign(plan, plan.root(), root_pipe, false);
        set.compute_drivers(plan);
        set
    }

    fn new_pipeline(&mut self) -> PipelineId {
        let id = PipelineId(self.pipelines.len());
        self.pipelines.push(Pipeline {
            id,
            nodes: vec![],
            driver_nodes: vec![],
            nl_inner_leaves: vec![],
            upstream: vec![],
        });
        id
    }

    fn assign(&mut self, plan: &PhysicalPlan, node: NodeId, pipe: PipelineId, nl_inner: bool) {
        self.pipeline_of[node.0] = pipe;
        self.nl_inner[node.0] = nl_inner;
        self.pipelines[pipe.0].nodes.push(node);
        let n = plan.node(node);
        let children = n.children.clone();
        match &n.op {
            op if op.is_blocking() => {
                let child_pipe = self.new_pipeline();
                self.pipelines[pipe.0].upstream.push(child_pipe);
                self.assign(plan, children[0], child_pipe, false);
            }
            PhysicalOp::HashJoin { .. } => {
                // Build side (child 0) is consumed in its own pipeline; probe
                // side shares the join's pipeline.
                let build_pipe = self.new_pipeline();
                self.pipelines[pipe.0].upstream.push(build_pipe);
                self.assign(plan, children[0], build_pipe, false);
                self.assign(plan, children[1], pipe, nl_inner);
            }
            PhysicalOp::NestedLoops { .. } => {
                self.assign(plan, children[0], pipe, nl_inner);
                self.assign(plan, children[1], pipe, true);
            }
            _ => {
                for c in children {
                    self.assign(plan, c, pipe, nl_inner);
                }
            }
        }
    }

    fn compute_drivers(&mut self, plan: &PhysicalPlan) {
        for p in 0..self.pipelines.len() {
            let pipe_id = PipelineId(p);
            let members = self.pipelines[p].nodes.clone();
            for node in members {
                let n = plan.node(node);
                let is_source = n.children.iter().all(|&c| self.pipeline_of[c.0] != pipe_id);
                if !is_source {
                    continue;
                }
                if self.nl_inner[node.0] {
                    self.pipelines[p].nl_inner_leaves.push(node);
                } else {
                    self.pipelines[p].driver_nodes.push(node);
                }
            }
        }
    }

    /// All pipelines. Index 0 is the root pipeline.
    pub fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }

    /// The pipeline with the given id.
    pub fn pipeline(&self, id: PipelineId) -> &Pipeline {
        &self.pipelines[id.0]
    }

    /// Number of pipelines.
    pub fn len(&self) -> usize {
        self.pipelines.len()
    }

    /// True if there are no pipelines (never for decomposed plans).
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }

    /// The pipeline in which `node` produces its output.
    pub fn pipeline_of(&self, node: NodeId) -> PipelineId {
        self.pipeline_of[node.0]
    }

    /// Whether `node` is separated from its pipeline's sources by at least
    /// one semi-blocking operator **below** it in the same pipeline — the
    /// condition under which §4.4(2) switches cardinality-refinement
    /// scale-up from driver-node progress to immediate-child progress.
    #[cfg(test)]
    pub(crate) fn semi_blocking_below(&self, plan: &PhysicalPlan, node: NodeId) -> bool {
        let pipe = self.pipeline_of(node);
        let mut stack: Vec<NodeId> = plan
            .node(node)
            .children
            .iter()
            .copied()
            .filter(|c| self.pipeline_of(*c) == pipe)
            .collect();
        while let Some(id) = stack.pop() {
            let n = plan.node(id);
            if n.op.is_semi_blocking() {
                return true;
            }
            stack.extend(
                n.children
                    .iter()
                    .copied()
                    .filter(|c| self.pipeline_of(*c) == pipe),
            );
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::{AggFunc, Aggregate, Expr};
    use crate::op::{JoinKind, SortKey};
    use lqs_storage::{Column, DataType, Database, Table, TableId, Value};

    fn test_db() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let mut ta = Table::new(
            "A",
            lqs_storage::Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("x", DataType::Int),
            ]),
        );
        let mut tb = Table::new(
            "B",
            lqs_storage::Schema::new(vec![
                Column::new("b", DataType::Int),
                Column::new("y", DataType::Int),
            ]),
        );
        for i in 0..1000 {
            ta.insert(vec![Value::Int(i), Value::Int(i % 10)]).unwrap();
            tb.insert(vec![Value::Int(i), Value::Int(i % 20)]).unwrap();
        }
        let ta = db.add_table_analyzed(ta);
        let tb = db.add_table_analyzed(tb);
        (db, ta, tb)
    }

    /// The paper's Figure 5: Scan A → Sort feeding a Merge Join with Scan B,
    /// then Filter and (Hash) Group-By. Expect 3 pipelines:
    ///   P1: Scan A (sink = Sort)
    ///   P-root-pred: Sort, Scan B, Merge, Filter feeding Hash Agg (sink)
    ///   P-root: Hash Agg output.
    #[test]
    fn figure5_decomposition() {
        let (db, ta, tb) = test_db();
        let mut b = PlanBuilder::new(&db);
        let scan_a = b.table_scan(ta);
        let sort = b.sort(scan_a, vec![SortKey::asc(0)]);
        let scan_b = b.table_scan(tb);
        let merge = b.merge_join(JoinKind::Inner, sort, scan_b, vec![0], vec![0]);
        let filter = b.filter(merge, Expr::col(1).gt(Expr::lit(2i64)));
        let agg = b.hash_aggregate(filter, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 2)]);
        let plan = b.finish(agg);
        let pipes = PipelineSet::decompose(&plan);

        assert_eq!(pipes.len(), 3);
        // Root pipeline: just the hash aggregate's output phase.
        let root = pipes.pipeline(PipelineId(0));
        assert_eq!(root.nodes, vec![agg]);
        assert_eq!(root.driver_nodes, vec![agg]);
        // Middle pipeline: sort(out), scan B, merge, filter; sink = agg.
        let mid = pipes.pipeline(pipes.pipeline_of(merge));
        assert_eq!(root.upstream, vec![mid.id]);
        assert!(mid.nodes.contains(&sort));
        assert!(mid.nodes.contains(&scan_b));
        assert!(mid.nodes.contains(&filter));
        // Drivers of the middle pipeline: the sort (whose output N is exact
        // once P1 finishes) and scan B.
        let mut drivers = mid.driver_nodes.clone();
        drivers.sort();
        let mut expect = vec![sort, scan_b];
        expect.sort();
        assert_eq!(drivers, expect);
        // First pipeline: scan A only, sink = sort.
        let p1 = pipes.pipeline(pipes.pipeline_of(scan_a));
        assert_eq!(p1.nodes, vec![scan_a]);
        assert_eq!(mid.upstream, vec![p1.id]);
        assert_eq!(p1.driver_nodes, vec![scan_a]);
    }

    #[test]
    fn hash_join_build_side_is_own_pipeline() {
        let (db, ta, tb) = test_db();
        let mut b = PlanBuilder::new(&db);
        let build = b.table_scan(ta);
        let probe = b.table_scan(tb);
        let join = b.hash_join(JoinKind::Inner, build, probe, vec![0], vec![0]);
        let plan = b.finish(join);
        let pipes = PipelineSet::decompose(&plan);

        assert_eq!(pipes.len(), 2);
        assert_ne!(pipes.pipeline_of(build), pipes.pipeline_of(probe));
        assert_eq!(pipes.pipeline_of(join), pipes.pipeline_of(probe));
        let build_pipe = pipes.pipeline(pipes.pipeline_of(build));
        // Root pipeline's upstream is the build pipeline.
        let root = pipes.pipeline(pipes.pipeline_of(join));
        assert_eq!(root.upstream, vec![build_pipe.id]);
    }

    #[test]
    fn nested_loops_inner_leaves_not_drivers() {
        let (db, ta, tb) = test_db();
        let mut b = PlanBuilder::new(&db);
        let outer = b.table_scan(ta);
        let inner = b.table_scan(tb);
        let nl = b.nested_loops(
            JoinKind::Inner,
            outer,
            inner,
            Some(Expr::col(0).eq(Expr::col(2))),
            1,
        );
        let plan = b.finish(nl);
        let pipes = PipelineSet::decompose(&plan);

        assert_eq!(pipes.len(), 1);
        let p = pipes.pipeline(PipelineId(0));
        assert_eq!(p.driver_nodes, vec![outer]);
        assert_eq!(p.nl_inner_leaves, vec![inner]);
    }

    #[test]
    fn semi_blocking_below_detection() {
        let (db, ta, tb) = test_db();
        let mut b = PlanBuilder::new(&db);
        let outer = b.table_scan(ta);
        let inner = b.table_scan(tb);
        // Buffered NL (semi-blocking) under an exchange under a filter.
        let nl = b.nested_loops(JoinKind::Inner, outer, inner, None, 512);
        let ex = b.exchange(nl, crate::op::ExchangeKind::GatherStreams, 4);
        let filter = b.filter(ex, Expr::col(0).gt(Expr::lit(0i64)));
        let plan = b.finish(filter);
        let pipes = PipelineSet::decompose(&plan);

        assert!(pipes.semi_blocking_below(&plan, filter));
        assert!(pipes.semi_blocking_below(&plan, ex));
        assert!(!pipes.semi_blocking_below(&plan, outer));
        // The NL node itself: nothing semi-blocking *below* it.
        assert!(!pipes.semi_blocking_below(&plan, nl));
    }

    #[test]
    fn eager_spool_blocks_lazy_does_not() {
        let (db, ta, _) = test_db();
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(ta);
        let spool = b.spool(scan, false);
        let plan = b.finish(spool);
        assert_eq!(PipelineSet::decompose(&plan).len(), 2);

        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(ta);
        let spool = b.spool(scan, true);
        let plan = b.finish(spool);
        assert_eq!(PipelineSet::decompose(&plan).len(), 1);
    }
}
