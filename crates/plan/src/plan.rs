//! The physical plan tree: an arena of [`PlanNode`]s with optimizer
//! estimates attached.
//!
//! A plan is the *showplan* of the simulator — everything the client-side
//! progress estimator is allowed to know statically: operator kinds, tree
//! shape, estimated cardinalities, estimated per-tuple CPU and I/O costs,
//! and batch-mode flags. Runtime counters arrive separately through DMV
//! snapshots (`lqs-exec`).

use crate::op::{NodeId, PhysicalOp};
use lqs_storage::TableId;

/// Where an output column's values come from, for statistics lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Copied (possibly through joins/sorts/spools) from a base column.
    Base(TableId, usize),
    /// Computed (aggregates, compute scalars, segment markers, RIDs).
    Computed,
}

/// One operator in the plan.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// This node's id (index into the plan arena).
    pub id: NodeId,
    /// The physical operator.
    pub op: PhysicalOp,
    /// Children, in operator-specific order (see [`PhysicalOp`] docs).
    pub children: Vec<NodeId>,
    /// Parent node, if any (filled by the builder).
    pub parent: Option<NodeId>,
    /// Optimizer estimate: rows produced **per execution**.
    pub est_rows_per_exec: f64,
    /// Optimizer estimate: number of times this node is (re-)executed.
    /// 1 everywhere except inner subtrees of nested-loops joins.
    pub est_executions: f64,
    /// Optimizer estimate: total CPU nanoseconds over the whole query.
    pub est_cpu_ns: f64,
    /// Optimizer estimate: total logical I/O pages over the whole query.
    pub est_io_pages: f64,
    /// True if the operator executes in batch mode (§4.7).
    pub batch_mode: bool,
    /// Number of output columns.
    pub output_arity: usize,
    /// Per-output-column provenance.
    pub provenance: Vec<Provenance>,
}

impl PlanNode {
    /// Optimizer estimate of the *total* rows this node outputs across all
    /// executions — the `N̂ᵢ` of the paper's Equation 2.
    pub fn est_total_rows(&self) -> f64 {
        self.est_rows_per_exec * self.est_executions
    }

    /// Estimated CPU cost per output tuple, in nanoseconds.
    pub fn est_cpu_per_tuple(&self) -> f64 {
        self.est_cpu_ns / self.est_total_rows().max(1.0)
    }

    /// Estimated I/O cost per output tuple, in pages.
    pub fn est_io_per_tuple(&self) -> f64 {
        self.est_io_pages / self.est_total_rows().max(1.0)
    }
}

/// A complete physical plan.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    nodes: Vec<PlanNode>,
    root: NodeId,
}

impl PhysicalPlan {
    /// Assemble a plan from an arena and its root. Intended for use by
    /// [`crate::builder::PlanBuilder::finish`].
    pub(crate) fn new(nodes: Vec<PlanNode>, root: NodeId) -> Self {
        PhysicalPlan { nodes, root }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.0]
    }

    /// Mutable access (used by refinement experiments that overwrite
    /// estimates wholesale; the estimator itself never mutates plans).
    pub fn node_mut(&mut self, id: NodeId) -> &mut PlanNode {
        &mut self.nodes[id.0]
    }

    /// All nodes, in arena order.
    pub fn nodes(&self) -> &[PlanNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the plan has no nodes (never the case for built plans).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node ids in post-order (children before parents), the order in which
    /// operators complete execution.
    pub fn post_order(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        self.post_order_from(self.root, &mut out);
        out
    }

    fn post_order_from(&self, id: NodeId, out: &mut Vec<NodeId>) {
        for &c in &self.node(id).children {
            self.post_order_from(c, out);
        }
        out.push(id);
    }

    /// Render the plan as an indented tree, showplan-style.
    pub fn display_tree(&self) -> String {
        let mut out = String::new();
        self.display_node(self.root, 0, &mut out);
        out
    }

    fn display_node(&self, id: NodeId, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let n = self.node(id);
        let _ = writeln!(
            out,
            "{:indent$}{} [node {}] (est_rows={:.0}{}{})",
            "",
            n.op.display_name(),
            id.0,
            n.est_total_rows(),
            if n.est_executions > 1.0 {
                format!(", execs={:.0}", n.est_executions)
            } else {
                String::new()
            },
            if n.batch_mode { ", batch" } else { "" },
            indent = depth * 2
        );
        for &c in &n.children {
            self.display_node(c, depth + 1, out);
        }
    }
}
