//! Operator weights and the longest-path pipeline model (§4.6).
//!
//! Each pipeline is a *speed-independent* group of concurrently executing
//! operators \[18\]. A pipeline's estimated duration is the sum over its
//! members of `wᵢ × N̂ᵢ`, where `wᵢ = max(cpu-per-tuple, io-per-tuple)` — the
//! paper's simplifying assumption that CPU and I/O within an operator fully
//! overlap. The overall query duration is governed by the most expensive
//! root-to-leaf chain of pipelines, so query progress is computed over the
//! nodes on that chain only.

use crate::statics::PlanStatics;
use lqs_plan::{NodeId, PipelineId};

/// Estimated duration of one pipeline under current cardinality estimates.
pub fn pipeline_duration(statics: &PlanStatics, pipe: PipelineId, n_hat: &[f64]) -> f64 {
    statics
        .pipelines
        .pipeline(pipe)
        .nodes
        .iter()
        .map(|&n| statics.nodes[n.0].weight * n_hat[n.0].max(1.0))
        .sum()
}

/// Per pipeline, once visited: the duration of the most expensive chain of
/// pipelines starting at it, and the upstream pipeline that chain continues
/// into (`None` at a leaf pipeline).
pub(crate) type ChainMemo = Vec<Option<(f64, Option<PipelineId>)>>;

/// The set of nodes on the longest root-to-leaf path of pipelines.
///
/// Recursion over the pipeline dependency tree: a path through pipeline `P`
/// costs `duration(P)` plus the most expensive path among its upstream
/// pipelines; the chosen path's member nodes are collected.
pub fn longest_path_nodes(statics: &PlanStatics, n_hat: &[f64]) -> Vec<NodeId> {
    let mut out = Vec::new();
    walk_longest_path(statics, n_hat, &mut ChainMemo::new(), |n| out.push(n));
    out
}

/// Visit the nodes of [`longest_path_nodes`] in its order (root pipeline
/// first), with `memo` as reusable scratch.
pub(crate) fn walk_longest_path(
    statics: &PlanStatics,
    n_hat: &[f64],
    memo: &mut ChainMemo,
    mut visit: impl FnMut(NodeId),
) {
    memo.clear();
    memo.resize(statics.pipelines.len(), None);
    longest_from(statics, PipelineId(0), n_hat, memo);
    let mut next = Some(PipelineId(0));
    while let Some(pipe) = next {
        for &n in &statics.pipelines.pipeline(pipe).nodes {
            visit(n);
        }
        next = memo[pipe.0].and_then(|(_, up)| up);
    }
}

fn longest_from(
    statics: &PlanStatics,
    pipe: PipelineId,
    n_hat: &[f64],
    memo: &mut ChainMemo,
) -> f64 {
    if let Some((total, _)) = memo[pipe.0] {
        return total;
    }
    let own = pipeline_duration(statics, pipe, n_hat);
    let mut best = (0.0f64, None);
    for &up in &statics.pipelines.pipeline(pipe).upstream {
        let d = longest_from(statics, up, n_hat, memo);
        if d > best.0 {
            best = (d, Some(up));
        }
    }
    let total = own + best.0;
    memo[pipe.0] = Some((total, best.1));
    total
}
