//! Estimator explain diagnostics: *why* each node's progress figure is
//! what it is at a given snapshot.
//!
//! Every [`NodeProgress`](crate::estimator::NodeProgress) carries an
//! [`Explanation`] naming the §4 model that produced the figure, where the
//! cardinality estimate came from, and whether (and by how much) the
//! Appendix-A bounds clamped it. [`ExplainCounters`] summarize one
//! snapshot; they are plain sums, so harnesses aggregate them across
//! snapshots and runs with [`ExplainCounters::merge`].

use serde::Serialize;

/// Which progress model produced a node's figure, in the estimator's
/// selection order (§4.5 → §4.7 → §4.3 → Equation 1). This reproduction
/// has no DML operators, so the paper's trickle-insert path never arises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimationPath {
    /// Operator closed: progress pinned at 1.
    Closed,
    /// Operator never opened but an enclosing operator closed (e.g. the
    /// inner side of a join whose outer produced no rows): it can never
    /// execute, so progress is pinned at 1.
    Skipped,
    /// §4.5 two-phase blocking model (input + output virtual nodes).
    TwoPhaseBlocking,
    /// §4.7 batch-mode segment fraction.
    BatchModeSegments,
    /// §4.3 storage-filtered scan: fraction of logical I/O issued.
    StorageFilteredScan,
    /// Equation 1 GetNext model (`k / N̂`).
    GetNext,
}

impl EstimationPath {
    /// Stable lower-snake label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            EstimationPath::Closed => "closed",
            EstimationPath::Skipped => "skipped",
            EstimationPath::TwoPhaseBlocking => "two_phase_blocking",
            EstimationPath::BatchModeSegments => "batch_mode_segments",
            EstimationPath::StorageFilteredScan => "storage_filtered_scan",
            EstimationPath::GetNext => "get_next",
        }
    }
}

/// Where a node's `N̂` came from at this snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinementSource {
    /// Optimizer estimate or exactly-known cardinality, unrefined.
    Static,
    /// Node closed: `N̂` replaced by the observed final `k`.
    ObservedFinal,
    /// Node skipped (never opened under a closed ancestor): `N̂` is the
    /// zero rows it will ever produce.
    Skipped,
    /// Propagated through a blocking boundary (§7 extension (a)).
    BlockingPropagation,
    /// Nested-loops inner projection: per-execution rate × outer total
    /// (§4.1 last ¶, §4.4(3)).
    NestedLoopsInner,
    /// Immediate-child scale-up under a semi-blocking boundary (§4.4(2)).
    ImmediateChild,
    /// Pipeline driver α scale-up (§4.1 Equation 3).
    DriverAlpha,
}

impl RefinementSource {
    /// Stable lower-snake label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RefinementSource::Static => "static",
            RefinementSource::ObservedFinal => "observed_final",
            RefinementSource::Skipped => "skipped",
            RefinementSource::BlockingPropagation => "blocking_propagation",
            RefinementSource::NestedLoopsInner => "nested_loops_inner",
            RefinementSource::ImmediateChild => "immediate_child",
            RefinementSource::DriverAlpha => "driver_alpha",
        }
    }

    /// Whether this source represents an online refinement (as opposed to
    /// the static estimate or the trivial closed-node substitution).
    pub(crate) fn is_refinement(&self) -> bool {
        matches!(
            self,
            RefinementSource::BlockingPropagation
                | RefinementSource::NestedLoopsInner
                | RefinementSource::ImmediateChild
                | RefinementSource::DriverAlpha
        )
    }
}

/// How one node's progress figure was produced at one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The model that produced the progress figure.
    pub path: EstimationPath,
    /// Where the cardinality estimate came from.
    pub refinement: RefinementSource,
    /// The estimate before bounds clamping.
    pub pre_bound_n: f64,
    /// Signed clamp adjustment: `refined_n - pre_bound_n`. Positive means
    /// the lower bound raised the estimate, negative means the upper bound
    /// cut it, zero means the bounds left it alone (or bounding is off).
    pub clamp_delta: f64,
}

impl Explanation {
    /// Whether the Appendix-A bounds actually moved this estimate.
    pub fn clamped(&self) -> bool {
        self.clamp_delta != 0.0
    }
}

/// Per-snapshot totals over all nodes' explanations. Plain sums —
/// aggregate across snapshots or runs with [`ExplainCounters::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ExplainCounters {
    /// Nodes whose `N̂` came from an online refinement this snapshot.
    pub refinements_applied: u64,
    /// Nodes whose estimate the Appendix-A bounds moved this snapshot.
    pub clamps_hit: u64,
    /// Nodes priced by a non-GetNext progress model (two-phase, batch
    /// segments, or storage I/O fraction).
    pub special_model_nodes: u64,
}

impl ExplainCounters {
    /// Tally one node's explanation.
    pub fn record(&mut self, e: &Explanation) {
        if e.refinement.is_refinement() {
            self.refinements_applied += 1;
        }
        if e.clamped() {
            self.clamps_hit += 1;
        }
        if matches!(
            e.path,
            EstimationPath::TwoPhaseBlocking
                | EstimationPath::BatchModeSegments
                | EstimationPath::StorageFilteredScan
        ) {
            self.special_model_nodes += 1;
        }
    }

    /// Accumulate another tally into this one.
    pub fn merge(&mut self, other: &ExplainCounters) {
        self.refinements_applied += other.refinements_applied;
        self.clamps_hit += other.clamps_hit;
        self.special_model_nodes += other.special_model_nodes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_tally_and_merge() {
        let mut c = ExplainCounters::default();
        c.record(&Explanation {
            path: EstimationPath::StorageFilteredScan,
            refinement: RefinementSource::DriverAlpha,
            pre_bound_n: 100.0,
            clamp_delta: 12.0,
        });
        c.record(&Explanation {
            path: EstimationPath::GetNext,
            refinement: RefinementSource::Static,
            pre_bound_n: 50.0,
            clamp_delta: 0.0,
        });
        assert_eq!(c.refinements_applied, 1);
        assert_eq!(c.clamps_hit, 1);
        assert_eq!(c.special_model_nodes, 1);

        let mut total = ExplainCounters::default();
        total.merge(&c);
        total.merge(&c);
        assert_eq!(total.refinements_applied, 2);
        assert_eq!(total.clamps_hit, 2);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EstimationPath::GetNext.label(), "get_next");
        assert_eq!(RefinementSource::DriverAlpha.label(), "driver_alpha");
        assert!(!RefinementSource::ObservedFinal.is_refinement());
        assert!(RefinementSource::ImmediateChild.is_refinement());
    }
}
