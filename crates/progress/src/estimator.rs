//! The progress estimator — the paper's client-side module.
//!
//! Consumes a plan's static metadata ([`PlanStatics`]) plus one DMV snapshot
//! and produces per-operator and query-level progress. The pipeline per
//! snapshot is:
//!
//! 1. start from optimizer estimates `N̂ᵢ`,
//! 2. **refine** them online from observed counters (§4.1, with the §4.4
//!    semi-blocking modifications),
//! 3. **bound** them with the Appendix A worst-case logic (§4.2),
//! 4. compute per-node progress, substituting the special models for
//!    storage-filtered scans (§4.3), blocking operators (§4.5) and
//!    batch-mode pipelines (§4.7),
//! 5. aggregate to query progress, optionally weighted by optimizer
//!    per-tuple costs along the longest path (§4.6).

use crate::bounds::{compute_bounds_into, Bounds};
use crate::config::{EstimatorConfig, QueryModel};
use crate::explain::{EstimationPath, ExplainCounters, Explanation, RefinementSource};
use crate::statics::PlanStatics;
use crate::weights::{walk_longest_path, ChainMemo};
use lqs_exec::DmvSnapshot;
use lqs_plan::{NodeId, PhysicalPlan};
use lqs_storage::Database;
use std::sync::Arc;

/// Progress of a single operator at one snapshot.
#[derive(Debug, Clone)]
pub struct NodeProgress {
    /// Node id.
    pub node: NodeId,
    /// Operator display name.
    pub name: &'static str,
    /// Estimated operator progress in `[0, 1]` (Equation 1).
    pub progress: f64,
    /// The `N̂ᵢ` used (after refinement and bounding).
    pub refined_n: f64,
    /// Worst-case bounds at this snapshot.
    pub bounds: Bounds,
    /// Rows output so far (`kᵢ`).
    pub k: f64,
    /// How this figure was produced (model, refinement source, clamping).
    pub explanation: Explanation,
}

/// How trustworthy a [`ProgressReport`] is, given the telemetry that
/// produced it. Consumers surfacing progress to users should downgrade
/// their display (e.g. grey out the bar) on anything but `Fresh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EstimateQuality {
    /// Computed from an in-order, monotone, recent snapshot.
    Fresh,
    /// Computed from (or held over because of) telemetry older than the
    /// consumer's staleness threshold — the query may have moved on.
    Stale,
    /// The telemetry stream misbehaved (out-of-order, duplicated, or
    /// counter-reset snapshots were detected and sanitized); the estimate
    /// is still bounded but its inputs were reconstructed.
    Degraded,
}

/// Which ensemble member produced (and how members were weighted behind)
/// a [`ProgressReport`]. Only present where the
/// [`crate::ensemble::EnsembleEstimator`] had members to choose between;
/// reports of a lineup of one (and of a plain
/// [`ProgressEstimator::estimate`]) carry `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSelection {
    /// Id of the arg-max-weight member whose per-node detail the report
    /// carries (seeded deterministic tie-break).
    pub selected: &'static str,
    /// Normalized member weights, in ensemble member order.
    pub weights: Vec<(&'static str, f64)>,
}

/// Full progress report for one snapshot.
#[derive(Debug, Clone)]
pub struct ProgressReport {
    /// Estimated query progress in `[0, 1]` (Equation 2).
    pub query_progress: f64,
    /// Per-node progress, indexed by `NodeId.0`.
    pub nodes: Vec<NodeProgress>,
    /// Tally of refinements, clamps, and special models this snapshot.
    pub counters: ExplainCounters,
    /// Trustworthiness of the telemetry behind this report. Plain
    /// [`ProgressEstimator::estimate`] always reports `Fresh`; the
    /// [`crate::guard::GuardedEstimator`] downgrades it when the snapshot
    /// stream misbehaves.
    pub quality: EstimateQuality,
    /// Age of the snapshot behind this report in virtual nanoseconds,
    /// relative to the newest telemetry the producer has seen. Zero for a
    /// report computed from the latest snapshot.
    pub staleness_ns: u64,
    /// Ensemble selection behind this report, when an
    /// [`crate::ensemble::EnsembleEstimator`] of more than one member
    /// composed it.
    pub ensemble: Option<EnsembleSelection>,
}

/// What every estimator configuration derives identically from one
/// snapshot: it depends on the plan and the counters, never on an
/// [`EstimatorConfig`]. An ensemble refreshes one of these per snapshot and
/// every member reads it.
#[derive(Debug, Default)]
pub(crate) struct SnapshotState {
    /// Nodes that will never execute: never opened, but an enclosing
    /// operator already closed (e.g. the inner side of a nested-loops join
    /// whose outer produced zero rows, or a branch pruned at runtime).
    /// Such nodes are complete by definition — without this, a finished
    /// query with an unexecuted subtree never reports 100%.
    pub(crate) skipped: Vec<bool>,
    /// Appendix-A bounds per node; empty when refreshed without them.
    pub(crate) bounds: Vec<Bounds>,
}

#[cfg(test)]
thread_local! {
    /// [`SnapshotState::refresh`] calls on this thread (the "one derivation
    /// per snapshot" assertion in the ensemble's tests).
    pub(crate) static REFRESHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl SnapshotState {
    /// Recompute for snapshot `s`; `bound` says whether any reader needs
    /// the Appendix-A bounds.
    pub(crate) fn refresh(&mut self, statics: &PlanStatics, s: &DmvSnapshot, bound: bool) {
        #[cfg(test)]
        REFRESHES.with(|c| c.set(c.get() + 1));
        self.skipped.clear();
        self.skipped.resize(statics.nodes.len(), false);
        // Parents before children, so a node's own flag is final when its
        // children read it.
        for &id in statics.post_order.iter().rev() {
            let done = self.skipped[id.0] || s.node(id.0).is_closed();
            for &ch in &statics.nodes[id.0].children {
                if done && !s.node(ch.0).is_open() {
                    self.skipped[ch.0] = true;
                }
            }
        }
        if bound {
            compute_bounds_into(statics, s, &mut self.bounds);
        } else {
            self.bounds.clear();
        }
    }
}

/// What one estimator configuration derives from one snapshot, in buffers
/// that are reused from snapshot to snapshot.
#[derive(Debug, Default)]
pub(crate) struct CoreBuffers {
    /// `N̂ᵢ` after refinement and bounding.
    pub(crate) n_hat: Vec<f64>,
    /// `N̂ᵢ` after refinement, before bounding.
    pre_bound: Vec<f64>,
    /// Where each `N̂ᵢ` came from.
    sources: Vec<RefinementSource>,
    /// Per-node progress and the model that produced it.
    progress: Vec<f64>,
    path: Vec<EstimationPath>,
    // Scratch of single steps.
    alpha: Vec<Option<f64>>,
    in_scope: Vec<bool>,
    chains: ChainMemo,
}

/// Reusable buffers for [`ProgressEstimator::estimate_core`]: keep one per
/// estimator (or per thread) and pass it to every call. After a call it
/// holds that snapshot's per-node figures.
#[derive(Debug, Default)]
pub struct EstimateScratch {
    pub(crate) shared: SnapshotState,
    pub(crate) core: CoreBuffers,
}

impl EstimateScratch {
    /// The `N̂ᵢ` of the last estimated snapshot (after refinement and
    /// bounding), indexed by `NodeId.0`.
    pub fn refined_n(&self) -> &[f64] {
        &self.core.n_hat
    }
}

/// The estimator, constructed once per (plan, database) pair and then
/// invoked on every DMV snapshot.
pub struct ProgressEstimator {
    statics: Arc<PlanStatics>,
    config: EstimatorConfig,
}

impl ProgressEstimator {
    /// Build an estimator for `plan`, deriving §4.6 weights from
    /// [`lqs_plan::CostModel::default`].
    ///
    /// **Warning:** only correct for runs executed under the *default* cost
    /// model. If the snapshots you will feed to [`Self::estimate`] came
    /// from an execution with a custom cost model, use
    /// [`Self::with_cost_model`] with that run's recorded model instead —
    /// otherwise the optimizer-estimate baselines (operator weights,
    /// time-to-completion) silently diverge from the observed counters.
    /// Treat the return value like a `#[must_use = "pair with the run's
    /// cost model"]`: harness code should go through
    /// `lqs_bench::run::estimator_for_run`.
    pub fn new(plan: &PhysicalPlan, db: &Database, config: EstimatorConfig) -> Self {
        Self::with_cost_model(plan, db, config, &lqs_plan::CostModel::default())
    }

    /// Build with a specific cost model's I/O constant (for weight parity
    /// with a non-default executor configuration).
    pub fn with_cost_model(
        plan: &PhysicalPlan,
        db: &Database,
        config: EstimatorConfig,
        cost: &lqs_plan::CostModel,
    ) -> Self {
        let statics = PlanStatics::build(plan, db, cost.io_page_ns);
        Self::from_statics(Arc::new(statics), config)
    }

    /// Another configuration over already-built statics: the statics depend
    /// on (plan, database, cost model) only, so estimators that differ in
    /// configuration alone share one copy.
    pub(crate) fn from_statics(statics: Arc<PlanStatics>, config: EstimatorConfig) -> Self {
        ProgressEstimator { statics, config }
    }

    /// The precomputed statics (exposed for metrics and tests).
    pub fn statics(&self) -> &PlanStatics {
        &self.statics
    }

    /// The active configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Estimate progress from one DMV snapshot: [`Self::estimate_core`]
    /// plus the per-node detail and explain diagnostics.
    pub fn estimate(&self, s: &DmvSnapshot) -> ProgressReport {
        let mut scratch = EstimateScratch::default();
        let query_progress = self.estimate_core(s, &mut scratch);
        self.report(s, &scratch.shared, &scratch.core, query_progress)
    }

    /// Query progress from one DMV snapshot without building a
    /// [`ProgressReport`]: every figure is the one [`Self::estimate`]
    /// reports, bit for bit, and nothing is allocated once `scratch` has
    /// seen a snapshot of this plan.
    pub fn estimate_core(&self, s: &DmvSnapshot, scratch: &mut EstimateScratch) -> f64 {
        let bound = self.config.bound_cardinality;
        scratch.shared.refresh(&self.statics, s, bound);
        self.core(s, &scratch.shared, &mut scratch.core)
    }

    /// Query progress at every snapshot of a recorded trace: one
    /// [`Self::estimate_core`] per snapshot over one reused scratch, so each
    /// figure is the one [`Self::estimate`] reports and no report is built.
    pub fn estimate_trace(&self, snapshots: &[DmvSnapshot]) -> Vec<f64> {
        let mut scratch = EstimateScratch::default();
        snapshots
            .iter()
            .map(|s| self.estimate_core(s, &mut scratch))
            .collect()
    }

    /// Steps 1–5 of the module docs over an already-derived `shared`
    /// state.
    pub(crate) fn core(
        &self,
        s: &DmvSnapshot,
        shared: &SnapshotState,
        buf: &mut CoreBuffers,
    ) -> f64 {
        let n_nodes = self.statics.nodes.len();
        let skipped = &shared.skipped[..];

        // --- Steps 1+2: cardinality estimates, optionally refined. -------
        buf.n_hat.clear();
        buf.n_hat.extend(
            self.statics
                .nodes
                .iter()
                .map(|st| st.known_rows.unwrap_or(st.est_rows).max(1.0)),
        );
        buf.sources.clear();
        buf.sources.resize(n_nodes, RefinementSource::Static);
        if self.config.refine_cardinality {
            self.refine(s, skipped, &mut buf.n_hat, &mut buf.sources, &mut buf.alpha);
            if self.config.propagate_refined {
                // §7 extension (a): a second pass lets downstream pipelines'
                // driver denominators (and NL outer totals) see upstream
                // refinements instead of raw optimizer estimates.
                self.refine(s, skipped, &mut buf.n_hat, &mut buf.sources, &mut buf.alpha);
            }
        }

        // --- Step 3: bounding. -------------------------------------------
        buf.pre_bound.clone_from(&buf.n_hat);
        if self.config.bound_cardinality {
            for (n, b) in buf.n_hat.iter_mut().zip(&shared.bounds) {
                *n = b.clamp(*n);
            }
        }

        // --- Step 4: per-node progress. ------------------------------------
        buf.progress.clear();
        buf.path.clear();
        buf.progress.reserve(n_nodes);
        buf.path.reserve(n_nodes);
        for i in 0..n_nodes {
            let (progress, path) = self.node_progress(s, i, skipped, &buf.n_hat);
            buf.progress.push(progress);
            buf.path.push(path);
        }

        // --- Step 5: query progress. ---------------------------------------
        self.query_progress(s, buf)
    }

    /// The full report over what [`Self::core`] left in `buf`.
    pub(crate) fn report(
        &self,
        s: &DmvSnapshot,
        shared: &SnapshotState,
        buf: &CoreBuffers,
        query_progress: f64,
    ) -> ProgressReport {
        let mut counters = ExplainCounters::default();
        let nodes: Vec<NodeProgress> = (0..self.statics.nodes.len())
            .map(|i| {
                let explanation = Explanation {
                    path: buf.path[i],
                    refinement: buf.sources[i],
                    pre_bound_n: buf.pre_bound[i],
                    clamp_delta: buf.n_hat[i] - buf.pre_bound[i],
                };
                counters.record(&explanation);
                NodeProgress {
                    node: NodeId(i),
                    name: self.statics.nodes[i].name,
                    progress: buf.progress[i],
                    refined_n: buf.n_hat[i],
                    bounds: if self.config.bound_cardinality {
                        shared.bounds[i]
                    } else {
                        Bounds::UNBOUNDED
                    },
                    k: s.k(i),
                    explanation,
                }
            })
            .collect();
        ProgressReport {
            query_progress,
            nodes,
            counters,
            quality: EstimateQuality::Fresh,
            staleness_ns: 0,
            ensemble: None,
        }
    }

    // ---------------------------------------------------------------------

    /// §4.1 + §4.4 cardinality refinement. Records, per node, which source
    /// last set its estimate in `sources` (for explain diagnostics).
    fn refine(
        &self,
        s: &DmvSnapshot,
        skipped: &[bool],
        n_hat: &mut [f64],
        sources: &mut [RefinementSource],
        alpha: &mut Vec<Option<f64>>,
    ) {
        let statics = &*self.statics;
        // Per-pipeline α = Σ driver k / Σ driver N (§4.1 Equation 3), with
        // driver N taken from exactly-known cardinalities where possible.
        alpha.clear();
        alpha.resize(statics.pipelines.len(), None);
        for p in statics.pipelines.pipelines() {
            let mut seen = 0.0;
            let mut total = 0.0;
            // §4.4(1): inner-side leaves of NL joins become drivers too.
            let nl_leaves: &[NodeId] = if self.config.semi_blocking_adjustments {
                &p.nl_inner_leaves
            } else {
                &[]
            };
            let drivers = || p.driver_nodes.iter().chain(nl_leaves);
            for &d in drivers() {
                let st = &statics.nodes[d.0];
                let c = s.node(d.0);
                let n_d = self.driver_total(s, d, n_hat);
                // §4.3: a storage-filtered driver's row progress is not
                // trustworthy; substitute its I/O fraction.
                if st.storage_filtered && self.config.storage_predicate_io {
                    if let Some(pages) = st.total_pages {
                        let frac = (c.logical_reads as f64 / pages).min(1.0);
                        seen += frac * n_d;
                        total += n_d;
                        continue;
                    }
                }
                seen += (c.rows_output as f64).min(n_d);
                total += n_d;
            }
            if total > 0.0 && seen >= self.config.refine_min_driver_rows as f64 {
                alpha[p.id.0] = Some((seen / total).clamp(0.0, 1.0));
            } else if total > 0.0 && drivers().all(|d| s.node(d.0).is_closed() || skipped[d.0]) {
                alpha[p.id.0] = Some(1.0);
            }
        }

        // Refine nodes bottom-up so immediate-child scale-up (§4.4(2)) and
        // outer-before-inner NL refinement see already-refined children.
        for &id in &statics.post_order {
            let i = id.0;
            let st = &statics.nodes[i];
            let c = s.node(i);
            if c.is_closed() {
                n_hat[i] = c.rows_output as f64;
                sources[i] = RefinementSource::ObservedFinal;
                continue;
            }
            if skipped[i] {
                n_hat[i] = 0.0;
                sources[i] = RefinementSource::Skipped;
                continue;
            }
            // §7 extension (a): push refined cardinalities through blocking
            // boundaries. A sort/spool outputs exactly its input, so its
            // total inherits the child's refined total; a grouped aggregate
            // scales its group estimate by the input's refinement ratio.
            if self.config.propagate_refined && st.blocking && !st.children.is_empty() {
                let child_refined: f64 = st.children.iter().map(|ch| n_hat[ch.0]).sum();
                let k = c.rows_output as f64;
                match st.bound_kind {
                    crate::statics::BoundKind::SortLike => {
                        n_hat[i] = child_refined.max(k).max(1.0);
                        sources[i] = RefinementSource::BlockingPropagation;
                        continue;
                    }
                    crate::statics::BoundKind::Aggregate { scalar: false } => {
                        let child_est: f64 = st
                            .children
                            .iter()
                            .map(|ch| statics.nodes[ch.0].est_rows.max(1.0))
                            .sum();
                        let ratio = (child_refined / child_est).max(1e-3);
                        n_hat[i] = (st.est_rows * ratio).min(child_refined).max(k).max(1.0);
                        sources[i] = RefinementSource::BlockingPropagation;
                        continue;
                    }
                    _ => {}
                }
            }
            if st.known_rows.is_some() && st.enclosing_nl.is_none() {
                continue; // exact already
            }
            if !c.is_open() {
                continue; // nothing observed yet
            }
            // Guard conditions (§4.1): enough input seen, and for filtering
            // operators, both passing and non-passing rows observed.
            if c.rows_input + c.rows_output < self.config.refine_min_node_rows {
                continue;
            }
            if st.filters_rows {
                let passing = c.rows_output > 0;
                let non_passing = c.rows_input > c.rows_output || c.logical_reads > 0;
                if !(passing && non_passing) {
                    continue;
                }
            }

            // Inner side of a nested-loops join: project per-execution rate
            // times the (refined) total outer cardinality (§4.1 last ¶,
            // §4.4(3)).
            if let Some(nl) = st.enclosing_nl {
                let outer = statics.nodes[nl.0].children[0];
                let outer_total = n_hat[outer.0].max(1.0);
                let nl_c = s.node(nl.0);
                // §4.4(3): scale by outer rows actually *processed*; without
                // the adjustment, use outer rows consumed (which includes
                // buffered rows and over-scales).
                let execs = if self.config.semi_blocking_adjustments {
                    nl_c.rows_processed.max(1) as f64
                } else {
                    s.node(outer.0).rows_output.max(1) as f64
                };
                let per_exec = c.rows_output as f64 / execs;
                n_hat[i] = (per_exec * outer_total).max(c.rows_output as f64);
                sources[i] = RefinementSource::NestedLoopsInner;
                continue;
            }

            // Pick the scale-up source: pipeline drivers, or the immediate
            // child when a semi-blocking operator buffers below us (§4.4(2)).
            let pipe = statics.pipelines.pipeline_of(id);
            let (a, source) = if self.config.semi_blocking_adjustments
                && !st.children.is_empty()
                && st.semi_blocking_below
            {
                let mut kk = 0.0;
                let mut nn = 0.0;
                for &ch in &st.children {
                    kk += s.node(ch.0).rows_output as f64;
                    nn += n_hat[ch.0].max(1.0);
                }
                if nn > 0.0 {
                    (
                        Some((kk / nn).clamp(0.0, 1.0)),
                        RefinementSource::ImmediateChild,
                    )
                } else {
                    (None, RefinementSource::Static)
                }
            } else {
                (alpha[pipe.0], RefinementSource::DriverAlpha)
            };
            let Some(a) = a else { continue };
            if a <= 0.0 {
                continue;
            }
            n_hat[i] = (c.rows_output as f64 / a).max(c.rows_output as f64);
            sources[i] = source;
        }
    }

    /// Best-known total cardinality of a driver node: exact where possible
    /// (§3.1.1), otherwise the current estimate.
    fn driver_total(&self, s: &DmvSnapshot, d: NodeId, n_hat: &[f64]) -> f64 {
        let st = &self.statics.nodes[d.0];
        if let Some(n) = st.known_rows {
            if st.enclosing_nl.is_none() {
                return n.max(1.0);
            }
        }
        let c = s.node(d.0);
        if c.is_closed() {
            return (c.rows_output as f64).max(1.0);
        }
        // A blocking boundary node acting as a source: once its input side
        // is complete, its output total is exact for sort-like operators
        // (output = input).
        if st.blocking {
            let input_done = st.children.iter().all(|ch| s.node(ch.0).is_closed());
            if input_done
                && matches!(
                    self.statics.nodes[d.0].bound_kind,
                    crate::statics::BoundKind::SortLike
                )
            {
                return (c.rows_input as f64).max(1.0);
            }
        }
        n_hat[d.0].max(1.0)
    }

    /// Effective §4.6 weight for a node: the optimizer-derived per-tuple
    /// weight, times any learned feedback multiplier for its operator type
    /// (§7 extension (b)).
    fn weight_of(&self, i: usize) -> f64 {
        let st = &self.statics.nodes[i];
        let mult = self
            .config
            .weight_feedback
            .as_ref()
            .and_then(|m| m.get(st.name).copied())
            .unwrap_or(1.0);
        st.weight * mult
    }

    /// Per-node progress with the §4.3/§4.5/§4.7 special models, plus the
    /// model actually used (for explain diagnostics).
    fn node_progress(
        &self,
        s: &DmvSnapshot,
        i: usize,
        skipped: &[bool],
        n_hat: &[f64],
    ) -> (f64, EstimationPath) {
        let st = &self.statics.nodes[i];
        let c = s.node(i);
        if c.is_closed() {
            return (1.0, EstimationPath::Closed);
        }
        if skipped[i] {
            return (1.0, EstimationPath::Skipped);
        }
        // §4.5 first: a blocking operator in a batch pipeline still has a
        // distinct output phase, which segment fractions cannot see.
        if self.config.two_phase_blocking && st.blocking && !st.children.is_empty() {
            let n_in: f64 = st.children.iter().map(|ch| n_hat[ch.0].max(1.0)).sum();
            let k_in = c.rows_input as f64;
            let n_out = n_hat[i].max(1.0);
            let k_out = c.rows_output as f64;
            let p = ((k_in + k_out) / (n_in + n_out)).clamp(0.0, 1.0);
            return (p, EstimationPath::TwoPhaseBlocking);
        }
        // §4.7: batch-mode — segment fraction.
        if self.config.batch_mode_segments && st.batch_mode {
            if let Some(total) = st.total_segments {
                let p = (c.segments_processed as f64 / total).clamp(0.0, 1.0);
                return (p, EstimationPath::BatchModeSegments);
            }
            // Batch operator above the scan(s): fraction of segments
            // processed in its subtree.
            let scans = &st.columnstore_scans;
            if !scans.is_empty() {
                let done: f64 = scans
                    .iter()
                    .map(|n| s.node(n.0).segments_processed as f64)
                    .sum();
                let total: f64 = scans
                    .iter()
                    .map(|n| self.statics.nodes[n.0].total_segments.unwrap_or(1.0))
                    .sum();
                let p = (done / total.max(1.0)).clamp(0.0, 1.0);
                return (p, EstimationPath::BatchModeSegments);
            }
        }
        // §4.3: storage-filtered scans — fraction of logical I/O issued.
        if self.config.storage_predicate_io && st.storage_filtered {
            if let Some(pages) = st.total_pages {
                let p = (c.logical_reads as f64 / pages).clamp(0.0, 1.0);
                return (p, EstimationPath::StorageFilteredScan);
            }
        }
        // GetNext model (Equation 1).
        let p = (c.rows_output as f64 / n_hat[i].max(1.0)).clamp(0.0, 1.0);
        (p, EstimationPath::GetNext)
    }

    /// Query-level progress (Equation 2), over the configured node set.
    fn query_progress(&self, s: &DmvSnapshot, buf: &mut CoreBuffers) -> f64 {
        let statics = &*self.statics;
        let n_hat = &buf.n_hat[..];
        let in_scope = &mut buf.in_scope;
        in_scope.clear();
        match self.config.query_model {
            QueryModel::TotalGetNext => {
                if self.config.operator_weights {
                    // §4.6: only the longest path of speed-independent
                    // pipelines contributes.
                    in_scope.resize(statics.nodes.len(), false);
                    walk_longest_path(statics, n_hat, &mut buf.chains, |id| in_scope[id.0] = true);
                } else {
                    in_scope.resize(statics.nodes.len(), true);
                }
            }
            QueryModel::DriverNodes => {
                in_scope.resize(statics.nodes.len(), false);
                for p in statics.pipelines.pipelines() {
                    for &d in &p.driver_nodes {
                        in_scope[d.0] = true;
                    }
                    if self.config.semi_blocking_adjustments {
                        for &d in &p.nl_inner_leaves {
                            in_scope[d.0] = true;
                        }
                    }
                }
            }
        }

        let mut num = 0.0;
        let mut den = 0.0;
        for (i, st) in statics.nodes.iter().enumerate() {
            if !in_scope[i] {
                continue;
            }
            let w = if self.config.operator_weights {
                self.weight_of(i)
            } else {
                1.0
            };
            if self.config.two_phase_blocking
                && st.blocking
                && !st.children.is_empty()
                && !matches!(
                    buf.path[i],
                    EstimationPath::Closed | EstimationPath::Skipped
                )
            {
                // Split into input and output virtual nodes (Figure 10).
                let c = s.node(i);
                let n_in: f64 = st.children.iter().map(|ch| n_hat[ch.0].max(1.0)).sum();
                let n_out = n_hat[i].max(1.0);
                let frac = st.input_phase_fraction;
                // Per-tuple weights for the two phases, splitting the
                // node's total estimated work (feedback-scaled like w).
                let total_work = st.work_total_ns * (self.weight_of(i) / st.weight.max(1e-12));
                let w_in = if self.config.operator_weights {
                    total_work * frac / n_in
                } else {
                    1.0
                };
                let w_out = if self.config.operator_weights {
                    total_work * (1.0 - frac) / n_out
                } else {
                    1.0
                };
                num += w_in * (c.rows_input as f64).min(n_in);
                den += w_in * n_in;
                num += w_out * (c.rows_output as f64).min(n_out);
                den += w_out * n_out;
            } else {
                let n = n_hat[i].max(1.0);
                // Use the per-node progress (which folds in the §4.3/§4.7
                // substitutions) as the effective k/N.
                num += w * buf.progress[i] * n;
                den += w * n;
            }
        }
        if den <= 0.0 {
            return 0.0;
        }
        (num / den).clamp(0.0, 1.0)
    }
}
