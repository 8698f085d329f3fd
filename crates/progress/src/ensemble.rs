//! Robust ensemble progress estimation: competing single estimators plus
//! an online statistical selection layer.
//!
//! The paper's shipped estimator is a single model; "A Statistical Approach
//! Towards Robust Progress Estimation" (König, Ding, Chaudhuri, Narasayya)
//! shows that *no* single estimator is trustworthy on every plan shape —
//! spills, skewed joins, and wrong optimizer cardinalities each break a
//! different model — and proposes running a set of competing estimators
//! and selecting among them statistically, online. This module implements
//! that architecture on top of the §4 machinery:
//!
//! * [`Member`] — one competing estimator. Members are **stateless per
//!   snapshot** (like [`ProgressEstimator::estimate`]), which is what makes
//!   offline replays bit-identical to online scoring.
//! * The standard member set ([`EnsembleEstimator::build`]): the shipped
//!   LQS estimator (`lqs`), the driver-node estimator (`dne`), the total
//!   GetNext baseline (`tgn`), a cardinality-refinement-off baseline
//!   (`norefine`), and two per-pipeline variants — `pmax` (progress of the
//!   work-dominant pipeline) and `safe` (worst-case upper-bound
//!   denominators, a conservative never-overestimates model).
//! * [`EnsembleEstimator`] — observes the snapshot stream and maintains
//!   per-member statistics: retrospective loss against the best current
//!   reconstruction of true GetNext progress, monotonicity-violation mass,
//!   refinement churn, and per-snapshot disagreement, seeded with a prior
//!   from pipeline shape features. Weights are a normalized inverse-power
//!   of the combined score; the reported estimate is the weighted mean of
//!   the member estimates — always inside the members' `[min, max]`
//!   envelope — and the selected member is the arg-max weight with a
//!   deterministic seeded tie-break, so replays are byte-for-byte
//!   reproducible.
//! * A single estimator is a **lineup of one**
//!   ([`EnsembleEstimator::single`]): the same step and blend run, its one
//!   weight is the prior's `1.0` and the blend is `1.0 * est / 1.0`, so the
//!   composed figure is the member's, bit for bit. With nothing to choose
//!   between, its selection fold stops after the estimate history.
//!
//! König et al. frame the competing estimators as different readings of
//! one shared feature vector, and that is how a snapshot is processed here:
//! it is **derived once**. Skipped nodes and Appendix-A bounds depend on the
//! plan and the counters only, so they are computed once per snapshot; the
//! lineup's distinct §4 configurations (five for the standard six members)
//! each run one report-free pass over them
//! into reusable buffers; and a member is a *view* — the id of a pass plus
//! the rule (`Figure`) that reads a query-level figure off it. Only the
//! selected member's [`ProgressReport`] is ever built, and `replay` builds
//! none (`tests/ensemble_shared_equivalence.rs` pins all of it, bit for
//! bit, to the per-member design it replaced).
//!
//! Everything here is a pure function of the snapshot stream: two replays
//! of the same stream produce identical weights, selections, and estimates
//! (property-tested in `tests/ensemble_props.rs`).

use crate::config::EstimatorConfig;
use crate::estimator::{
    CoreBuffers, EnsembleSelection, EstimateScratch, ProgressEstimator, ProgressReport,
    SnapshotState,
};
use crate::statics::PlanStatics;
use lqs_plan::{DmvSnapshot, PhysicalPlan, Pipeline, PipelineId};
use lqs_storage::Database;
use std::sync::Arc;

/// How a member reads its query-level figure off a §4 pass.
#[derive(Clone, Copy)]
enum Figure {
    /// The pass's own Equation-2 figure, as configured.
    Config,
    /// Driver progress of the pipeline with the largest estimated total
    /// work (the "pmax" estimator of the robust estimation literature):
    /// robust when one pipeline dominates and the optimizer misprices the
    /// rest. The pipeline is a function of the plan, chosen at build.
    DominantWork(PipelineId),
    /// Appendix-A worst-case *upper bounds* as denominators wherever they
    /// are finite — a conservative estimator that never overestimates, at
    /// the cost of chronic pessimism.
    SafeBounds,
}

/// The pipeline whose nodes carry the most estimated work; ties break on
/// the lowest pipeline id (deterministic). Every decomposition has the
/// root's pipeline 0, so there always is one.
fn dominant_pipeline(statics: &PlanStatics) -> PipelineId {
    let work = |p: &Pipeline| -> f64 {
        p.nodes
            .iter()
            .map(|n| statics.nodes[n.0].work_total_ns)
            .sum()
    };
    let (first, rest) = statics
        .pipelines
        .pipelines()
        .split_first()
        .expect("a decomposition has the root's pipeline");
    let mut best = (work(first), first.id);
    for p in rest {
        let w = work(p);
        if w > best.0 {
            best = (w, p.id);
        }
    }
    best.1
}

/// Driver progress of one pipeline: Σ min(kᵢ, Nᵢ) / Σ Nᵢ over its driver
/// nodes, with closed drivers exact. 1.0 once every member node has closed.
fn pipeline_alpha(statics: &PlanStatics, s: &DmvSnapshot, p: &Pipeline) -> f64 {
    if p.nodes.iter().all(|n| s.node(n.0).is_closed()) {
        return 1.0;
    }
    let mut seen = 0.0;
    let mut total = 0.0;
    for &d in &p.driver_nodes {
        let st = &statics.nodes[d.0];
        let c = s.node(d.0);
        let n_d = if c.is_closed() {
            (c.rows_output as f64).max(1.0)
        } else {
            st.known_rows.unwrap_or(st.est_rows).max(1.0)
        };
        seen += (c.rows_output as f64).min(n_d);
        total += n_d;
    }
    if total <= 0.0 {
        return 0.0;
    }
    (seen / total).clamp(0.0, 1.0)
}

impl Figure {
    /// The member's query progress at `s`, given the shared per-snapshot
    /// state and its pass's own figure.
    fn of(self, statics: &PlanStatics, s: &DmvSnapshot, shared: &SnapshotState, own: f64) -> f64 {
        match self {
            Figure::Config => own,
            Figure::DominantWork(pid) => {
                pipeline_alpha(statics, s, statics.pipelines.pipeline(pid))
            }
            Figure::SafeBounds => {
                // Σkᵢ / Σ ubᵢ with finite worst-case upper bounds as
                // denominators; where no finite bound exists, fall back to
                // max(estimate, k) so the denominator never undershoots.
                let mut num = 0.0;
                let mut den = 0.0;
                for ((st, c), b) in statics.nodes.iter().zip(&s.nodes).zip(&shared.bounds) {
                    let k = c.rows_output as f64;
                    let n = if c.is_closed() {
                        k.max(1.0)
                    } else if b.ub.is_finite() {
                        b.ub.max(k).max(1.0)
                    } else {
                        st.known_rows.unwrap_or(st.est_rows).max(k).max(1.0)
                    };
                    num += k.min(n);
                    den += n;
                }
                if den <= 0.0 {
                    0.0
                } else {
                    (num / den).clamp(0.0, 1.0)
                }
            }
        }
    }
}

/// An ensemble member: a view over one of the ensemble's §4 passes. It
/// owns no derivation of its own — per-node detail is the pass's, and the
/// query-level figure is its `Figure` of the pass and the shared
/// per-snapshot state. `pmax` and `safe` both read the bounded-TGN pass.
/// The figure is a pure function of the snapshot, so an offline replay of a
/// recorded trace reproduces the online figures bit for bit.
pub struct Member {
    id: &'static str,
    /// Which of the [`N_PASSES`] passes this member reads. Members naming
    /// the same pass carry the same configuration; per snapshot the first
    /// of them runs it and the rest read its buffers.
    pass: usize,
    /// That pass's configuration, over the ensemble's one [`PlanStatics`].
    estimator: ProgressEstimator,
    figure: Figure,
}

impl Member {
    /// Stable identifier (metric label, journal id, JSON value).
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// This member alone on one DMV snapshot.
    pub fn estimate(&self, s: &DmvSnapshot) -> ProgressReport {
        let e = &self.estimator;
        let mut scratch = EstimateScratch::default();
        let own = e.estimate_core(s, &mut scratch);
        let query_progress = self.read(s, &scratch.shared, own);
        e.report(s, &scratch.shared, &scratch.core, query_progress)
    }

    /// The member's query progress at `s`, given the shared per-snapshot
    /// state and its pass's own figure.
    fn read(&self, s: &DmvSnapshot, shared: &SnapshotState, own: f64) -> f64 {
        let statics = self.estimator.statics();
        // A closed root is a finished query, whatever a figure makes of
        // the nodes that never opened on the way there.
        if (statics.post_order.last()).is_some_and(|root| s.node(root.0).is_closed()) {
            return 1.0;
        }
        // A member that cannot produce a number reports no progress: it
        // loses weight like any wrong member, and nothing downstream has to
        // survive a NaN.
        let figure = self.figure.of(statics, s, shared, own);
        if figure.is_nan() {
            0.0
        } else {
            figure
        }
    }
}

/// The online selection layer's one input: the `seed` that breaks exact
/// score ties, so two configs differing only in seed produce identical
/// estimates whenever no tie occurs. The scoring coefficients are the
/// private constants of this module (`SHARPNESS`, `MONO_COEFF`, …).
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Tie-break seed (replay determinism; never affects non-tied picks).
    pub seed: u64,
}

impl EnsembleConfig {
    /// The selection layer breaking ties by `seed`.
    pub fn standard(seed: u64) -> Self {
        EnsembleConfig { seed }
    }
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self::standard(0x1_9b5)
    }
}

/// Online selection state: everything the ensemble has learned from the
/// snapshot stream so far. A pure fold over the observed snapshots.
#[derive(Debug)]
struct SelectState {
    /// Observations folded in so far.
    observed: u64,
    /// Σ rows_output across all nodes, per observed snapshot (the
    /// numerator of retrospective true progress).
    sum_k: Vec<f64>,
    /// Per observed snapshot: every member's query-progress estimate.
    est_hist: Vec<PerMember>,
    /// Per member: the latest retrospective loss over the whole history,
    /// and the truth denominator it was taken at. While the denominator
    /// keeps its exact bits, the next loss is this plus the newest row's
    /// term — the same additions in the same order as recomputing it.
    loss: PerMember,
    loss_denom: Option<f64>,
    /// Per member: last estimate (monotonicity basis).
    last_est: PerMember,
    /// Per member: cumulative monotonicity-violation mass.
    mono: PerMember,
    /// Per member: cumulative refinement churn (|ΔΣN̂| / ΣN̂).
    churn: PerMember,
    /// Per member: last Σ refined_n (churn basis).
    last_total_n: PerMember,
    /// Per member: cumulative |estimate − member median|.
    disagree: PerMember,
    /// Current normalized weights.
    weights: PerMember,
    /// Current selected member index (arg-max weight, seeded tie-break).
    selected: usize,
}

impl SelectState {
    fn new(lineup: &Lineup) -> Self {
        let prior = &lineup.prior[..lineup.members.len()];
        SelectState {
            observed: 0,
            sum_k: Vec::new(),
            est_hist: Vec::new(),
            loss: [0.0; MAX_MEMBERS],
            loss_denom: None,
            last_est: [0.0; MAX_MEMBERS],
            mono: [0.0; MAX_MEMBERS],
            churn: [0.0; MAX_MEMBERS],
            last_total_n: [0.0; MAX_MEMBERS],
            disagree: [0.0; MAX_MEMBERS],
            weights: lineup.prior,
            selected: argmax_tiebreak(prior, lineup.config.seed),
        }
    }
}

/// FNV-1a of `(seed, index)` — the deterministic tie-break ordering.
fn tie_rank(seed: u64, index: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in (index as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Index of the maximum weight; exact ties resolve by the seeded FNV rank
/// (then index, for the astronomically unlikely rank collision).
fn argmax_tiebreak(weights: &[f64], seed: u64) -> usize {
    let mut best = 0usize;
    for i in 1..weights.len() {
        if weights[i] > weights[best]
            || (weights[i] == weights[best] && tie_rank(seed, i) < tie_rank(seed, best))
        {
            best = i;
        }
    }
    best
}

/// Median over the members (`values` is left sorted). Ordered by
/// `f64::total_cmp`, so a `NaN` from a degenerate snapshot sorts to an end
/// instead of panicking the poller.
fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Retrospective loss per member: how far its past estimates sit from the
/// *current best reconstruction* of true progress at those past snapshots,
/// `Σk_j / denom`. The truth at a past snapshot is the same for every
/// member, so it is computed once and the sums advance side by side (each
/// in its own order) — all [`MAX_MEMBERS`] lanes of them, so the loop has a
/// fixed width; the lanes past a shorter lineup are never read.
fn retrospective_loss(est_hist: &[PerMember], sum_k: &[f64], denom: f64) -> PerMember {
    let mut loss = [0.0f64; MAX_MEMBERS];
    for (past, &sum_k) in est_hist.iter().zip(sum_k) {
        add_loss_row(&mut loss, past, sum_k, denom);
    }
    loss
}

/// Add one past snapshot's term to every member's retrospective loss.
fn add_loss_row(loss: &mut PerMember, past: &PerMember, sum_k: f64, denom: f64) {
    let truth = (sum_k / denom).clamp(0.0, 1.0);
    for (loss, est) in loss.iter_mut().zip(past) {
        *loss += (est - truth).abs();
    }
}

/// One deterministic replay of an ensemble over a recorded snapshot trace.
#[derive(Debug, Clone)]
pub struct EnsembleReplay {
    /// Ensemble query-progress estimate per snapshot.
    pub estimates: Vec<f64>,
    /// Per member (ensemble order): query-progress estimate per snapshot.
    pub member_estimates: Vec<Vec<f64>>,
    /// Final selection (after the last snapshot); `None` for a lineup of
    /// one, which had nothing to choose.
    pub selection: Option<EnsembleSelection>,
}

/// What an [`EnsembleEstimator`] fixes for a plan: the members (and through
/// them the §4 passes they read) and the tie-break seed.
struct Lineup {
    /// `1..=MAX_MEMBERS` of them, over one shared [`PlanStatics`].
    members: Vec<Member>,
    config: EnsembleConfig,
    /// Prior over members (normalized).
    prior: PerMember,
}

/// What one walk over a snapshot stream accumulates: the selection state,
/// plus the latest snapshot's derivation in buffers every step reuses.
struct Run {
    state: SelectState,
    /// Derived once per snapshot, read by every pass and member.
    shared: SnapshotState,
    /// Per pass: its cardinalities and per-node figures.
    cores: Vec<CoreBuffers>,
    /// Per member: query-progress estimate at the latest snapshot.
    est: PerMember,
}

impl Run {
    fn new(lineup: &Lineup) -> Self {
        Run {
            state: SelectState::new(lineup),
            shared: SnapshotState::default(),
            cores: (0..N_PASSES).map(|_| CoreBuffers::default()).collect(),
            est: [0.0; MAX_MEMBERS],
        }
    }
}

/// The ensemble: a fixed lineup of members plus online selection state.
/// A single estimator is a lineup of one.
///
/// Live consumers drive it through [`EnsembleEstimator::observe`] (stateful,
/// one call per received snapshot); offline consumers use
/// [`EnsembleEstimator::replay`], which folds a whole recorded trace through
/// a *fresh* selection state without touching the live one — the poller's
/// accuracy scoring and the harness's §5 comparison both go through replay,
/// which is what keeps online metrics bit-identical to offline recomputation.
///
/// Either way a snapshot is derived **once**: skipped nodes and Appendix-A
/// bounds are computed once, each distinct §4 configuration runs one pass
/// over them, and the members read their figures off those passes.
pub struct EnsembleEstimator {
    lineup: Lineup,
    live: Run,
}

impl EnsembleEstimator {
    /// Build the standard member set for `plan`: `lqs` (the shipped §4
    /// estimator), `dne`, `tgn`, `norefine`, `pmax`, `safe`.
    pub fn build(
        plan: &PhysicalPlan,
        db: &Database,
        cost: &lqs_plan::CostModel,
        config: EnsembleConfig,
    ) -> Self {
        let norefine = EstimatorConfig {
            refine_cardinality: false,
            propagate_refined: false,
            ..EstimatorConfig::full()
        };
        let statics = Arc::new(PlanStatics::build(plan, db, cost.io_page_ns));
        let prior = shape_prior(&statics);
        let dominant = dominant_pipeline(&statics);
        let member = |id, pass: usize, config, figure| Member {
            id,
            pass,
            estimator: ProgressEstimator::from_statics(statics.clone(), config),
            figure,
        };
        let tgn_bounded = EstimatorConfig::tgn_bounded;
        let members = vec![
            member("lqs", 0, EstimatorConfig::full(), Figure::Config),
            member("dne", 1, EstimatorConfig::dne_refined(), Figure::Config),
            member("tgn", 2, EstimatorConfig::tgn(), Figure::Config),
            member("norefine", 3, norefine, Figure::Config),
            member("pmax", 4, tgn_bounded(), Figure::DominantWork(dominant)),
            member("safe", 4, tgn_bounded(), Figure::SafeBounds),
        ];
        Self::with_lineup(members, config, prior)
    }

    /// A lineup of one: `estimator` as the member `lqs`. Its one weight is
    /// the prior's `1.0` and never moves (the selection fold has nothing to
    /// choose between and stops after the estimate history), so every
    /// composed figure is `estimator`'s own.
    pub fn single(estimator: ProgressEstimator) -> Self {
        let member = Member {
            id: "lqs",
            pass: 0,
            estimator,
            figure: Figure::Config,
        };
        let mut prior = [0.0; MAX_MEMBERS];
        prior[0] = 1.0;
        Self::with_lineup(vec![member], EnsembleConfig::default(), prior)
    }

    fn with_lineup(members: Vec<Member>, config: EnsembleConfig, prior: PerMember) -> Self {
        let lineup = Lineup {
            members,
            config,
            prior,
        };
        let live = Run::new(&lineup);
        EnsembleEstimator { lineup, live }
    }

    /// The plan statics every member shares.
    pub(crate) fn statics(&self) -> &PlanStatics {
        self.lineup.members[0].estimator.statics()
    }

    /// The competing members in ensemble (and weight) order, for stateless
    /// per-member scoring.
    pub fn members(&self) -> impl Iterator<Item = &Member> {
        self.lineup.members.iter()
    }

    /// The current selection (weights + arg-max member) of the *live*
    /// state; `None` for a lineup of one, which had nothing to choose.
    pub fn selection(&self) -> Option<EnsembleSelection> {
        self.lineup.selection_of(&self.live.state)
    }

    /// Observe one snapshot: derive it once, read every member's figure,
    /// update the selection state (unless `freeze` — the guard sets it once
    /// the telemetry stream has misbehaved, so selection never switches on
    /// reconstructed data), and report the weighted ensemble figure with
    /// the selected member's per-node detail — the only report built.
    pub fn observe(&mut self, s: &DmvSnapshot, freeze: bool) -> ProgressReport {
        let (lineup, run) = (&self.lineup, &mut self.live);
        lineup.step(run, s, freeze);
        let selected = &lineup.members[run.state.selected];
        let core = &run.cores[selected.pass];
        let mut report = selected
            .estimator
            .report(s, &run.shared, core, lineup.blend(run));
        report.ensemble = lineup.selection_of(&run.state);
        report
    }

    /// Fold a whole recorded trace through a fresh selection state,
    /// returning every member's estimate sequence, the ensemble's, and the
    /// final selection. Does not touch the live state and builds no
    /// reports; byte-for-byte deterministic for a given trace.
    pub fn replay(&self, snapshots: &[DmvSnapshot]) -> EnsembleReplay {
        let mut run = Run::new(&self.lineup);
        run.state.sum_k.reserve(snapshots.len());
        run.state.est_hist.reserve(snapshots.len());
        let mut estimates = Vec::with_capacity(snapshots.len());
        for s in snapshots {
            self.lineup.step(&mut run, s, false);
            estimates.push(self.lineup.blend(&run));
        }
        // The fold's history already holds every member's estimate at
        // every snapshot, one row per snapshot.
        let history = &run.state.est_hist;
        EnsembleReplay {
            estimates,
            member_estimates: (0..self.lineup.members.len())
                .map(|m| history.iter().map(|row| row[m]).collect())
                .collect(),
            selection: self.lineup.selection_of(&run.state),
        }
    }
}

impl Lineup {
    /// What `state` selected, as reports, journals and `/sessions` show it:
    /// only where there was a choice. A lineup of one selects itself with
    /// weight 1, which says nothing.
    fn selection_of(&self, state: &SelectState) -> Option<EnsembleSelection> {
        self.chooses().then(|| EnsembleSelection {
            selected: self.members[state.selected].id,
            weights: self
                .members
                .iter()
                .zip(&state.weights)
                .map(|(m, w)| (m.id, *w))
                .collect(),
        })
    }

    /// Whether there is a member to select — the one place the member count
    /// decides anything. A lineup of one keeps its initial weight `1.0` and
    /// selection `0` whatever it observes.
    fn chooses(&self) -> bool {
        self.members.len() > 1
    }

    /// Derive snapshot `s` once into `run`, read every member's figure off
    /// it, and (unless `freeze`) fold them into the selection state.
    fn step(&self, run: &mut Run, s: &DmvSnapshot, freeze: bool) {
        let statics = self.members[0].estimator.statics();
        run.shared.refresh(statics, s, true);
        let mut own = [None; N_PASSES];
        for (member, est) in self.members.iter().zip(&mut run.est) {
            let own = *own[member.pass].get_or_insert_with(|| {
                let core = &mut run.cores[member.pass];
                member.estimator.core(s, &run.shared, core)
            });
            *est = member.read(s, &run.shared, own);
        }
        if !freeze {
            self.fold_observation(run, s);
        }
    }

    /// The weighted ensemble figure for the latest snapshot: the weighted
    /// mean of member estimates (inside their `[min, max]` envelope by
    /// construction).
    fn blend(&self, run: &Run) -> f64 {
        let state = &run.state;
        // Blend only the members the selection layer still takes seriously:
        // a renormalized weighted mean over members within a fixed factor of
        // the top weight. This keeps the smoothing benefit of averaging
        // near-equals while refusing to let a discredited member drag the
        // figure (the estimate stays inside the full member [min, max]
        // envelope either way, since it is a convex combination).
        let weights = &state.weights[..self.members.len()];
        let top = weights
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let mut num = 0.0;
        let mut den = 0.0;
        for (&est, &w) in run.est.iter().zip(weights) {
            if w >= top * BLEND_FLOOR {
                num += w * est;
                den += w;
            }
        }
        let blended = if den > 0.0 {
            num / den
        } else {
            run.est[state.selected]
        };
        blended.clamp(0.0, 1.0)
    }

    /// Fold the latest derivation in `run` into its selection state:
    /// histories, penalty masses, retrospective losses, weights, selection.
    fn fold_observation(&self, run: &mut Run, s: &DmvSnapshot) {
        let n = self.members.len();
        let state = &mut run.state;
        let est = run.est;
        state.observed += 1;
        let sum_k: f64 = s.nodes.iter().map(|c| c.rows_output as f64).sum();
        state.sum_k.push(sum_k);

        // Per-snapshot disagreement against the member median.
        let mut sorted = est;
        let med = median(&mut sorted[..n]);
        for (disagree, est) in state.disagree.iter_mut().zip(&est[..n]) {
            *disagree += (est - med).abs();
        }

        // Σ refined_n per pass: a member's total-cardinality view is its
        // pass's.
        let mut pass_total_n = [0.0f64; N_PASSES];
        for (total, core) in pass_total_n.iter_mut().zip(&run.cores) {
            *total = core.n_hat.iter().copied().sum();
        }
        for (m, member) in self.members.iter().enumerate() {
            // Monotonicity-violation mass: true progress never decreases.
            if state.observed > 1 {
                state.mono[m] += (state.last_est[m] - est[m]).max(0.0);
            }
            state.last_est[m] = est[m];
            // Refinement churn: movement of the member's total-cardinality
            // view between consecutive snapshots, normalized.
            let total_n = pass_total_n[member.pass];
            if state.observed > 1 && state.last_total_n[m] > 0.0 {
                state.churn[m] +=
                    (total_n - state.last_total_n[m]).abs() / state.last_total_n[m].max(1.0);
            }
            state.last_total_n[m] = total_n;
        }
        state.est_hist.push(est);
        if !self.chooses() {
            return;
        }

        // Retrospective truth denominator: per-node *median* of the
        // members' refined cardinalities, floored by observed counts, then
        // summed. A median (not any single reference member) keeps the
        // reconstruction honest when one member's refined view collapses
        // mid-run — a saturated member would otherwise shrink the
        // denominator and make every over-estimator look retrospectively
        // right. Closed nodes pin refined_n to the exact final k in every
        // member, so this still converges to the §5 ground-truth
        // denominator as the run completes.
        let mut denom = 0.0f64;
        let mut per_member = [0.0f64; MAX_MEMBERS];
        // Each member's cardinalities, sliced once to the node count.
        let mut n_hats: [&[f64]; MAX_MEMBERS] = [&[]; MAX_MEMBERS];
        for (n_hat, member) in n_hats.iter_mut().zip(&self.members) {
            *n_hat = &run.cores[member.pass].n_hat[..s.nodes.len()];
        }
        for (node, c) in s.nodes.iter().enumerate() {
            let k = c.rows_output as f64;
            for (n_m, n_hat) in per_member.iter_mut().zip(&n_hats[..n]) {
                *n_m = n_hat[node].max(k);
            }
            denom += median(&mut per_member[..n]);
        }
        let denom = denom.max(1.0);

        let loss = match state.loss_denom {
            Some(cached) if cached.to_bits() == denom.to_bits() => {
                let mut loss = state.loss;
                add_loss_row(&mut loss, &est, sum_k, denom);
                loss
            }
            _ => retrospective_loss(&state.est_hist, &state.sum_k, denom),
        };
        state.loss = loss;
        state.loss_denom = Some(denom);
        let obs = state.observed as f64;
        // Weights: inverse-power of the score, blended with the
        // pipeline-shape prior during warmup (the prior's influence decays
        // as observations accumulate).
        const EPS: f64 = 1e-4;
        let mut inv = [0.0f64; MAX_MEMBERS];
        for m in 0..n {
            let score = loss[m] / obs
                + MONO_COEFF * state.mono[m] / obs
                + CHURN_COEFF * state.churn[m] / obs
                + DISAGREE_COEFF * state.disagree[m] / obs;
            inv[m] = (score + EPS).powf(-SHARPNESS);
        }
        let inv_sum: f64 = inv[..n].iter().sum();
        if inv_sum > 0.0 && inv_sum.is_finite() {
            for w in &mut inv[..n] {
                *w /= inv_sum;
            }
        } else {
            inv = self.prior;
        }
        let prior_mix = WARMUP_SNAPSHOTS / (WARMUP_SNAPSHOTS + obs);
        let mut weights = [0.0f64; MAX_MEMBERS];
        for m in 0..n {
            weights[m] = prior_mix * self.prior[m] + (1.0 - prior_mix) * inv[m];
        }
        let w_sum: f64 = weights[..n].iter().sum();
        if w_sum > 0.0 {
            for w in &mut weights[..n] {
                *w /= w_sum;
            }
        }
        state.selected = argmax_tiebreak(&weights[..n], self.config.seed);
        state.weights = weights;
    }
}

/// Most members a lineup holds: the standard ensemble's six.
const MAX_MEMBERS: usize = 6;

/// Most distinct §4 passes a lineup's members read — the standard six's
/// `full`, `dne_refined`, `tgn`, `full` without refinement, and
/// `tgn_bounded` (which `pmax` and `safe` share).
const N_PASSES: usize = 5;

/// One `f64` per member, in lineup order, on the stack at any lineup size:
/// every loop over one runs to the lineup's member count, and the lanes
/// past it stay zero.
type PerMember = [f64; MAX_MEMBERS];

/// Members whose weight is below this fraction of the top weight are left
/// out of the composed blend (they still compete for selection — their
/// scores keep updating every snapshot).
const BLEND_FLOOR: f64 = 0.25;

/// Observations before the pipeline-shape prior stops dominating: the
/// prior's share of a weight is `WARMUP_SNAPSHOTS / (WARMUP_SNAPSHOTS +
/// observed)`.
const WARMUP_SNAPSHOTS: f64 = 1.0;

/// Inverse-power sharpness of the score → weight mapping. Higher values
/// concentrate weight on the best-scoring member.
const SHARPNESS: f64 = 10.0;

/// Score penalty per unit of monotonicity-violation mass (true progress
/// never decreases; an estimator that backslides is lying somewhere).
const MONO_COEFF: f64 = 0.5;

/// Score penalty per unit of refinement churn (instability of a member's
/// total-cardinality view between snapshots).
const CHURN_COEFF: f64 = 0.05;

/// Score penalty per unit of disagreement with the member median.
const DISAGREE_COEFF: f64 = 0.005;

/// Prior over members from pipeline shape features. The base preference
/// order is the one the robust-estimation paper observed globally — the
/// full model first, then the driver-node and dominant-pipeline models,
/// then the baselines — skewed by what the plan's shape says about which
/// models can even be right here.
fn shape_prior(statics: &PlanStatics) -> PerMember {
    // Base preference: lqs, dne, tgn, norefine, pmax, safe.
    let mut prior = [0.40, 0.15, 0.08, 0.12, 0.15, 0.10];
    let n_pipelines = statics.pipelines.pipelines().len();
    let any_batch = statics.nodes.iter().any(|n| n.batch_mode);
    let any_blocking = statics.nodes.iter().any(|n| n.blocking);
    let any_filtered = statics.nodes.iter().any(|n| n.storage_filtered);
    if n_pipelines <= 1 && !any_blocking {
        // Single streaming pipeline: the driver-node and dominant-pipeline
        // views coincide with the truth.
        prior[1] += 0.10;
        prior[4] += 0.10;
    }
    if any_batch {
        // Segment-fraction progress only exists in the full model.
        prior[0] += 0.15;
    }
    if any_filtered {
        // Storage-filtered scans make optimizer cardinalities unreliable;
        // refinement (lqs/dne) and worst-case bounds (safe) hedge that.
        prior[0] += 0.05;
        prior[1] += 0.05;
        prior[5] += 0.05;
    }
    let sum: f64 = prior.iter().sum();
    for p in &mut prior {
        *p /= sum;
    }
    prior
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::REFRESHES;
    use lqs_exec::{execute, ExecOptions, QueryRun};
    use lqs_plan::{CostModel, Expr, JoinKind, PlanBuilder, SeekKey, SeekRange, SortKey};
    use lqs_storage::{Column, DataType, Schema, Table, Value};

    /// scan → filter → sort over 3 000 rows: two pipelines, one blocking
    /// operator, a few dozen snapshots.
    fn sorted_scan() -> (Database, PhysicalPlan, QueryRun) {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        );
        for i in 0..3_000i64 {
            t.insert(vec![Value::Int(i), Value::Int((i * 7) % 1000)])
                .unwrap();
        }
        let mut db = Database::new();
        let tid = db.add_table_analyzed(t);
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(tid);
        let filter = b.filter(scan, Expr::col(1).lt(Expr::lit(600i64)));
        let sort = b.sort(filter, vec![SortKey::asc(1)]);
        let plan = b.finish(sort);
        let run = execute(&db, &plan, &ExecOptions::default());
        assert!(run.snapshots.len() > 8);
        (db, plan, run)
    }

    #[test]
    fn a_snapshot_is_derived_once_per_ensemble() {
        let (db, plan, run) = sorted_scan();
        let mut ens =
            EnsembleEstimator::build(&plan, &db, &run.cost_model, EnsembleConfig::default());
        let before = REFRESHES.get();
        ens.replay(&run.snapshots);
        assert_eq!(REFRESHES.get() - before, run.snapshots.len() as u64);
        for s in &run.snapshots {
            let before = REFRESHES.get();
            ens.observe(s, false);
            assert_eq!(REFRESHES.get() - before, 1);
        }
    }

    /// Regression: the member median used to sort with
    /// `partial_cmp(..).expect("finite estimates")`, so one NaN estimate
    /// from a degenerate snapshot panicked the poller's driver thread and
    /// took every session's polling with it.
    #[test]
    fn a_nan_member_estimate_neither_panics_nor_escapes() {
        let (db, plan, run) = sorted_scan();
        let mut ens =
            EnsembleEstimator::build(&plan, &db, &run.cost_model, EnsembleConfig::default());
        // An infinite optimizer estimate makes Equation 2 read 0 · ∞ under
        // `tgn`, which never refines it away.
        let mut statics = PlanStatics::build(&plan, &db, CostModel::default().io_page_ns);
        for n in &mut statics.nodes {
            n.est_rows = f64::INFINITY;
            n.known_rows = None;
        }
        let poisoned = ProgressEstimator::from_statics(Arc::new(statics), EstimatorConfig::tgn());
        for s in &run.snapshots {
            assert!(poisoned.estimate(s).query_progress.is_nan());
        }
        assert_eq!(ens.lineup.members[2].id, "tgn");
        ens.lineup.members[2].estimator = poisoned;

        let replay = ens.replay(&run.snapshots);
        for est in replay.estimates.iter().chain(&replay.member_estimates[2]) {
            assert!((0.0..=1.0).contains(est), "replay estimate {est}");
        }
        for s in &run.snapshots {
            let report = ens.observe(s, false);
            assert!(
                (0.0..=1.0).contains(&report.query_progress),
                "observed {}",
                report.query_progress
            );
            let sel = report.ensemble.expect("ensemble report");
            assert!(sel.weights.iter().all(|(_, w)| w.is_finite()));
        }
    }

    /// A nested-loops join whose outer side yields nothing never opens its
    /// inner seek. `pmax` and `safe` count such a node as unfinished, so the
    /// terminal publish of a finished query used to be served under 100 %.
    #[test]
    fn a_closed_root_reads_as_done_from_every_member() {
        let (mut db, _, _) = sorted_scan();
        let tid = db.table_by_name("t").expect("table t");
        let ix = db.create_btree_index("ix_b", tid, vec![1]);
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(tid);
        let none = b.filter(scan, Expr::col(0).lt(Expr::lit(0i64)));
        let seek = b.index_seek(ix, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
        let join = b.nested_loops(JoinKind::Inner, none, seek, None, 1);
        let plan = b.finish(join);
        let run = execute(&db, &plan, &ExecOptions::default());
        let mut trace = run.snapshots.clone();
        assert!(trace.iter().all(|s| !s.node(join.0).is_closed()));
        trace.push(DmvSnapshot {
            ts_ns: run.duration_ns,
            nodes: run.final_counters.clone(),
        });
        let done = &trace[trace.len() - 1];
        assert!(done.node(join.0).is_closed() && !done.node(seek.0).is_open());

        let mut ens =
            EnsembleEstimator::build(&plan, &db, &run.cost_model, EnsembleConfig::default());
        // Without the rule some member's own figure stops short of 1.
        let mut scratch = EstimateScratch::default();
        assert!(ens.members().any(|m| {
            let own = m.estimator.estimate_core(done, &mut scratch);
            m.figure
                .of(m.estimator.statics(), done, &scratch.shared, own)
                < 1.0
        }));
        let replay = ens.replay(&trace);
        for (m, estimates) in ens.members().zip(&replay.member_estimates) {
            assert_eq!(m.estimate(done).query_progress, 1.0, "{}", m.id());
            assert_eq!(estimates.last(), Some(&1.0), "{}", m.id());
        }
        assert_eq!(replay.estimates.last(), Some(&1.0));
        let observed = trace.iter().map(|s| ens.observe(s, false)).last();
        assert_eq!(observed.map(|r| r.query_progress), Some(1.0));
    }

    #[test]
    fn median_orders_nan_instead_of_panicking() {
        assert_eq!(median(&mut [0.1, 0.5, 0.3, 0.2, 0.4, 0.6]), 0.35);
        assert_eq!(median(&mut [f64::NAN, 0.5, 0.3, 0.2, 0.4, 0.6]), 0.45);
        assert_eq!(median(&mut [0.7]), 0.7);
    }
}
