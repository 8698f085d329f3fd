//! The ensemble derives a snapshot once and lets its members read the
//! result; this file pins that to the design it replaced, bit for bit.
//!
//! The oracle ([`Reference`]) is the old per-member fold, kept verbatim and
//! written against the public API only: every member estimates alone through
//! `Member::estimate` (a full report each), and the selection
//! layer folds those reports with one loss loop per member. Over generated
//! plans (the `ensemble_props` generator) and the three benchmark shapes at
//! small scale, `to_bits` equality is asserted for
//!
//! * every member's figure on the shared path vs its standalone estimate,
//! * `replay()` estimates, member estimates and final weights vs the oracle,
//! * `observe()` fed the whole trace vs the oracle's composed reports and
//!   vs `replay()`,
//! * `ProgressEstimator::estimate` vs the report-free `estimate_core` over
//!   one reused scratch, on every `EstimatorConfig` preset,
//! * a lineup of one vs the lone `ProgressEstimator` it holds: `observe`
//!   field for field, `replay` vs `estimate_trace`, and — through a
//!   `GuardedEstimator`, over a mangled stream — vs the lone estimator on a
//!   `SnapshotGuard`'s view, quality stamps and anomaly counts included.

use lqs_exec::{execute, DmvSnapshot, ExecOptions, NodeCounters, QueryRun};
use lqs_plan::{
    AggFunc, Aggregate, ExchangeKind, Expr, JoinKind, NodeId, PhysicalPlan, PlanBuilder, SeekKey,
    SeekRange, SortKey,
};
use lqs_progress::{
    EnsembleConfig, EnsembleEstimator, EnsembleSelection, EstimateQuality, EstimateScratch,
    EstimatorConfig, GuardedEstimator, ProgressEstimator, ProgressReport, SnapshotGuard,
};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};
use lqs_workloads::real::{workload, RealProfile};
use lqs_workloads::WorkloadScale;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// The oracle: the per-member fold as it was before members became views.

const BLEND_FLOOR: f64 = 0.25;

fn tie_rank(seed: u64, index: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in (index as u64).to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

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

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

struct Reference {
    config: EnsembleConfig,
    ids: Vec<&'static str>,
    prior: Vec<f64>,
    observed: u64,
    sum_k: Vec<f64>,
    est_hist: Vec<Vec<f64>>,
    last_est: Vec<f64>,
    mono: Vec<f64>,
    churn: Vec<f64>,
    last_total_n: Vec<f64>,
    disagree: Vec<f64>,
    weights: Vec<f64>,
    selected: usize,
}

impl Reference {
    /// `fresh` must not have observed anything yet: its selection is then
    /// the pipeline-shape prior.
    fn new(fresh: &EnsembleEstimator, config: EnsembleConfig) -> Self {
        let start = fresh.selection().expect("six members have a choice");
        let prior: Vec<f64> = start.weights.iter().map(|(_, w)| *w).collect();
        let n = prior.len();
        Reference {
            ids: fresh.members().map(|m| m.id()).collect(),
            observed: 0,
            sum_k: Vec::new(),
            est_hist: vec![Vec::new(); n],
            last_est: vec![0.0; n],
            mono: vec![0.0; n],
            churn: vec![0.0; n],
            last_total_n: vec![0.0; n],
            disagree: vec![0.0; n],
            weights: prior.clone(),
            selected: argmax_tiebreak(&prior, config.seed),
            prior,
            config,
        }
    }

    fn selection(&self) -> Option<EnsembleSelection> {
        Some(EnsembleSelection {
            selected: self.ids[self.selected],
            weights: self
                .ids
                .iter()
                .zip(&self.weights)
                .map(|(id, w)| (*id, *w))
                .collect(),
        })
    }

    /// One observation: every member's standalone report, the fold, and the
    /// composed report.
    fn observe(
        &mut self,
        ens: &EnsembleEstimator,
        s: &DmvSnapshot,
    ) -> (Vec<ProgressReport>, ProgressReport) {
        let reports: Vec<ProgressReport> = ens.members().map(|m| m.estimate(s)).collect();
        self.fold(s, &reports);
        let composed = self.compose(&reports);
        (reports, composed)
    }

    fn compose(&self, reports: &[ProgressReport]) -> ProgressReport {
        let mut report = reports[self.selected].clone();
        let top = self
            .weights
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let mut num = 0.0;
        let mut den = 0.0;
        for (r, &w) in reports.iter().zip(&self.weights) {
            if w >= top * BLEND_FLOOR {
                num += w * r.query_progress;
                den += w;
            }
        }
        let blended = if den > 0.0 {
            num / den
        } else {
            reports[self.selected].query_progress
        };
        report.query_progress = blended.clamp(0.0, 1.0);
        report.ensemble = self.selection();
        report
    }

    fn fold(&mut self, s: &DmvSnapshot, reports: &[ProgressReport]) {
        let n_members = reports.len();
        self.observed += 1;
        self.sum_k
            .push(s.nodes.iter().map(|c| c.rows_output as f64).sum());

        let mut ests: Vec<f64> = reports.iter().map(|r| r.query_progress).collect();
        let med = median(&mut ests);
        for (m, r) in reports.iter().enumerate() {
            self.disagree[m] += (r.query_progress - med).abs();
        }

        for (m, r) in reports.iter().enumerate() {
            let est = r.query_progress;
            if self.observed > 1 {
                self.mono[m] += (self.last_est[m] - est).max(0.0);
            }
            self.last_est[m] = est;
            self.est_hist[m].push(est);
            let total_n: f64 = r.nodes.iter().map(|n| n.refined_n).sum();
            if self.observed > 1 && self.last_total_n[m] > 0.0 {
                self.churn[m] +=
                    (total_n - self.last_total_n[m]).abs() / self.last_total_n[m].max(1.0);
            }
            self.last_total_n[m] = total_n;
        }

        let n_nodes = reports[0].nodes.len();
        let mut denom = 0.0f64;
        let mut per_member = vec![0.0f64; n_members];
        for node in 0..n_nodes {
            for (m, r) in reports.iter().enumerate() {
                let n = &r.nodes[node];
                per_member[m] = n.refined_n.max(n.k);
            }
            denom += median(&mut per_member);
        }
        let denom = denom.max(1.0);

        let obs = self.observed as f64;
        let mut scores = vec![0.0f64; n_members];
        for (m, hist) in self.est_hist.iter().enumerate() {
            let mut loss = 0.0;
            for (j, est) in hist.iter().enumerate() {
                let truth = (self.sum_k[j] / denom).clamp(0.0, 1.0);
                loss += (est - truth).abs();
            }
            scores[m] = loss / obs
                + self.config.mono_coeff * self.mono[m] / obs
                + self.config.churn_coeff * self.churn[m] / obs
                + self.config.disagree_coeff * self.disagree[m] / obs;
        }

        const EPS: f64 = 1e-4;
        let mut inv: Vec<f64> = scores
            .iter()
            .map(|&sc| (sc + EPS).powf(-self.config.sharpness))
            .collect();
        let inv_sum: f64 = inv.iter().sum();
        if inv_sum > 0.0 && inv_sum.is_finite() {
            for w in &mut inv {
                *w /= inv_sum;
            }
        } else {
            inv = self.prior.clone();
        }
        let prior_mix =
            self.config.warmup_snapshots as f64 / (self.config.warmup_snapshots as f64 + obs);
        let mut weights: Vec<f64> = inv
            .iter()
            .zip(&self.prior)
            .map(|(w, p)| prior_mix * p + (1.0 - prior_mix) * w)
            .collect();
        let w_sum: f64 = weights.iter().sum();
        if w_sum > 0.0 {
            for w in &mut weights {
                *w /= w_sum;
            }
        }
        self.selected = argmax_tiebreak(&weights, self.config.seed);
        self.weights = weights;
    }
}

// ---------------------------------------------------------------------------
// Bit-level comparison.

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

type SelectionBits = Option<(&'static str, Vec<(&'static str, u64)>)>;

fn selection_bits(sel: &Option<EnsembleSelection>) -> SelectionBits {
    sel.as_ref().map(|sel| {
        let weights = sel.weights.iter().map(|(id, w)| (*id, w.to_bits()));
        (sel.selected, weights.collect())
    })
}

/// Every field of two reports, floats by bit pattern.
fn assert_same_report(got: &ProgressReport, want: &ProgressReport, what: &str) {
    assert_eq!(
        got.query_progress.to_bits(),
        want.query_progress.to_bits(),
        "{what}: query_progress {} vs {}",
        got.query_progress,
        want.query_progress
    );
    assert_eq!(got.counters, want.counters, "{what}: counters");
    assert_eq!(got.quality, want.quality, "{what}: quality");
    assert_eq!(got.staleness_ns, want.staleness_ns, "{what}: staleness");
    assert_eq!(
        selection_bits(&got.ensemble),
        selection_bits(&want.ensemble),
        "{what}: selection"
    );
    assert_eq!(got.nodes.len(), want.nodes.len(), "{what}: node count");
    for (g, w) in got.nodes.iter().zip(&want.nodes) {
        let node = |n: &lqs_progress::NodeProgress| {
            (
                n.node,
                n.name,
                n.progress.to_bits(),
                n.refined_n.to_bits(),
                n.k.to_bits(),
                n.bounds.lb.to_bits(),
                n.bounds.ub.to_bits(),
                n.explanation.path,
                n.explanation.refinement,
                n.explanation.pre_bound_n.to_bits(),
                n.explanation.clamp_delta.to_bits(),
            )
        };
        assert_eq!(node(g), node(w), "{what}: node {:?}", g.node);
    }
}

/// All four equivalences over one plan's recorded trace.
fn check_trace(plan: &PhysicalPlan, db: &Database, run: &QueryRun, seed: u64) {
    let config = EnsembleConfig::standard(seed);
    let build = || EnsembleEstimator::build(plan, db, &run.cost_model, config.clone());
    let mut live = build();
    let mut reference = Reference::new(&live, config.clone());
    let replay = build().replay(&run.snapshots);
    assert_eq!(replay.estimates.len(), run.snapshots.len());

    for (j, s) in run.snapshots.iter().enumerate() {
        let (standalone, composed) = reference.observe(&live, s);
        // (a) each member's shared-path figure is its standalone one.
        for (m, r) in standalone.iter().enumerate() {
            assert_eq!(
                replay.member_estimates[m][j].to_bits(),
                r.query_progress.to_bits(),
                "snapshot {j}: member {m} on the shared path"
            );
        }
        // (b) the replayed ensemble figure is the oracle's.
        assert_eq!(
            replay.estimates[j].to_bits(),
            composed.query_progress.to_bits(),
            "snapshot {j}: replayed ensemble estimate"
        );
        // (c) observe == oracle, per-node detail (refined_n, k, …) of the
        // selected member included.
        let observed = live.observe(s, false);
        assert_same_report(&observed, &composed, &format!("snapshot {j}: observe"));
        assert_eq!(
            selection_bits(&live.selection()),
            selection_bits(&reference.selection())
        );
    }
    // (b)/(c) final weights: replay == oracle == live observe.
    assert_eq!(
        selection_bits(&replay.selection),
        selection_bits(&reference.selection())
    );
    assert_eq!(
        selection_bits(&replay.selection),
        selection_bits(&live.selection())
    );

    // A frozen observation leaves the selection alone and still reports the
    // selected member's detail under the frozen weights.
    if let Some(s) = run.snapshots.last() {
        let before = live.selection();
        let frozen = live.observe(s, true);
        assert_eq!(selection_bits(&live.selection()), selection_bits(&before));
        let reports: Vec<ProgressReport> = live.members().map(|m| m.estimate(s)).collect();
        assert_same_report(&frozen, &reference.compose(&reports), "frozen observe");
    }

    // (d) estimate() == the report-free core over one reused scratch.
    let mut feedback = std::collections::BTreeMap::new();
    feedback.insert("Sort", 0.6);
    feedback.insert("Hash Match", 1.7);
    for preset in [
        EstimatorConfig::tgn(),
        EstimatorConfig::tgn_bounded(),
        EstimatorConfig::dne_refined(),
        EstimatorConfig::full(),
        EstimatorConfig::extended(),
        EstimatorConfig::extended().with_weight_feedback(feedback),
    ] {
        let est = ProgressEstimator::with_cost_model(plan, db, preset, &run.cost_model);
        let mut scratch = EstimateScratch::default();
        for (j, s) in run.snapshots.iter().enumerate() {
            let report = est.estimate(s);
            let core = est.estimate_core(s, &mut scratch);
            assert_eq!(
                core.to_bits(),
                report.query_progress.to_bits(),
                "snapshot {j}"
            );
            let refined: Vec<f64> = report.nodes.iter().map(|n| n.refined_n).collect();
            assert_eq!(bits(scratch.refined_n()), bits(&refined), "snapshot {j}");
        }
    }

    // (e) a lineup of one is the estimator it holds.
    for preset in [
        EstimatorConfig::full(),
        EstimatorConfig::tgn(),
        EstimatorConfig::dne_refined(),
    ] {
        check_lineup_of_one(plan, db, run, preset);
    }
}

/// `run`'s trace as a bad channel delivers it: a malformed snapshot first,
/// then duplicates, out-of-order repeats and counter resets among the
/// genuine ones.
fn mangled(snapshots: &[DmvSnapshot]) -> Vec<DmvSnapshot> {
    let mut out = Vec::new();
    if let Some(first) = snapshots.first() {
        let mut short = first.clone();
        short.nodes.pop();
        out.push(short);
    }
    for (i, s) in snapshots.iter().enumerate() {
        out.push(s.clone());
        match i % 7 {
            1 => out.push(s.clone()),
            3 => out.push(snapshots[i - 2].clone()),
            5 => out.push(DmvSnapshot {
                ts_ns: s.ts_ns + 1,
                nodes: vec![NodeCounters::default(); s.nodes.len()],
            }),
            _ => {}
        }
    }
    out
}

/// The composed figure of a lineup of one is `1.0 * est / 1.0` under a
/// weight of `w / w`, so everything it reports must be the lone
/// estimator's, bit for bit — clean or through a guard.
fn check_lineup_of_one(
    plan: &PhysicalPlan,
    db: &Database,
    run: &QueryRun,
    preset: EstimatorConfig,
) {
    let lone = || ProgressEstimator::with_cost_model(plan, db, preset.clone(), &run.cost_model);
    let (est, mut one) = (lone(), EnsembleEstimator::single(lone()));
    assert_eq!(one.members().map(|m| m.id()).collect::<Vec<_>>(), ["lqs"]);
    assert!(one.selection().is_none());

    for (j, s) in run.snapshots.iter().enumerate() {
        let what = format!("snapshot {j}: lineup of one");
        assert_same_report(&one.observe(s, false), &est.estimate(s), &what);
    }
    let replay = one.replay(&run.snapshots);
    let trace = bits(&est.estimate_trace(&run.snapshots));
    assert_eq!(replay.member_estimates.len(), 1);
    assert_eq!(bits(&replay.member_estimates[0]), trace);
    assert_eq!(bits(&replay.estimates), trace);
    assert!(replay.selection.is_none());

    // Through the guard, against the lone estimator on a guard's view.
    let mut guarded = GuardedEstimator::new(EnsembleEstimator::single(lone()));
    let mut guard = SnapshotGuard::new(plan.len());
    let zero = DmvSnapshot {
        ts_ns: 0,
        nodes: vec![NodeCounters::default(); plan.len()],
    };
    for (j, s) in mangled(&run.snapshots).iter().enumerate() {
        guard.ingest(s);
        let mut want = est.estimate(guard.view().unwrap_or(&zero));
        if guard.anomalies().total() > 0 {
            want.quality = EstimateQuality::Degraded;
        }
        let what = format!("mangled snapshot {j}: guarded lineup of one");
        assert_same_report(&guarded.observe(s), &want, &what);
        assert_eq!(guarded.anomalies(), guard.anomalies(), "{what}");
    }
    if run.snapshots.len() > 6 {
        let seen = guarded.anomalies();
        assert!(seen.malformed == 1 && seen.duplicates > 0, "{seen:?}");
        assert!(seen.out_of_order > 0 && seen.counter_resets > 0, "{seen:?}");
    }
}

// ---------------------------------------------------------------------------
// The three benchmark shapes, at small scale.

fn check_real(profile: RealProfile, data_scale: f64, queries: usize, snapshot_target: usize) {
    let w = workload(
        profile,
        WorkloadScale {
            data_scale,
            query_limit: queries,
            seed: 11,
        },
    );
    let opts = ExecOptions {
        snapshot_target,
        ..ExecOptions::default()
    };
    for (i, q) in w.queries.iter().enumerate() {
        let run = execute(&w.db, &q.plan, &opts);
        check_trace(&q.plan, &w.db, &run, 0x1_9b5 + i as u64);
    }
}

#[test]
fn real1_shape_is_bit_identical_to_the_per_member_fold() {
    check_real(RealProfile::Real1, 0.1, 8, 96);
}

#[test]
fn real2_shape_is_bit_identical_to_the_per_member_fold() {
    // The dense workload's shape: ~22-node plans over tiny data, sampled
    // far more often than the default.
    check_real(RealProfile::Real2, 0.05, 8, 384);
}

#[test]
fn real3_shape_is_bit_identical_to_the_per_member_fold() {
    check_real(RealProfile::Real3, 0.1, 6, 96);
}

// ---------------------------------------------------------------------------
// The `ensemble_props` plan generator (that file is frozen, so the
// generator is repeated here rather than shared).

#[derive(Debug, Clone)]
enum Spec {
    Scan { filtered: bool },
    IndexedScan,
    Filter(Box<Spec>, i64),
    Sort(Box<Spec>),
    Top(Box<Spec>, usize),
    HashAgg(Box<Spec>, bool),
    HashJoin(Box<Spec>, Box<Spec>),
    NestedLoopsSeek(Box<Spec>),
    Exchange(Box<Spec>),
}

fn leaf() -> impl Strategy<Value = Spec> {
    prop_oneof![
        Just(Spec::Scan { filtered: false }),
        Just(Spec::Scan { filtered: true }),
        Just(Spec::IndexedScan),
    ]
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    leaf().prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..900).prop_map(|(s, t)| Spec::Filter(Box::new(s), t)),
            inner.clone().prop_map(|s| Spec::Sort(Box::new(s))),
            (inner.clone(), 1usize..200).prop_map(|(s, n)| Spec::Top(Box::new(s), n)),
            (inner.clone(), any::<bool>()).prop_map(|(s, g)| Spec::HashAgg(Box::new(s), g)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Spec::HashJoin(Box::new(a), Box::new(b))),
            inner
                .clone()
                .prop_map(|o| Spec::NestedLoopsSeek(Box::new(o))),
            inner.clone().prop_map(|s| Spec::Exchange(Box::new(s))),
        ]
    })
}

struct Ctx {
    db: Database,
    table: TableId,
    small: TableId,
    index: lqs_storage::IndexId,
}

fn make_db(rows: i64, seed: i64) -> Ctx {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("c", DataType::Int),
        ]),
    );
    for i in 0..rows {
        t.insert(vec![
            Value::Int(i),
            Value::Int((i * 7 + seed) % 1000),
            Value::Int((i * i + seed) % 50),
        ])
        .unwrap();
    }
    let mut s = Table::new(
        "s",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..40 {
        s.insert(vec![Value::Int(i), Value::Int((i + seed) % 7)])
            .unwrap();
    }
    let mut db = Database::new();
    let table = db.add_table_analyzed(t);
    let small = db.add_table_analyzed(s);
    let index = db.create_btree_index("ix_c", table, vec![2]);
    Ctx {
        db,
        table,
        small,
        index,
    }
}

fn build(b: &mut PlanBuilder, ctx: &Ctx, spec: &Spec, depth: usize) -> NodeId {
    let base = if depth.is_multiple_of(2) {
        ctx.table
    } else {
        ctx.small
    };
    match spec {
        Spec::Scan { filtered } => {
            if *filtered {
                b.table_scan_filtered(base, Expr::col(1).lt(Expr::lit(500i64)), true)
            } else {
                b.table_scan(base)
            }
        }
        Spec::IndexedScan => b.index_scan(ctx.index),
        Spec::Filter(inner, t) => {
            let c = build(b, ctx, inner, depth + 1);
            b.filter(c, Expr::col(1).lt(Expr::lit(*t)))
        }
        Spec::Sort(inner) => {
            let c = build(b, ctx, inner, depth + 1);
            b.sort(c, vec![SortKey::asc(0)])
        }
        Spec::Top(inner, n) => {
            let c = build(b, ctx, inner, depth + 1);
            b.add(lqs_plan::PhysicalOp::Top { n: *n }, vec![c])
        }
        Spec::HashAgg(inner, grouped) => {
            let c = build(b, ctx, inner, depth + 1);
            let group = if *grouped { vec![1] } else { vec![] };
            let agg = b.hash_aggregate(c, group, vec![Aggregate::of_col(AggFunc::Sum, 0)]);
            b.compute_scalar(agg, vec![Expr::lit(0i64)])
        }
        Spec::HashJoin(l, r) => {
            let lc = build(b, ctx, l, depth + 1);
            let rc = build(b, ctx, r, depth + 1);
            b.hash_join(JoinKind::Inner, lc, rc, vec![1], vec![1])
        }
        Spec::NestedLoopsSeek(outer) => {
            let oc = build(b, ctx, outer, depth + 1);
            let seek = b.index_seek(ctx.index, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
            b.nested_loops(JoinKind::Inner, oc, seek, None, 1)
        }
        Spec::Exchange(inner) => {
            let c = build(b, ctx, inner, depth + 1);
            b.exchange(c, ExchangeKind::GatherStreams, 4)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_plans_are_bit_identical_to_the_per_member_fold(
        spec in spec_strategy(),
        seed in 0i64..4,
        ens_seed in 0u64..1_000,
    ) {
        let ctx = make_db(1500, seed);
        let mut b = PlanBuilder::new(&ctx.db);
        let root = build(&mut b, &ctx, &spec, 0);
        let plan = b.finish(root);
        let run = execute(&ctx.db, &plan, &ExecOptions::default());
        check_trace(&plan, &ctx.db, &run, ens_seed);
    }
}
