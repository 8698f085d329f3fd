//! One function per table/figure of the paper's evaluation, each returning
//! the data series the figure plots. `lqs-bench`'s `paper` binary prints these;
//! integration tests assert their qualitative shapes.

use crate::experiment::{
    merge_per_operator, operator_frequencies, per_operator_errors, workload_errors, ConfigSpec,
    Metric, PerOperatorErrors, WorkloadErrors,
};
use crate::run::{run_query, trace_estimator};
use lqs::exec::ExecOptions;
use lqs::plan::{NodeId, PhysicalOp};
use lqs::progress::EstimatorConfig;
use lqs::workloads::{standard_five, tpcds, tpch, PhysicalDesign, WorkloadScale};
use serde::Serialize;
use std::collections::BTreeMap;

fn opts() -> ExecOptions {
    ExecOptions::default()
}

/// A `(time-fraction, value)` series point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Point {
    /// Elapsed-time fraction in `[0, 1]`.
    pub t: f64,
    /// Series value at `t`.
    pub v: f64,
}

// ---------------------------------------------------------------------------
// Figure 8 — exchange lag
// ---------------------------------------------------------------------------

/// Figure 8 data: GetNext counts over time for a Nested Loops operator and
/// the Parallelism (exchange) operator above it.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8 {
    /// `(t, kᵢ)` of the nested loops child.
    pub nested_loops: Vec<Point>,
    /// `(t, kᵢ)` of the exchange.
    pub exchange: Vec<Point>,
    /// Max and final k-ratio between the two.
    pub max_ratio: f64,
    /// Ratio at the last snapshot.
    pub final_ratio: f64,
}

/// Reproduce Figure 7/8: an index nested-loops join under a gather exchange.
pub fn figure8(scale: WorkloadScale) -> Fig8 {
    let t = tpcds::build_db(scale);
    let mut b = lqs::plan::PlanBuilder::new(&t.db);
    let ss = b.table_scan(t.store_sales);
    let seek = b.index_seek(
        t.customer_pk,
        lqs::plan::SeekRange::eq(vec![lqs::plan::SeekKey::OuterRef(2)]),
    );
    let nl = b.nested_loops(lqs::plan::JoinKind::Inner, ss, seek, None, 64);
    let ex = b.exchange(nl, lqs::plan::ExchangeKind::GatherStreams, 8);
    let top = b.add(PhysicalOp::Top { n: usize::MAX }, vec![ex]);
    let plan = b.finish(top);
    let run = run_query(&t.db, &plan, &opts());

    let series = |node: NodeId| -> Vec<Point> {
        run.snapshots
            .iter()
            .map(|s| Point {
                t: run.time_fraction(s),
                v: s.k(node.0),
            })
            .collect()
    };
    let nl_series = series(nl);
    let ex_series = series(ex);
    let mut max_ratio = 0.0f64;
    for (a, b) in nl_series.iter().zip(&ex_series) {
        if b.v >= 1.0 {
            max_ratio = max_ratio.max(a.v / b.v);
        }
    }
    let final_ratio = match (nl_series.last(), ex_series.last()) {
        (Some(a), Some(b)) if b.v >= 1.0 => a.v / b.v,
        _ => f64::NAN,
    };
    Fig8 {
        nested_loops: nl_series,
        exchange: ex_series,
        max_ratio,
        final_ratio,
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — two-phase blocking model
// ---------------------------------------------------------------------------

/// Figure 11 data: progress of a hash aggregate over time under the
/// output-only model, the two-phase model, and the truth.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11 {
    /// Output-only (`k/N`) progress of the aggregate.
    pub output_only: Vec<Point>,
    /// Two-phase (input+output) progress.
    pub two_phase: Vec<Point>,
    /// True progress = active-time fraction of the operator.
    pub true_progress: Vec<Point>,
    /// Mean |error| vs true, per model.
    pub error_output_only: f64,
    /// Mean |error| of the two-phase model.
    pub error_two_phase: f64,
}

/// Reproduce Figure 11 on the TPC-DS Q13-shaped hash aggregate.
pub fn figure11(scale: WorkloadScale) -> Fig11 {
    let t = tpcds::build_db(scale);
    let plan = tpcds::q13_plan(&t);
    let run = run_query(&t.db, &plan, &opts());
    let agg = plan.root();

    let two_cfg = EstimatorConfig::full();
    let out_cfg = {
        let mut c = EstimatorConfig::full();
        c.two_phase_blocking = false;
        c
    };
    let tr_two = trace_estimator(&plan, &t.db, &run, two_cfg);
    let tr_out = trace_estimator(&plan, &t.db, &run, out_cfg);

    let fc = &run.final_counters[agg.0];
    let (open, close) = (
        fc.open_ns.unwrap_or(0),
        fc.close_ns.unwrap_or(run.duration_ns),
    );
    let mut output_only = Vec::new();
    let mut two_phase = Vec::new();
    let mut true_progress = Vec::new();
    let mut e_out = 0.0;
    let mut e_two = 0.0;
    let mut n = 0usize;
    for (i, s) in run.snapshots.iter().enumerate() {
        if s.ts_ns < open || s.ts_ns > close {
            continue;
        }
        let t_frac = (s.ts_ns - open) as f64 / (close - open).max(1) as f64;
        let p_out = tr_out.reports[i].nodes[agg.0].progress;
        let p_two = tr_two.reports[i].nodes[agg.0].progress;
        output_only.push(Point {
            t: t_frac,
            v: p_out,
        });
        two_phase.push(Point {
            t: t_frac,
            v: p_two,
        });
        true_progress.push(Point {
            t: t_frac,
            v: t_frac,
        });
        e_out += (p_out - t_frac).abs();
        e_two += (p_two - t_frac).abs();
        n += 1;
    }
    Fig11 {
        output_only,
        two_phase,
        true_progress,
        error_output_only: e_out / n.max(1) as f64,
        error_two_phase: e_two / n.max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// Figure 12 — weighted vs unweighted query progress over time
// ---------------------------------------------------------------------------

/// Figure 12 data: query progress over time for the Q21-shaped plan.
#[derive(Debug, Clone, Serialize)]
pub struct Fig12 {
    /// Weighted estimator trajectory.
    pub weighted: Vec<Point>,
    /// Unweighted estimator trajectory.
    pub unweighted: Vec<Point>,
    /// Errortime of each.
    pub error_weighted: f64,
    /// Errortime of the unweighted estimator.
    pub error_unweighted: f64,
}

/// Reproduce Figure 12 on the TPC-DS Q21-shaped plan.
pub fn figure12(scale: WorkloadScale) -> Fig12 {
    let t = tpcds::build_db(scale);
    let plan = tpcds::q21_plan(&t);
    let run = run_query(&t.db, &plan, &opts());

    let weighted_cfg = EstimatorConfig::full();
    let unweighted_cfg = {
        let mut c = EstimatorConfig::full();
        c.operator_weights = false;
        c
    };
    let w = trace_estimator(&plan, &t.db, &run, weighted_cfg);
    let u = trace_estimator(&plan, &t.db, &run, unweighted_cfg);
    let series = |est: &[f64]| -> Vec<Point> {
        run.snapshots
            .iter()
            .zip(est)
            .map(|(s, &v)| Point {
                t: run.time_fraction(s),
                v,
            })
            .collect()
    };
    Fig12 {
        weighted: series(&w.estimates),
        unweighted: series(&u.estimates),
        error_weighted: lqs::progress::error_time(&run, &w.estimates),
        error_unweighted: lqs::progress::error_time(&run, &u.estimates),
    }
}

// ---------------------------------------------------------------------------
// Figure 13 — two estimators ~0.1 apart (illustration)
// ---------------------------------------------------------------------------

/// Figure 13 data: two estimator trajectories on the Q36-shaped plan with
/// their Errortime values.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13 {
    /// Full LQS estimator.
    pub estimator1: Vec<Point>,
    /// Baseline TGN estimator.
    pub estimator2: Vec<Point>,
    /// Errortime of each.
    pub error1: f64,
    /// Errortime of the baseline.
    pub error2: f64,
}

/// Reproduce Figure 13's illustration on the TPC-DS Q36 shape.
pub fn figure13(scale: WorkloadScale) -> Fig13 {
    let t = tpcds::build_db(scale);
    let plan = tpcds::q36_plan(&t);
    let run = run_query(&t.db, &plan, &opts());
    let e1 = trace_estimator(&plan, &t.db, &run, EstimatorConfig::full());
    let e2 = trace_estimator(&plan, &t.db, &run, EstimatorConfig::tgn());
    let series = |est: &[f64]| -> Vec<Point> {
        run.snapshots
            .iter()
            .zip(est)
            .map(|(s, &v)| Point {
                t: run.time_fraction(s),
                v,
            })
            .collect()
    };
    Fig13 {
        estimator1: series(&e1.estimates),
        estimator2: series(&e2.estimates),
        error1: lqs::progress::error_time(&run, &e1.estimates),
        error2: lqs::progress::error_time(&run, &e2.estimates),
    }
}

// ---------------------------------------------------------------------------
// Figure 14 — Errorcount: refinement & bounding ablation over 5 workloads
// ---------------------------------------------------------------------------

/// The three configurations Figure 14 compares.
///
/// Deviation note: the paper's third configuration is the driver-node (DNE)
/// estimator with refinement + bounding. Our harness scores every estimator
/// against the *true Total-GetNext* progress, where the DNE aggregate has an
/// inherent representation bias on deep plans, so the reproduced third bar
/// applies refinement + bounding within the TGN model; the DNE variant
/// remains available as [`EstimatorConfig::dne_refined`] and is reported
/// separately in EXPERIMENTS.md.
pub(crate) fn fig14_configs() -> Vec<ConfigSpec> {
    let refined = {
        let mut c = EstimatorConfig::tgn_bounded();
        c.refine_cardinality = true;
        c
    };
    vec![
        ConfigSpec {
            label: "No Refinement",
            config: EstimatorConfig::tgn(),
        },
        ConfigSpec {
            label: "Bounding only",
            config: EstimatorConfig::tgn_bounded(),
        },
        ConfigSpec {
            label: "Bounding + Refinement",
            config: refined,
        },
    ]
}

/// Reproduce Figure 14: Errorcount per workload for the three configs.
pub fn figure14(scale: WorkloadScale) -> Vec<WorkloadErrors> {
    standard_five(scale)
        .iter()
        .map(|w| workload_errors(w, &fig14_configs(), Metric::Count, &opts()))
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 15 — per-operator Errorcount, refinement ablation
// ---------------------------------------------------------------------------

/// The three configurations Figure 15 compares.
pub(crate) fn fig15_configs() -> Vec<ConfigSpec> {
    let no_refine = EstimatorConfig::tgn();
    let refine = {
        let mut c = EstimatorConfig::tgn();
        c.refine_cardinality = true;
        c
    };
    let refine_semi = {
        let mut c = refine.clone();
        c.semi_blocking_adjustments = true;
        c
    };
    vec![
        ConfigSpec {
            label: "No Refinement",
            config: no_refine,
        },
        ConfigSpec {
            label: "Cardinality Refinement",
            config: refine,
        },
        ConfigSpec {
            label: "Refinement + Semi-Blocking Adjustments",
            config: refine_semi,
        },
    ]
}

/// Reproduce Figure 15: per-operator Errorcount across all five workloads.
pub fn figure15(scale: WorkloadScale) -> PerOperatorErrors {
    let parts: Vec<PerOperatorErrors> = standard_five(scale)
        .iter()
        .map(|w| per_operator_errors(w, &fig15_configs(), Metric::Count, &opts()))
        .collect();
    merge_per_operator(&parts)
}

// ---------------------------------------------------------------------------
// Figure 16 — Errortime: weighted vs unweighted over 5 workloads
// ---------------------------------------------------------------------------

/// The two configurations Figure 16 compares.
pub(crate) fn fig16_configs() -> Vec<ConfigSpec> {
    let with_weight = EstimatorConfig::full();
    let without_weight = {
        let mut c = EstimatorConfig::full();
        c.operator_weights = false;
        c
    };
    vec![
        ConfigSpec {
            label: "With Weight",
            config: with_weight,
        },
        ConfigSpec {
            label: "Without Weight",
            config: without_weight,
        },
    ]
}

/// Reproduce Figure 16: Errortime per workload, weighted vs unweighted.
pub fn figure16(scale: WorkloadScale) -> Vec<WorkloadErrors> {
    standard_five(scale)
        .iter()
        .map(|w| workload_errors(w, &fig16_configs(), Metric::Time, &opts()))
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 17 — blocking-operator model, Errortime for Hash Match & Sort
// ---------------------------------------------------------------------------

/// The two configurations Figure 17 compares.
pub(crate) fn fig17_configs() -> Vec<ConfigSpec> {
    let output_only = {
        let mut c = EstimatorConfig::full();
        c.two_phase_blocking = false;
        c
    };
    vec![
        ConfigSpec {
            label: "Model uses Output Ni only",
            config: output_only,
        },
        ConfigSpec {
            label: "Model uses Input and Output Ni",
            config: EstimatorConfig::full(),
        },
    ]
}

/// Figure 17 data: per-config Errortime for the blocking operator types.
#[derive(Debug, Clone, Serialize)]
pub struct Fig17 {
    /// Config label → (operator → error) restricted to blocking operators.
    pub by_config: Vec<(String, BTreeMap<String, f64>)>,
}

/// Reproduce Figure 17 across the five workloads.
pub fn figure17(scale: WorkloadScale) -> Fig17 {
    let parts: Vec<PerOperatorErrors> = standard_five(scale)
        .iter()
        .map(|w| per_operator_errors(w, &fig17_configs(), Metric::Time, &opts()))
        .collect();
    let merged = merge_per_operator(&parts);
    let keep = [
        "Hash Match (Aggregate)",
        "Sort",
        "Top N Sort",
        "Distinct Sort",
    ];
    Fig17 {
        by_config: merged
            .by_config
            .into_iter()
            .map(|(label, map)| {
                (
                    label,
                    map.into_iter()
                        .filter(|(k, _)| keep.iter().any(|p| k == p))
                        .collect(),
                )
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Figures 18–20 — columnstore vs row-store physical design
// ---------------------------------------------------------------------------

/// Figure 18 data: overall Errortime for the two TPC-H physical designs.
#[derive(Debug, Clone, Serialize)]
pub struct Fig18 {
    /// Row-store design error.
    pub tpch: f64,
    /// Columnstore design error.
    pub tpch_columnstore: f64,
}

/// Reproduce Figure 18.
pub fn figure18(scale: WorkloadScale) -> Fig18 {
    let full = vec![ConfigSpec {
        label: "LQS",
        config: EstimatorConfig::full(),
    }];
    // The TPC-H suites are small; the design comparison always runs them in
    // full so the operator mixes are representative.
    let row = tpch::workload(scale, PhysicalDesign::RowStore);
    let cs = tpch::workload(scale, PhysicalDesign::Columnstore);
    let e_row = workload_errors(&row, &full, Metric::Time, &opts());
    let e_cs = workload_errors(&cs, &full, Metric::Time, &opts());
    Fig18 {
        tpch: e_row.errors[0].1,
        tpch_columnstore: e_cs.errors[0].1,
    }
}

/// Figure 19 data: operator frequency per physical design.
#[derive(Debug, Clone, Serialize)]
pub struct Fig19 {
    /// Operator → count in the row-store design's plans.
    pub tpch: BTreeMap<String, usize>,
    /// Operator → count in the columnstore design's plans.
    pub tpch_columnstore: BTreeMap<String, usize>,
}

/// Reproduce Figure 19.
pub fn figure19(scale: WorkloadScale) -> Fig19 {
    let row = tpch::workload(scale, PhysicalDesign::RowStore);
    let cs = tpch::workload(scale, PhysicalDesign::Columnstore);
    Fig19 {
        tpch: operator_frequencies(&row),
        tpch_columnstore: operator_frequencies(&cs),
    }
}

/// Figure 20 data: per-operator Errortime per physical design.
#[derive(Debug, Clone, Serialize)]
pub struct Fig20 {
    /// Operator → error, row-store design.
    pub tpch: BTreeMap<String, f64>,
    /// Operator → error, columnstore design.
    pub tpch_columnstore: BTreeMap<String, f64>,
}

/// Reproduce Figure 20.
pub fn figure20(scale: WorkloadScale) -> Fig20 {
    let full = vec![ConfigSpec {
        label: "LQS",
        config: EstimatorConfig::full(),
    }];
    let row = tpch::workload(scale, PhysicalDesign::RowStore);
    let cs = tpch::workload(scale, PhysicalDesign::Columnstore);
    let e_row = per_operator_errors(&row, &full, Metric::Time, &opts());
    let e_cs = per_operator_errors(&cs, &full, Metric::Time, &opts());
    let flat = |e: PerOperatorErrors| -> BTreeMap<String, f64> {
        e.by_config
            .into_iter()
            .next()
            .map(|(_, m)| m)
            .unwrap_or_default()
    };
    Fig20 {
        tpch: flat(e_row),
        tpch_columnstore: flat(e_cs),
    }
}
