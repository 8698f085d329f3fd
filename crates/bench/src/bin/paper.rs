//! `paper` — regenerate the paper's evaluation.
//!
//! With no selector, runs every figure and prints all results — the
//! one-shot "regenerate the paper" entry point; EXPERIMENTS.md records its
//! output at the default scale. `--only <name>` runs one experiment of
//! [`EXPERIMENTS`] at full detail (and honours `--json`); `--list` prints
//! the names.
//!
//! ```text
//! paper [--only NAME | --list] [--scale F] [--queries N] [--seed N] [--json PATH]
//! ```

use lqs::exec::ExecOptions;
use lqs::harness::ensemble::{ensemble_real, render_ensemble_markdown};
use lqs::harness::figures::{self, Point};
use lqs::harness::report::{render_frequencies, render_per_operator, render_workload_errors};
use lqs::harness::{
    calibrate_weights, estimates_only, run_query, workload_errors, ConfigSpec, Metric,
};
use lqs::plan::CostModel;
use lqs::progress::{compute_bounds, error_time, EstimatorConfig, PlanStatics};
use lqs::workloads::{standard_five, tpcds, tpch, PhysicalDesign, WorkloadScale};
use lqs_bench::{Cli, Kind};

const CLI: Cli = Cli {
    usage: "usage: paper [--only NAME | --list] [--scale F] [--queries N] [--seed N] [--json PATH]",
    flags: &[
        ("--only", Kind::Text),
        ("--list", Kind::Switch),
        ("--scale", Kind::Float),
        ("--queries", Kind::Int),
        ("--seed", Kind::Int),
        ("--json", Kind::Text),
    ],
};

/// What every experiment is handed.
struct Run {
    scale: WorkloadScale,
    /// Where to also dump the figure data as JSON.
    json: Option<String>,
}

impl Run {
    fn write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            std::fs::write(path, lqs::harness::report::to_json(value))
                .expect("failed to write JSON output");
            eprintln!("wrote {path}");
        }
    }
}

type Experiment = fn(&Run);

/// Every experiment `--only` can name, in the paper's order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig08", fig08),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", |r| {
        fig14(
            r,
            "Figure 14 — Errorcount: cardinality refinement & bounding",
        )
    }),
    ("fig15", fig15),
    ("fig16", |r| {
        fig16(r, "Figure 16 — Errortime: operator weights")
    }),
    ("fig17", |r| {
        fig17(r, "== Figure 17 — Errortime for blocking operators ==")
    }),
    ("fig18", |r| {
        fig18(
            r,
            "== Figure 18 — Errortime with and without Columnstore Indexes ==",
        )
    }),
    ("fig19", |r| {
        fig19(r, "Figure 19 — operator distribution by physical design")
    }),
    ("fig20", |r| {
        let title = "== Figure 20 — per-operator Errortime by physical design ==";
        let (op, a, b) = ("operator", "TPC-H", "TPC-H ColumnStore");
        fig20(r, &format!("{title}\n{op:<34}{a:>12}{b:>22}"))
    }),
    ("table1", table1),
    ("ablation-extensions", ablation_extensions),
    ("ablation-guards", ablation_guards),
    ("ablation-polling", ablation_polling),
    ("ensemble-real", ensemble_real_table),
];

fn main() {
    let flags = CLI.parse_env();
    if flags.on("--list") {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let default = WorkloadScale::default();
    let scale = WorkloadScale {
        data_scale: flags.float("--scale").unwrap_or(default.data_scale),
        query_limit: flags
            .int("--queries")
            .map_or(default.query_limit, |n| n as usize),
        seed: flags.int("--seed").unwrap_or(default.seed),
    };
    let run = Run {
        scale,
        json: flags.text("--json").map(str::to_owned),
    };
    if flags.text("--only").is_some() {
        CLI.select(&flags, "--only", EXPERIMENTS)(&run);
    } else {
        full_evaluation(scale);
    }
}

/// Every figure once: the time-series figures as their headline numbers,
/// the tables in full.
fn full_evaluation(scale: WorkloadScale) {
    eprintln!(
        "running full evaluation at data_scale={} query_limit={:?} seed={}",
        scale.data_scale,
        if scale.query_limit == usize::MAX {
            "full".to_string()
        } else {
            scale.query_limit.to_string()
        },
        scale.seed
    );

    let f8 = figures::figure8(scale);
    println!(
        "Figure 8  : max Ki-ratio {:.1}x, final {:.2}x",
        f8.max_ratio, f8.final_ratio
    );
    let f11 = figures::figure11(scale);
    println!(
        "Figure 11 : hash-agg error output-only {:.4} vs two-phase {:.4}",
        f11.error_output_only, f11.error_two_phase
    );
    let f12 = figures::figure12(scale);
    println!(
        "Figure 12 : Q21 Errortime weighted {:.4} vs unweighted {:.4}",
        f12.error_weighted, f12.error_unweighted
    );
    let f13 = figures::figure13(scale);
    println!(
        "Figure 13 : Q36 Errortime LQS {:.4} vs TGN {:.4}",
        f13.error1, f13.error2
    );

    // The full run never wrote JSON: one path cannot hold seven figures.
    let run = Run { scale, json: None };
    fig14(&run, "Figure 14 — Errorcount");
    fig15(&run);
    fig16(&run, "Figure 16 — Errortime (weights)");
    fig17(&run, "== Figure 17 — blocking-operator Errortime ==");
    fig18(&run, "\n== Figure 18 — Errortime by physical design ==");
    fig19(&run, "Figure 19 — operator distribution");
    fig20(&run, "== Figure 20 — per-operator Errortime by design ==");
}

/// Print a time series compactly: sampled rows of `t  v1  v2 ...`, then a
/// blank line.
fn print_series(title: &str, names: &[&str], series: &[&[Point]]) {
    println!("== {title} ==");
    print!("{:>8}", "t");
    for n in names {
        print!("{n:>16}");
    }
    println!();
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in (0..len).step_by((len / 24).max(1)) {
        let t = series
            .iter()
            .find_map(|s| s.get(i))
            .map(|p| p.t)
            .unwrap_or(0.0);
        print!("{t:>8.3}");
        for s in series {
            match s.get(i) {
                Some(p) => print!("{:>16.4}", p.v),
                None => print!("{:>16}", "-"),
            }
        }
        println!();
    }
    println!();
}

/// Figure 8: GetNext counts of a Nested Loops operator vs the Parallelism
/// (exchange) operator above it, over time. The paper highlights k-ratios
/// of 88x and 12x early in execution, converging by the end.
fn fig08(run: &Run) {
    let fig = figures::figure8(run.scale);
    print_series(
        "Figure 8 — GetNext calls: Nested Loops vs Parallelism",
        &["Ki(NestedLoop)", "Ki(Parallelism)"],
        &[&fig.nested_loops, &fig.exchange],
    );
    println!(
        "max Ki-ratio    : {:>10.1}x   (paper: >88x early)",
        fig.max_ratio
    );
    println!(
        "final Ki-ratio  : {:>10.2}x   (paper: converges)",
        fig.final_ratio
    );
    run.write_json(&fig);
}

/// Figure 11: progress of a TPC-DS Q13-shaped Hash Aggregate under the
/// output-only model vs the two-phase (input+output) model of §4.5, against
/// true (time-proportional) progress.
fn fig11(run: &Run) {
    let fig = figures::figure11(run.scale);
    print_series(
        "Figure 11 — Hash Aggregate progress models (TPC-DS Q13 shape)",
        &["Output Ni only", "Input+Output Ni", "True"],
        &[&fig.output_only, &fig.two_phase, &fig.true_progress],
    );
    println!(
        "mean |error|, output-only model : {:.4}",
        fig.error_output_only
    );
    println!(
        "mean |error|, two-phase model   : {:.4}",
        fig.error_two_phase
    );
    run.write_json(&fig);
}

/// Figure 12: weighted vs unweighted query progress over time for the
/// TPC-DS Q21-shaped 6-pipeline plan (§4.6).
fn fig12(run: &Run) {
    let fig = figures::figure12(run.scale);
    print_series(
        "Figure 12 — TPC-DS Q21 progress with and without operator weights",
        &["Weighted", "Unweighted"],
        &[&fig.weighted, &fig.unweighted],
    );
    println!("Errortime weighted   : {:.4}", fig.error_weighted);
    println!("Errortime unweighted : {:.4}", fig.error_unweighted);
    run.write_json(&fig);
}

/// Figure 13: two example progress estimators on the TPC-DS Q36 shape,
/// illustrating what a ~0.1 difference in error metric means visually.
fn fig13(run: &Run) {
    let fig = figures::figure13(run.scale);
    print_series(
        "Figure 13 — two estimators on TPC-DS Q36",
        &["Estimator 1 (LQS)", "Estimator 2 (TGN)"],
        &[&fig.estimator1, &fig.estimator2],
    );
    println!("Errortime estimator 1: {:.4}", fig.error1);
    println!("Errortime estimator 2: {:.4}", fig.error2);
    run.write_json(&fig);
}

/// Figure 14: Errorcount per workload for No-Refinement / Bounding-only /
/// Bounding+Refinement (§4.1/§4.2 evaluation).
fn fig14(run: &Run, title: &str) {
    let rows = figures::figure14(run.scale);
    println!("{}", render_workload_errors(title, &rows));
    run.write_json(&rows);
}

/// Figure 15: per-operator Errorcount for no-refinement / refinement /
/// refinement + semi-blocking adjustments (§4.4 evaluation).
fn fig15(run: &Run) {
    let data = figures::figure15(run.scale);
    println!(
        "{}",
        render_per_operator("Figure 15 — per-operator Errorcount", &data)
    );
    run.write_json(&data);
}

/// Figure 16: Errortime per workload, weighted vs unweighted estimators
/// (§4.6 evaluation).
fn fig16(run: &Run, title: &str) {
    let rows = figures::figure16(run.scale);
    println!("{}", render_workload_errors(title, &rows));
    run.write_json(&rows);
}

/// Figure 17: Errortime for blocking operators (Hash Match, Sort) under the
/// output-only vs input+output progress models (§4.5 evaluation).
fn fig17(run: &Run, heading: &str) {
    let fig = figures::figure17(run.scale);
    println!("{heading}");
    for (label, map) in &fig.by_config {
        println!("{label}:");
        for (op, err) in map {
            println!("    {op:<28}{err:>10.4}");
        }
    }
    run.write_json(&fig);
}

/// Figure 18: average Errortime for TPC-H under the row-store physical
/// design vs the columnstore design (§4.7 / §5.4 evaluation).
fn fig18(run: &Run, heading: &str) {
    let fig = figures::figure18(run.scale);
    println!("{heading}");
    println!("TPC-H             : {:.4}", fig.tpch);
    println!("TPC-H ColumnStore : {:.4}", fig.tpch_columnstore);
    run.write_json(&fig);
}

/// Figure 19: operator frequencies across the TPC-H workload under the two
/// physical designs — columnstore plans collapse to scans + hash joins.
fn fig19(run: &Run, title: &str) {
    let fig = figures::figure19(run.scale);
    println!(
        "{}",
        render_frequencies(
            title,
            "TPC-H",
            &fig.tpch,
            "TPC-H ColumnStore",
            &fig.tpch_columnstore,
        )
    );
    run.write_json(&fig);
}

/// Figure 20: per-operator Errortime for the two TPC-H physical designs.
fn fig20(run: &Run, heading: &str) {
    let fig = figures::figure20(run.scale);
    println!("{heading}");
    let mut ops: Vec<&String> = fig.tpch.keys().chain(fig.tpch_columnstore.keys()).collect();
    ops.sort();
    ops.dedup();
    let cell = |v: Option<&f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    for op in ops {
        let (a, b) = (cell(fig.tpch.get(op)), cell(fig.tpch_columnstore.get(op)));
        println!("{op:<34}{a:>12}{b:>22}");
    }
    run.write_json(&fig);
}

/// Appendix A (Table 1): worst-case cardinality bounding logic. Runs a
/// multi-pipeline TPC-H query and prints each operator's [LB, UB] interval
/// around its true cardinality at several points in time, verifying the
/// bracketing invariant along the way.
fn table1(run: &Run) {
    let t = tpch::build_db(run.scale, PhysicalDesign::RowStore);
    let queries = tpch::queries(&t);
    let q = queries
        .iter()
        .find(|q| q.name == "tpch-q03")
        .expect("q03 exists");
    println!("== Table 1 — cardinality bounds over time ({}) ==", q.name);
    println!("{}", q.plan.display_tree());
    let exec = run_query(&t.db, &q.plan, &ExecOptions::default());
    let statics = PlanStatics::build(&q.plan, &t.db, CostModel::default().io_page_ns);

    let n = exec.snapshots.len();
    let mut violations = 0usize;
    for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let i = ((n as f64 * frac) as usize).min(n - 1);
        let s = &exec.snapshots[i];
        let bounds = compute_bounds(&statics, s);
        println!("\n-- t = {:.0}% --", frac * 100.0);
        println!(
            "{:<30}{:>12}{:>14}{:>14}{:>14}",
            "operator", "K(t)", "LB", "N_true", "UB"
        );
        for (j, &b) in bounds.iter().enumerate() {
            let n_true = exec.true_n(j);
            if b.lb > n_true || b.ub < n_true {
                violations += 1;
            }
            let ub = if b.ub.is_finite() {
                format!("{:.0}", b.ub)
            } else {
                "inf".to_string()
            };
            println!(
                "{:<30}{:>12}{:>14.0}{:>14.0}{:>14}",
                statics.nodes[j].name,
                s.node(j).rows_output,
                b.lb,
                n_true,
                ub
            );
        }
    }
    println!("\nbracketing violations: {violations} (expect 0)");
    assert_eq!(violations, 0);
}

/// Ablation of the §7 future-work extensions this reproduction implements
/// on top of the shipped LQS feature set:
///
/// (a) propagation of refined cardinalities across pipeline boundaries
///     (`EstimatorConfig::extended`), and
/// (b) per-operator weight feedback learned from prior executions
///     (`calibrate_weights` + `with_weight_feedback`).
///
/// Prints Errorcount/Errortime for full vs full+ext(a) vs full+ext(a,b) on
/// each workload.
fn ablation_extensions(run: &Run) {
    let opts = ExecOptions::default();
    let mut count_rows = Vec::new();
    let mut time_rows = Vec::new();
    for w in standard_five(run.scale) {
        // Learn weight multipliers from the same workload ("feedback from
        // prior executions of queries", §7(b)).
        let calibration = calibrate_weights(&w, &opts);
        let configs = vec![
            ConfigSpec {
                label: "LQS (full)",
                config: EstimatorConfig::full(),
            },
            ConfigSpec {
                label: "+ refined propagation",
                config: EstimatorConfig::extended(),
            },
            ConfigSpec {
                label: "+ weight feedback",
                config: EstimatorConfig::extended().with_weight_feedback(calibration.clone()),
            },
        ];
        count_rows.push(workload_errors(&w, &configs, Metric::Count, &opts));
        time_rows.push(workload_errors(&w, &configs, Metric::Time, &opts));
    }
    println!(
        "{}",
        render_workload_errors("Extensions ablation — Errorcount", &count_rows)
    );
    println!(
        "{}",
        render_workload_errors("Extensions ablation — Errortime", &time_rows)
    );
}

/// Ablation of the §4.1 refinement guard thresholds: how sensitive is
/// Errorcount to the minimum-rows-observed conditions before refinement is
/// allowed to kick in? (DESIGN.md design-choice ablation.)
fn ablation_guards(run: &Run) {
    let opts = ExecOptions::default();
    let guards: [(&'static str, u64, u64); 4] = [
        ("guards 1/1 (eager)", 1, 1),
        ("guards 50/10 (paper-ish)", 50, 10),
        ("guards 500/100", 500, 100),
        ("guards 5000/1000 (timid)", 5000, 1000),
    ];
    let configs: Vec<ConfigSpec> = guards
        .iter()
        .map(|&(label, d, n)| {
            let mut c = EstimatorConfig::full();
            c.refine_min_driver_rows = d;
            c.refine_min_node_rows = n;
            ConfigSpec { label, config: c }
        })
        .collect();
    let rows: Vec<_> = standard_five(run.scale)
        .iter()
        .map(|w| workload_errors(w, &configs, Metric::Count, &opts))
        .collect();
    println!(
        "{}",
        render_workload_errors("Refinement-guard ablation — Errorcount", &rows)
    );
}

/// Ablation of the DMV polling rate: the paper's client polls every 500 ms;
/// this sweep shows how Errortime degrades as snapshots get sparser
/// (coarser observations), and that the estimator itself is insensitive to
/// polling frequency (it is memoryless per snapshot).
fn ablation_polling(run: &Run) {
    let t = tpcds::build_db(run.scale);
    let queries = tpcds::queries(&t);
    println!(
        "{:<12}{:>14}{:>14}{:>14}",
        "query", "24 samples", "192 samples", "1536 samples"
    );
    for q in &queries {
        let mut row = format!("{:<12}", q.name);
        for target in [24usize, 192, 1536] {
            let opts = ExecOptions {
                snapshot_target: target,
                ..ExecOptions::default()
            };
            let exec = run_query(&t.db, &q.plan, &opts);
            let est = estimates_only(&q.plan, &t.db, &exec, EstimatorConfig::full());
            row.push_str(&format!("{:>14.4}", error_time(&exec, &est)));
        }
        println!("{row}");
    }
}

/// Ensemble-vs-members error table over the REAL workloads — the
/// robustness evaluation behind the "Ensemble estimation" section of
/// EXPERIMENTS.md.
///
/// For every query of REAL-1/2/3 the full snapshot trace is replayed
/// through the six competing estimators and the online selection layer,
/// and §5's ErrorAvg is aggregated per member vs. the composed ensemble.
/// The claim the table backs: the ensemble's per-workload ErrorAvg is no
/// worse than every individual member's (ties allowed); exits 1 otherwise.
fn ensemble_real_table(run: &Run) {
    let rows = ensemble_real(run.scale);
    println!("{}", render_ensemble_markdown(&rows));
    let mut dominated = true;
    for r in &rows {
        if !r.ensemble_dominates() {
            dominated = false;
            let best = r
                .members
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("members non-empty");
            eprintln!(
                "{}: ensemble ErrorAvg {:.4} is beaten by member {} at {:.4}",
                r.workload, r.ensemble_error_avg, best.0, best.1
            );
        }
    }
    run.write_json(&rows);
    if !dominated {
        std::process::exit(1);
    }
    println!("ensemble ErrorAvg <= every member on every workload");
}
