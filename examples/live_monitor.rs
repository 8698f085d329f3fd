//! Live Query Statistics, terminal edition: renders the information of the
//! paper's Figures 2–4 as text — the plan tree with a per-operator progress
//! bar, elapsed time, rows-so-far vs estimate, and pipeline activity
//! (completed / executing / not started), sampled as the query "runs".
//!
//! Run with: `cargo run --release --example live_monitor`

use lqs::exec::{DmvSnapshot, QueryRun};
use lqs::plan::{NodeId, PhysicalPlan, PipelineSet};
use lqs::prelude::*;
use lqs::workloads::{tpch, PhysicalDesign, WorkloadScale};

fn bar(p: f64, width: usize) -> String {
    let filled = (p * width as f64).round() as usize;
    format!(
        "[{}{}]",
        "#".repeat(filled.min(width)),
        "-".repeat(width.saturating_sub(filled))
    )
}

fn render(
    plan: &PhysicalPlan,
    pipes: &PipelineSet,
    run: &QueryRun,
    s: &DmvSnapshot,
    report: &lqs::progress::ProgressReport,
    node: NodeId,
    depth: usize,
) {
    let n = plan.node(node);
    let np = &report.nodes[node.0];
    let c = s.node(node.0);
    let status = if c.is_closed() {
        "done   "
    } else if c.is_open() {
        "running"
    } else {
        "waiting"
    };
    let elapsed_ms = match (c.open_ns, c.close_ns) {
        (Some(o), Some(cl)) => (cl - o) as f64 / 1e6,
        (Some(o), None) => (s.ts_ns.saturating_sub(o)) as f64 / 1e6,
        _ => 0.0,
    };
    println!(
        "{:indent$}{:<30} {} {:>5.1}%  {:>8} rows of {:<8} est={:<8} {:>7.1}ms  {}  P{}",
        "",
        n.op.display_name(),
        bar(np.progress, 16),
        np.progress * 100.0,
        c.rows_output,
        format!("{:.0}", run.true_n(node.0)),
        format!("{:.0}", np.refined_n),
        elapsed_ms,
        status,
        pipes.pipeline_of(node).0,
        indent = depth * 2
    );
    for &ch in &n.children {
        render(plan, pipes, run, s, report, ch, depth + 1);
    }
}

fn main() {
    let scale = WorkloadScale {
        data_scale: 0.5,
        query_limit: usize::MAX,
        seed: 42,
    };
    let t = tpch::build_db(scale, PhysicalDesign::RowStore);
    let queries = tpch::queries(&t);
    // TPC-H Q1, the query shown in the paper's Figure 2.
    let q = queries.iter().find(|q| q.name == "tpch-q01").expect("q01");
    let run = execute(&t.db, &q.plan, &ExecOptions::default());
    let estimator = ProgressEstimator::with_cost_model(
        &q.plan,
        &t.db,
        EstimatorConfig::full(),
        &run.cost_model,
    );
    let pipes = PipelineSet::decompose(&q.plan);

    for frac in [0.05, 0.25, 0.5, 0.75, 0.95] {
        let i = ((run.snapshots.len() as f64 * frac) as usize).min(run.snapshots.len() - 1);
        let s = &run.snapshots[i];
        let report = estimator.estimate(s);
        println!(
            "\n======== {}  |  elapsed {:>6.1} virtual ms  |  overall query progress: {:>5.1}% ========",
            q.name,
            s.ts_ns as f64 / 1e6,
            report.query_progress * 100.0
        );
        render(&q.plan, &pipes, &run, s, &report, q.plan.root(), 0);
        // Pipeline activity summary (the Figure 3 view).
        print!("pipelines: ");
        for p in pipes.pipelines() {
            let any_open = p.nodes.iter().any(|n| s.node(n.0).is_open());
            let all_closed = p.nodes.iter().all(|n| s.node(n.0).is_closed());
            let state = if all_closed {
                "completed"
            } else if any_open {
                "EXECUTING"
            } else {
                "pending"
            };
            print!("P{}={state}  ", p.id.0);
        }
        println!();
    }
}
