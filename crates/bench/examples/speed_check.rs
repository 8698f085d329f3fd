//! Quick `limit 1`-vs-`limit 1024` engine throughput check (development
//! aid).
//!
//! Runs each workload with the root driven one row per call
//! (`ExecMode::Tuple`) and `batch_size` rows per call (`ExecMode::Batch`),
//! the same operator code either way, with a best-of-K wall-clock timer,
//! and prints Melem/s plus the batch/tuple speedup. The committed
//! numbers live in `BENCH_engine.json` (produced by `lqs_engine_bench`);
//! this example exists for fast local iteration.

use lqs::exec::{execute, ExecMode, ExecOptions};
use lqs::plan::{AggFunc, Aggregate, Expr, JoinKind, PhysicalPlan, PlanBuilder, SortKey};
use lqs::storage::{Column, DataType, Database, Schema, Table, Value};
use std::time::Instant;

fn db(rows: i64) -> (Database, lqs::storage::TableId) {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..rows {
        t.insert(vec![Value::Int(i), Value::Int(i % 97)]).unwrap();
    }
    let mut d = Database::new();
    let id = d.add_table_analyzed(t);
    (d, id)
}

fn opts(mode: ExecMode) -> ExecOptions {
    ExecOptions {
        mode,
        ..ExecOptions::default()
    }
}

fn timed(f: &mut dyn FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn run(name: &str, rows: i64, d: &Database, plan: &PhysicalPlan) {
    let reps = 7;
    // Interleave the two modes so clock-frequency drift over the
    // measurement window hits both equally and cancels in the ratio.
    let (mut t, mut b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        t = t.min(timed(&mut || {
            execute(d, plan, &opts(ExecMode::Tuple));
        }));
        b = b.min(timed(&mut || {
            execute(d, plan, &opts(ExecMode::Batch));
        }));
    }
    println!(
        "{name:14} tuple {:8.1} Melem/s   batch {:8.1} Melem/s   speedup {:.2}x",
        rows as f64 / t / 1e6,
        rows as f64 / b / 1e6,
        t / b
    );
}

fn main() {
    const ROWS: i64 = 200_000;
    let (d, t) = db(ROWS);

    {
        let mut pb = PlanBuilder::new(&d);
        let scan = pb.table_scan(t);
        let plan = pb.finish(scan);
        run("table_scan", ROWS, &d, &plan);
    }
    {
        let mut pb = PlanBuilder::new(&d);
        let scan = pb.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(50i64)), true);
        let plan = pb.finish(scan);
        run("filter_scan", ROWS, &d, &plan);
    }
    for depth in [6usize, 8, 10, 12] {
        // Deep row-mode pipeline: scan -> N stacked filters. Per-level
        // overhead dominates here, which is what batching attacks.
        let mut pb = PlanBuilder::new(&d);
        let mut node = pb.table_scan(t);
        for k in 0..depth {
            node = pb.filter(node, Expr::col(1).lt(Expr::lit(97 - k as i64)));
        }
        let plan = pb.finish(node);
        run(&format!("pipeline{depth}"), ROWS, &d, &plan);
    }
    {
        let mut pb = PlanBuilder::new(&d);
        let scan = pb.table_scan(t);
        let agg = pb.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
        let plan = pb.finish(agg);
        run("hash_agg", ROWS, &d, &plan);
    }
    {
        let mut pb = PlanBuilder::new(&d);
        let scan = pb.table_scan(t);
        let sort = pb.sort(scan, vec![SortKey::desc(1), SortKey::asc(0)]);
        let plan = pb.finish(sort);
        run("sort", ROWS, &d, &plan);
    }
    {
        let mut pb = PlanBuilder::new(&d);
        let l = pb.table_scan(t);
        let r = pb.table_scan(t);
        let j = pb.hash_join(JoinKind::LeftSemi, l, r, vec![0], vec![0]);
        let plan = pb.finish(j);
        run("hash_join", ROWS, &d, &plan);
    }
}
