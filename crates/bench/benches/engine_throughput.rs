//! Engine substrate throughput: virtual-clock row rates through the core
//! operators, to document the simulator's own cost (distinct from the
//! virtual time it models).
//!
//! Each workload runs at both root limits — `tuple` asks the root for one
//! row per `next_batch` call, `batch` for `batch_size` (production), over
//! the same operator code — so the criterion report shows what batching
//! amortizes per operator. The committed numbers live in
//! `BENCH_engine.json` (see `lqs_engine_bench`); this bench is for
//! interactive profiling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lqs::exec::{execute, ExecMode, ExecOptions};
use lqs::plan::{AggFunc, Aggregate, Expr, JoinKind, PhysicalPlan, PlanBuilder, SortKey};
use lqs::storage::{Column, DataType, Database, Schema, Table, Value};

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

fn bench_modes(
    g: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    d: &Database,
    plan: &PhysicalPlan,
) {
    g.bench_function(&format!("{name}/tuple"), |b| {
        b.iter(|| execute(d, plan, &opts(ExecMode::Tuple)))
    });
    g.bench_function(&format!("{name}/batch"), |b| {
        b.iter(|| execute(d, plan, &opts(ExecMode::Batch)))
    });
}

fn bench_engine(c: &mut Criterion) {
    const ROWS: i64 = 50_000;
    let (d, t) = db(ROWS);
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(ROWS as u64));

    {
        let mut pb = PlanBuilder::new(&d);
        let scan = pb.table_scan(t);
        let plan = pb.finish(scan);
        bench_modes(&mut g, "table_scan", &d, &plan);
    }
    {
        let mut pb = PlanBuilder::new(&d);
        let scan = pb.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(50i64)), true);
        let plan = pb.finish(scan);
        bench_modes(&mut g, "filter_scan", &d, &plan);
    }
    // Deep row-mode pipeline: scan under stacked filters, where per-operator
    // overhead dominates — the headline case for a large `limit`.
    for depth in [6usize, 12] {
        let mut pb = PlanBuilder::new(&d);
        let mut node = pb.table_scan(t);
        for k in 0..depth {
            node = pb.filter(node, Expr::col(1).lt(Expr::lit(97 - k as i64)));
        }
        let plan = pb.finish(node);
        bench_modes(&mut g, &format!("pipeline{depth}"), &d, &plan);
    }
    {
        let mut pb = PlanBuilder::new(&d);
        let scan = pb.table_scan(t);
        let agg = pb.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
        let plan = pb.finish(agg);
        bench_modes(&mut g, "hash_aggregate", &d, &plan);
    }
    {
        let mut pb = PlanBuilder::new(&d);
        let scan = pb.table_scan(t);
        let sort = pb.sort(scan, vec![SortKey::desc(1), SortKey::asc(0)]);
        let plan = pb.finish(sort);
        bench_modes(&mut g, "sort", &d, &plan);
    }
    {
        let mut pb = PlanBuilder::new(&d);
        let l = pb.table_scan(t);
        let r = pb.table_scan(t);
        let j = pb.hash_join(JoinKind::LeftSemi, l, r, vec![0], vec![0]);
        let plan = pb.finish(j);
        bench_modes(&mut g, "hash_join", &d, &plan);
    }

    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
