//! Tracing overhead accounting: the same plan run bare, with a no-op sink
//! attached, and with a recording ring-buffer sink — at both root limits.
//! The figures that matter operationally are the `batch` ones (production
//! drives the root with `limit = batch_size`); the `tuple` arms run the
//! same code with `limit = 1`, where every charging scope covers one row
//! and so emits one span per row — the worst case for the recording sink.
//! The acceptance bar is <2% regression for the no-op sink and
//! single-digit percent for the recording sink on the `batch` arms.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lqs::exec::{execute, execute_traced, ExecMode, ExecOptions};
use lqs::obs::{NullSink, RingBufferSink};
use lqs::plan::{AggFunc, Aggregate, JoinKind, PlanBuilder, SortKey};
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

/// A representative pipeline: scan → hash join → aggregate → sort, touching
/// every traced code path (lifecycle, phases, snapshots).
fn plan(d: &Database, t: lqs::storage::TableId) -> lqs::plan::PhysicalPlan {
    let mut pb = PlanBuilder::new(d);
    let l = pb.table_scan(t);
    let r = pb.table_scan(t);
    let j = pb.hash_join(JoinKind::Inner, l, r, vec![0], vec![0]);
    let agg = pb.hash_aggregate(j, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
    let sort = pb.sort(agg, vec![SortKey::desc(1)]);
    pb.finish(sort)
}

fn bench_tracing(c: &mut Criterion) {
    const ROWS: i64 = 50_000;
    let (d, t) = db(ROWS);
    let plan = plan(&d, t);
    let mut g = c.benchmark_group("tracing");
    g.throughput(Throughput::Elements(ROWS as u64));

    for (mode, label) in [(ExecMode::Tuple, "tuple"), (ExecMode::Batch, "batch")] {
        let opts = ExecOptions {
            mode,
            ..ExecOptions::default()
        };
        g.bench_function(&format!("{label}/untraced"), |b| {
            b.iter(|| execute(&d, &plan, &opts))
        });
        g.bench_function(&format!("{label}/null_sink"), |b| {
            let sink = NullSink;
            b.iter(|| execute_traced(&d, &plan, &opts, &sink))
        });
        g.bench_function(&format!("{label}/ring_buffer_sink"), |b| {
            b.iter(|| {
                let sink = RingBufferSink::new(1 << 16);
                execute_traced(&d, &plan, &opts, &sink)
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench_tracing);
criterion_main!(benches);
