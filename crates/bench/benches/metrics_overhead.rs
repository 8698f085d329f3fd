//! Metrics overhead accounting: one representative pipeline (scan → hash
//! join → aggregate → sort) run with no hooks at all, with hooks attached
//! but metrics disabled (the production default when telemetry is off), and
//! with a live `ExecMetrics` recording into a registry. The acceptance bar is <2%
//! regression for the disabled path; the recording path only adds a
//! handful of histogram observations at query close, so it should land
//! in the same band.
//!
//! A separate group measures the exposition itself — `render()` over a
//! populated registry — since scrapes happen off the query path and
//! their cost must be visible, not hidden.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lqs::exec::{execute, execute_hooked, ExecHooks, ExecMetrics, ExecOptions};
use lqs::metrics::MetricsRegistry;
use lqs::plan::{AggFunc, Aggregate, JoinKind, PlanBuilder, SortKey};
use lqs::storage::Database;
use std::sync::Arc;

/// Scan → hash join → aggregate → sort, so per-operator families cover
/// several op kinds.
fn plan(d: &Database, t: lqs::storage::TableId) -> lqs::plan::PhysicalPlan {
    let mut pb = PlanBuilder::new(d);
    let l = pb.table_scan(t);
    let r = pb.table_scan(t);
    let j = pb.hash_join(JoinKind::Inner, l, r, vec![0], vec![0]);
    let agg = pb.hash_aggregate(j, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
    let sort = pb.sort(agg, vec![SortKey::desc(1)]);
    pb.finish(sort)
}

fn bench_metrics(c: &mut Criterion) {
    // Small on purpose: a shorter iteration packs more samples into the
    // stub's fixed measurement window, and the disabled-path
    // comparison needs a stable median more than it needs scale (`execute` is
    // literally `execute_hooked` with default hooks, so any measured gap
    // between the first two entries is scheduler noise, not code).
    const ROWS: i64 = 20_000;
    let mut d = Database::new();
    let t = d.add_table_analyzed(lqs_bench::table_t(ROWS, 97));
    let plan = plan(&d, t);
    let mut g = c.benchmark_group("metrics");
    g.throughput(Throughput::Elements(ROWS as u64));

    g.bench_function("baseline", |b| {
        b.iter(|| execute(&d, &plan, &ExecOptions::default()))
    });

    g.bench_function("hooks_no_metrics", |b| {
        b.iter(|| execute_hooked(&d, &plan, &ExecOptions::default(), ExecHooks::default()))
    });

    g.bench_function("metrics_recording", |b| {
        let metrics = ExecMetrics::new(Arc::new(MetricsRegistry::new()));
        b.iter(|| {
            let hooks = ExecHooks {
                metrics: Some(&metrics),
                ..ExecHooks::default()
            };
            execute_hooked(&d, &plan, &ExecOptions::default(), hooks)
        })
    });

    g.finish();

    // Scrape cost over a registry populated by real runs: this is what one
    // GET /metrics pays, independent of any query execution.
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = ExecMetrics::new(Arc::clone(&registry));
    for _ in 0..32 {
        let hooks = ExecHooks {
            metrics: Some(&metrics),
            ..ExecHooks::default()
        };
        execute_hooked(&d, &plan, &ExecOptions::default(), hooks).unwrap();
    }
    let mut g = c.benchmark_group("exposition");
    g.bench_function("render", |b| b.iter(|| registry.render()));
    g.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
