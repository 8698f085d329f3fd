//! `lqs_engine_bench` — engine substrate throughput: the one operator
//! code path driven one row at a time vs 1024 rows at a time.
//!
//! Measures each workload in both [`ExecMode::Tuple`] (the root asked for
//! `limit = 1` rows per `next_batch` call) and [`ExecMode::Batch`]
//! (`limit = batch_size`, production) — the same operators either way, so
//! the ratio is what batching amortizes per call — with a best-of-K
//! wall-clock timer. Self-timed with
//! `std::time::Instant` — no criterion — so it can run as a plain binary
//! in CI and emit machine-readable JSON. (Snapshot publishing is measured
//! by the benchmark ledger's `server.seqslot.*` layer figures, not here.)
//!
//! The headline "row-mode tuples/sec" figure is `pipeline12` (a table
//! scan under twelve stacked filters): per-operator overhead dominates
//! there, which is exactly what a larger `limit` amortizes. Bare scans
//! are memcpy/refcount-bound and cannot show the pipeline effect.
//!
//! ```text
//! lqs_engine_bench [--rows 200000] [--reps 7] [--quick]
//!                  [--out BENCH_engine.json] [--check BENCH_engine.json]
//! ```
//!
//! Checks (exit non-zero on failure):
//! * always: profiling must stay cheap — the headline pipeline run at the
//!   production batch size *with a recording event sink attached* must
//!   keep its throughput within 10% of the bare run (re-measured up to
//!   twice to rule out scheduling dips);
//! * with `--out FILE`: headline batch/tuple (`limit` 1024 / `limit` 1)
//!   speedup ≥ 2.0 — a committed baseline must demonstrate what batching
//!   is there to buy;
//! * with `--check FILE`: the measured headline speedup must not fall
//!   more than 10% below the committed baseline's speedup (re-measured up
//!   to twice to rule out scheduling dips), and neither must the seek
//!   path's standing against a bare scan — `index_nl_ob1` ÷ `table_scan`
//!   batch Melem/s, both from this process — under the same policy.
//!   Ratios, not absolute rates, so the check is meaningful across
//!   machines.

use lqs::exec::{execute, execute_traced, ExecMode, ExecOptions};
use lqs::obs::RingBufferSink;
use lqs::plan::{
    AggFunc, Aggregate, Expr, JoinKind, PhysicalPlan, PlanBuilder, SeekKey, SeekRange, SortKey,
};
use lqs::storage::{Database, IndexId, TableId};
use lqs_bench::{table_t, Cli, Kind};
use serde_json::Value as Json;
use std::time::Instant;

const HEADLINE: &str = "pipeline12";
/// The correlated-seek row and the row its rate is read against.
const SEEK: &str = "index_nl_ob1";
const SCAN: &str = "table_scan";
const MIN_HEADLINE_SPEEDUP: f64 = 2.0;
const CHECK_TOLERANCE: f64 = 0.9;
/// Batch-traced throughput may cost at most this fraction of bare batch.
const MAX_TRACED_OVERHEAD: f64 = 0.10;

const CLI: Cli = Cli {
    usage: "usage: lqs_engine_bench [--rows N] [--reps K] [--quick] [--out FILE] [--check FILE]",
    flags: &[
        ("--rows", Kind::Int),
        ("--reps", Kind::Int),
        ("--quick", Kind::Switch),
        ("--out", Kind::Text),
        ("--check", Kind::Text),
    ],
};

/// `t(a, b)`: `a` is the row number and the primary key, `b = a % 97`.
fn db(rows: i64) -> (Database, TableId, IndexId) {
    let mut d = Database::new();
    let id = d.add_table_analyzed(table_t(rows, 97));
    let pk = d.create_btree_index("pk_t", id, vec![0], true);
    (d, id, pk)
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

struct WorkloadResult {
    name: String,
    tuple_melem_s: f64,
    batch_melem_s: f64,
    speedup: f64,
}

fn run_workload(
    name: &str,
    rows: i64,
    reps: usize,
    d: &Database,
    plan: &PhysicalPlan,
) -> WorkloadResult {
    // Interleave the two modes so clock-frequency drift over the
    // measurement window hits both equally and cancels in the ratio (the
    // speedup is what the gates check — absolute rates are
    // machine-dependent).
    let (mut t, mut b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        t = t.min(timed(&mut || {
            execute(d, plan, &opts(ExecMode::Tuple));
        }));
        b = b.min(timed(&mut || {
            execute(d, plan, &opts(ExecMode::Batch));
        }));
    }
    let r = WorkloadResult {
        name: name.to_string(),
        tuple_melem_s: rows as f64 / t / 1e6,
        batch_melem_s: rows as f64 / b / 1e6,
        speedup: t / b,
    };
    println!(
        "{:14} tuple {:8.1} Melem/s   batch {:8.1} Melem/s   speedup {:.2}x",
        r.name, r.tuple_melem_s, r.batch_melem_s, r.speedup
    );
    r
}

/// A table scan under `depth` stacked filters.
fn pipeline_plan(d: &Database, t: TableId, depth: usize) -> PhysicalPlan {
    let mut pb = PlanBuilder::new(d);
    let mut node = pb.table_scan(t);
    for k in 0..depth {
        node = pb.filter(node, Expr::col(1).lt(Expr::lit(97 - k as i64)));
    }
    pb.finish(node)
}

/// The headline plan: twelve stacked filters.
fn headline_plan(d: &Database, t: TableId) -> PhysicalPlan {
    pipeline_plan(d, t, 12)
}

fn table_scan_plan(d: &Database, t: TableId) -> PhysicalPlan {
    let mut pb = PlanBuilder::new(d);
    let scan = pb.table_scan(t);
    pb.finish(scan)
}

/// An index nested-loops self-join on the primary key: one correlated seek
/// rebind per outer row.
fn index_nl_plan(d: &Database, t: TableId, pk: IndexId, outer_buffer: usize) -> PhysicalPlan {
    let mut pb = PlanBuilder::new(d);
    let outer = pb.table_scan(t);
    let inner = pb.index_seek(pk, SeekRange::eq(vec![SeekKey::OuterRef(0)]));
    let j = pb.nested_loops(JoinKind::Inner, outer, inner, None, outer_buffer);
    pb.finish(j)
}

/// `SEEK` ÷ `SCAN` batch throughput, measured afresh.
fn seek_over_scan(d: &Database, t: TableId, pk: IndexId, rows: i64, reps: usize) -> f64 {
    let seek = run_workload(SEEK, rows, reps, d, &index_nl_plan(d, t, pk, 1));
    let scan = run_workload(SCAN, rows, reps, d, &table_scan_plan(d, t));
    seek.batch_melem_s / scan.batch_melem_s
}

/// `value` if it clears `floor`, else the best of it and up to two fresh
/// measurements: a transient scheduling dip in one best-of window is far
/// more common than a real regression, and a retry that clears the floor
/// proves the dip was noise.
fn above_floor(what: &str, mut value: f64, floor: f64, mut remeasure: impl FnMut() -> f64) -> f64 {
    let mut attempts = 0;
    while value < floor && attempts < 2 {
        attempts += 1;
        println!("{what} below floor ({value:.4}) — re-measuring ({attempts}/2)");
        value = value.max(remeasure());
    }
    value
}

struct ProfilingResult {
    bare_melem_s: f64,
    traced_melem_s: f64,
    /// Fractional slowdown of traced vs bare (0.03 = 3% slower).
    overhead: f64,
}

/// The profiling overhead gate: the headline pipeline run at the
/// production batch size, bare vs with a recording event sink attached
/// (batch spans land in a ring buffer, the shape `lqs_live --profile`
/// uses). Interleaved best-of, same as the throughput rows, so the gate
/// checks a ratio rather than machine-dependent rates.
fn profiling_overhead(d: &Database, t: TableId, rows: i64, reps: usize) -> ProfilingResult {
    let plan = headline_plan(d, t);
    let (mut bare, mut traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        bare = bare.min(timed(&mut || {
            execute(d, &plan, &opts(ExecMode::Batch));
        }));
        traced = traced.min(timed(&mut || {
            let sink = RingBufferSink::new(1 << 16);
            execute_traced(d, &plan, &opts(ExecMode::Batch), &sink);
        }));
    }
    let r = ProfilingResult {
        bare_melem_s: rows as f64 / bare / 1e6,
        traced_melem_s: rows as f64 / traced / 1e6,
        overhead: traced / bare - 1.0,
    };
    println!(
        "{:14} batch {:8.1} Melem/s   traced {:8.1} Melem/s   overhead {:+.1}%",
        "batch_traced",
        r.bare_melem_s,
        r.traced_melem_s,
        r.overhead * 100.0
    );
    r
}

fn workloads(d: &Database, t: TableId, pk: IndexId, rows: i64, reps: usize) -> Vec<WorkloadResult> {
    let mut out = Vec::new();
    out.push(run_workload(SCAN, rows, reps, d, &table_scan_plan(d, t)));
    {
        let mut pb = PlanBuilder::new(d);
        let scan = pb.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(50i64)), true);
        let plan = pb.finish(scan);
        out.push(run_workload("filter_scan", rows, reps, d, &plan));
    }
    // Deep row-mode pipelines: a scan under N stacked filters. Per-operator
    // overhead dominates, which is what a larger `limit` amortizes; the
    // deepest is the headline figure.
    for depth in [6usize, 12] {
        let plan = pipeline_plan(d, t, depth);
        let name = format!("pipeline{depth}");
        out.push(run_workload(&name, rows, reps, d, &plan));
    }
    {
        let mut pb = PlanBuilder::new(d);
        let scan = pb.table_scan(t);
        let agg = pb.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
        let plan = pb.finish(agg);
        out.push(run_workload("hash_agg", rows, reps, d, &plan));
    }
    {
        let mut pb = PlanBuilder::new(d);
        let scan = pb.table_scan(t);
        let sort = pb.sort(scan, vec![SortKey::desc(1), SortKey::asc(0)]);
        let plan = pb.finish(sort);
        out.push(run_workload("sort", rows, reps, d, &plan));
    }
    {
        let mut pb = PlanBuilder::new(d);
        let l = pb.table_scan(t);
        let r = pb.table_scan(t);
        let j = pb.hash_join(JoinKind::LeftSemi, l, r, vec![0], vec![0]);
        let plan = pb.finish(j);
        out.push(run_workload("hash_join", rows, reps, d, &plan));
    }
    // The row-at-a-time joins, which is what the REAL-3 plans spend their
    // time in: an index nested-loops self-join on the primary key (one
    // correlated seek rebind per outer row; `outer_buffer = 1` also turns
    // the outer scan into 1-row calls) and a merge join over two sorts.
    for outer_buffer in [1usize, 512] {
        let plan = index_nl_plan(d, t, pk, outer_buffer);
        let name = format!("index_nl_ob{outer_buffer}");
        out.push(run_workload(&name, rows, reps, d, &plan));
    }
    {
        let mut pb = PlanBuilder::new(d);
        let l = pb.table_scan(t);
        let l = pb.sort(l, vec![SortKey::asc(0)]);
        let r = pb.table_scan(t);
        let r = pb.sort(r, vec![SortKey::asc(0)]);
        let j = pb.merge_join(JoinKind::Inner, l, r, vec![0], vec![0]);
        let plan = pb.finish(j);
        out.push(run_workload("merge_join", rows, reps, d, &plan));
    }
    out
}

// ---- JSON -----------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn emit_json(rows: i64, results: &[WorkloadResult], profiling: &ProfilingResult) -> Json {
    obj(vec![
        ("generated_by", Json::String("lqs_engine_bench".into())),
        ("rows", Json::Int(rows)),
        ("headline", Json::String(HEADLINE.into())),
        (
            "workloads",
            Json::Array(
                results
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("name", Json::String(r.name.clone())),
                            ("tuple_melem_per_s", Json::Float(r.tuple_melem_s)),
                            ("batch_melem_per_s", Json::Float(r.batch_melem_s)),
                            ("speedup", Json::Float(r.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "profiling",
            obj(vec![
                ("workload", Json::String(HEADLINE.into())),
                ("batch_melem_per_s", Json::Float(profiling.bare_melem_s)),
                (
                    "batch_traced_melem_per_s",
                    Json::Float(profiling.traced_melem_s),
                ),
                ("traced_overhead_frac", Json::Float(profiling.overhead)),
            ]),
        ),
    ])
}

fn main() {
    let flags = CLI.parse_env();
    let (rows, reps) = if flags.on("--quick") {
        (50_000, 5)
    } else {
        (200_000, 7)
    };
    let rows = flags.int("--rows").map_or(rows, |n| n as i64);
    let reps = flags.int("--reps").map_or(reps, |n| n as usize);
    let (out, check) = (flags.text("--out"), flags.text("--check"));
    let mut failures: Vec<String> = Vec::new();

    println!("engine throughput: rows={} reps={} (best-of)", rows, reps);
    let (d, t, pk) = db(rows);
    let results = workloads(&d, t, pk, rows, reps);

    println!("\nbatch-native profiling overhead ({HEADLINE}, recording sink attached)");
    let mut profiling = profiling_overhead(&d, t, rows, reps);
    // Same noise policy as the headline check: re-measure up to twice
    // before declaring the tracing path too slow — the gate is a tight
    // ratio and a single scheduling dip on either arm can blow it.
    let mut prof_attempts = 0;
    while profiling.overhead > MAX_TRACED_OVERHEAD && prof_attempts < 2 {
        prof_attempts += 1;
        println!(
            "traced overhead above gate ({:+.1}%) — re-measuring ({prof_attempts}/2)",
            profiling.overhead * 100.0
        );
        let retry = profiling_overhead(&d, t, rows, reps);
        if retry.overhead < profiling.overhead {
            profiling = retry;
        }
    }
    if profiling.overhead > MAX_TRACED_OVERHEAD {
        failures.push(format!(
            "batch tracing slows the hot path: {:+.1}% overhead with a recording \
             sink attached (allowed {:.0}%)",
            profiling.overhead * 100.0,
            MAX_TRACED_OVERHEAD * 100.0
        ));
    }

    let mut headline_speedup = results
        .iter()
        .find(|r| r.name == HEADLINE)
        .expect("headline workload present")
        .speedup;
    if out.is_some() && headline_speedup < MIN_HEADLINE_SPEEDUP {
        // A committed baseline must demonstrate the claimed improvement.
        failures.push(format!(
            "headline {HEADLINE} speedup {headline_speedup:.2}x < required \
             {MIN_HEADLINE_SPEEDUP:.1}x — not committing a baseline below the claim"
        ));
    }
    if let Some(path) = check {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = serde_json::from_str(&baseline)
            .unwrap_or_else(|e| panic!("baseline {path} is not JSON: {e:?}"));
        let base = |workload: &str, field: &str| {
            baseline
                .get("workloads")
                .and_then(|ws| match ws {
                    Json::Array(items) => items
                        .iter()
                        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
                        .and_then(|w| w.get(field))
                        .and_then(Json::as_f64),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("baseline {path} has no {workload} {field}"))
        };
        let base_speedup = base(HEADLINE, "speedup");
        let floor = base_speedup * CHECK_TOLERANCE;
        headline_speedup = above_floor("headline speedup", headline_speedup, floor, || {
            run_workload(HEADLINE, rows, reps, &d, &headline_plan(&d, t)).speedup
        });
        println!(
            "\ncheck vs {path}: headline speedup {headline_speedup:.2}x \
             (baseline {base_speedup:.2}x, floor {floor:.2}x)"
        );
        if headline_speedup < floor {
            failures.push(format!(
                "row-mode regression: headline speedup {headline_speedup:.2}x is more than \
                 10% below the committed baseline {base_speedup:.2}x"
            ));
        }

        // The same gate on the seek path: a correlated seek is what the
        // REAL-3 plans spend their time in, and its rate against a bare
        // scan of the same table in the same process is as
        // machine-independent as the headline speedup.
        let batch = |name: &str| {
            let r = results.iter().find(|r| r.name == name);
            r.expect("seek and scan workloads present").batch_melem_s
        };
        let base_ratio = base(SEEK, "batch_melem_per_s") / base(SCAN, "batch_melem_per_s");
        let floor = base_ratio * CHECK_TOLERANCE;
        let seek_ratio = above_floor("seek/scan", batch(SEEK) / batch(SCAN), floor, || {
            seek_over_scan(&d, t, pk, rows, reps)
        });
        println!(
            "check vs {path}: {SEEK}/{SCAN} batch {seek_ratio:.4} \
             (baseline {base_ratio:.4}, floor {floor:.4})"
        );
        if seek_ratio < floor {
            failures.push(format!(
                "seek-path regression: {SEEK}/{SCAN} batch throughput {seek_ratio:.4} is more \
                 than 10% below the committed baseline {base_ratio:.4}"
            ));
        }
    }

    if let Some(path) = out {
        let json = emit_json(rows, &results, &profiling);
        let mut text = serde_json::to_string_pretty(&json).expect("serialize");
        text.push('\n');
        std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("\nall engine bench checks passed");
}
