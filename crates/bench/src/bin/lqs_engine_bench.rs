//! `lqs_engine_bench` — the workspace's timing gate: engine substrate
//! throughput (the one operator code path driven one row at a time vs 1024
//! rows at a time) and the estimator's cost per DMV snapshot.
//!
//! Measures each workload at batch size 1 (the root asked for `limit = 1`
//! rows per `next_batch` call) and at the default batch size (`limit =
//! 1024`, production) — the same operators either way, so the ratio is
//! what batching amortizes per call — with a best-of-K wall-clock timer.
//! Self-timed with `std::time::Instant`, so it runs as a plain binary in
//! CI and emits machine-readable JSON. (Snapshot
//! publishing is measured by the benchmark ledger's `server.seqslot.*`
//! layer figures, not here; so are the absolute per-snapshot costs of each
//! estimator, `progress.*`.)
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
//! Checks (`--rows 0` and `--reps 0` exit 2; a failed check exits 1, and
//! a reading that is not a number fails every check):
//! * always: profiling must stay cheap — the headline pipeline run at the
//!   production batch size *with a recording event sink attached* must
//!   keep its throughput within 10% of the bare run;
//! * always: estimation must stay cheap enough to leave on — per snapshot
//!   of a REAL-2 ~22-node trace ([`real2_trace`]), the six-member
//!   ensemble's `observe` costs at most [`MAX_ENSEMBLE_OVER_LQS`] × its
//!   `lqs` member alone, and a lineup of one at most
//!   [`MAX_GUARDED_ONE_OVER_LONE`] × the estimator it wraps;
//! * with `--out FILE`: headline batch/tuple (`limit` 1024 / `limit` 1)
//!   speedup ≥ 2.0 — a committed baseline must demonstrate what batching
//!   is there to buy;
//! * with `--check FILE`: the measured headline speedup must not fall
//!   more than 10% below the committed baseline's speedup, and neither
//!   must the seek path's standing against a bare scan — `index_nl_ob1` ÷
//!   `table_scan` batch Melem/s, both from this process.
//!
//! Each gated figure is a ratio of two measurements from this process, so
//! the checks are meaningful across machines, and one that fails is
//! measured afresh up to twice before it fails the run ([`remeasured`]).

use lqs::exec::{execute, execute_traced, DmvSnapshot, ExecOptions, QueryRun};
use lqs::obs::RingBufferSink;
use lqs::plan::{
    AggFunc, Aggregate, Expr, JoinKind, PhysicalPlan, PlanBuilder, SeekKey, SeekRange, SortKey,
};
use lqs::progress::{
    EnsembleConfig, EnsembleEstimator, EstimatorConfig, GuardedEstimator, ProgressEstimator,
};
use lqs::storage::{Database, IndexId, TableId};
use lqs::workloads::real::{self, RealProfile};
use lqs::workloads::WorkloadScale;
use lqs_bench::{table_t, Cli, Kind};
use serde_json::Value as Json;
use std::hint::black_box;
use std::time::Instant;

const HEADLINE: &str = "pipeline12";
/// The correlated-seek row and the row its rate is read against.
const SEEK: &str = "index_nl_ob1";
const SCAN: &str = "table_scan";
const MIN_HEADLINE_SPEEDUP: f64 = 2.0;
const CHECK_TOLERANCE: f64 = 0.9;
/// Batch-traced throughput may cost at most this fraction of bare batch.
const MAX_TRACED_OVERHEAD: f64 = 0.10;
/// Bound on `ensemble_over_lqs`: the six-member ensemble's `observe` ÷ its
/// lone `lqs` member, per snapshot (ROADMAP item 4's goal is ≤ 2).
const MAX_ENSEMBLE_OVER_LQS: f64 = 3.5;
/// Bound on `guarded_one_over_lone`: a `GuardedEstimator` over a lineup of
/// one ÷ the `ProgressEstimator::estimate` it wraps, per snapshot.
const MAX_GUARDED_ONE_OVER_LONE: f64 = 1.5;

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
    let pk = d.create_btree_index("pk_t", id, vec![0]);
    (d, id, pk)
}

fn opts(batch_size: usize) -> ExecOptions {
    ExecOptions {
        batch_size,
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
            execute(d, plan, &opts(1));
        }));
        b = b.min(timed(&mut || {
            execute(d, plan, &ExecOptions::default());
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

/// The side of a gate's bound that passes; a NaN passes neither.
#[derive(Clone, Copy)]
enum Bound {
    /// At least this much (a speedup, a throughput ratio).
    Floor(f64),
    /// At most this much (an overhead, a cost ratio).
    Ceiling(f64),
}

impl Bound {
    fn passes(self, x: f64) -> bool {
        match self {
            Bound::Floor(floor) => x >= floor,
            Bound::Ceiling(ceiling) => x <= ceiling,
        }
    }

    /// Whether `x` reads better than `than` (never, if either is NaN).
    fn better(self, x: f64, than: f64) -> bool {
        match self {
            Bound::Floor(_) => x > than,
            Bound::Ceiling(_) => x < than,
        }
    }
}

/// `first` if its gated figure passes `bound`, else the best of it and up
/// to two fresh measurements: a transient scheduling dip in one window is
/// far more common than a real regression, and a retry that passes proves
/// the dip was noise. The one retry policy of every gate in this binary.
fn remeasured<T: Copy + Into<f64>>(
    what: &str,
    first: T,
    bound: Bound,
    mut remeasure: impl FnMut() -> T,
) -> T {
    let mut best = first;
    for attempt in 1..=2 {
        let value = best.into();
        if bound.passes(value) {
            break;
        }
        println!("{what} {value:.4} fails its gate — re-measuring ({attempt}/2)");
        let retry = remeasure();
        if bound.better(retry.into(), value) {
            best = retry;
        }
    }
    best
}

#[derive(Clone, Copy)]
struct ProfilingResult {
    bare_melem_s: f64,
    traced_melem_s: f64,
    /// Fractional slowdown of traced vs bare (0.03 = 3% slower).
    overhead: f64,
}

/// The figure the traced-overhead gate reads.
impl From<ProfilingResult> for f64 {
    fn from(r: ProfilingResult) -> f64 {
        r.overhead
    }
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
            execute(d, &plan, &ExecOptions::default());
        }));
        traced = traced.min(timed(&mut || {
            let sink = RingBufferSink::new(1 << 16);
            execute_traced(d, &plan, &ExecOptions::default(), &sink);
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

// ---- estimator overhead ----------------------------------------------------

/// The REAL-2 plan closest to 22 nodes on tiny data, executed once and
/// sampled 384 times: the benchmark ledger's `dense_real2` shape.
struct Trace {
    label: String,
    plan: PhysicalPlan,
    db: Database,
    run: QueryRun,
}

fn real2_trace() -> Trace {
    let scale = WorkloadScale {
        data_scale: 0.05,
        query_limit: 64,
        seed: 42,
    };
    let w = real::workload(RealProfile::Real2, scale);
    let q = w
        .queries
        .into_iter()
        .min_by_key(|q| q.plan.len().abs_diff(22));
    let plan = q.expect("REAL-2 generates queries").plan;
    let opts = ExecOptions {
        snapshot_target: 384,
        ..ExecOptions::default()
    };
    let run = execute(&w.db, &plan, &opts);
    Trace {
        label: format!("real2_{}_nodes", plan.len()),
        plan,
        db: w.db,
        run,
    }
}

impl Trace {
    /// Median ns per snapshot of `walk`, one call of which visits every
    /// snapshot of the trace once; `setup` runs untimed before each call.
    /// Prints it as the arm `arm`.
    fn walk_ns<S, R>(
        &self,
        arm: &str,
        mut setup: impl FnMut() -> S,
        mut walk: impl FnMut(&mut S, &[DmvSnapshot]) -> R,
    ) -> f64 {
        const ROUNDS: usize = 31;
        let snapshots = &self.run.snapshots[..];
        let per_snapshot = 1e9 / snapshots.len() as f64;
        let mut samples: Vec<f64> = (0..ROUNDS + 3)
            .map(|_| {
                let mut state = setup();
                timed(&mut || drop(black_box(walk(&mut state, snapshots)))) * per_snapshot
            })
            // The first rounds warm caches and the allocator.
            .skip(3)
            .collect();
        samples.sort_by(|a, b| a.total_cmp(b));
        let (ns, name) = (samples[ROUNDS / 2], format!("{}/{arm}", self.label));
        println!("{name:<40} {ns:>14.0} ns/snapshot");
        ns
    }

    /// [`Trace::walk_ns`] of a walk that calls `step` on each snapshot.
    fn step_ns<S, R>(
        &self,
        arm: &str,
        setup: impl FnMut() -> S,
        mut step: impl FnMut(&mut S, &DmvSnapshot) -> R,
    ) -> f64 {
        self.walk_ns(arm, setup, |state, snapshots| {
            for s in snapshots {
                black_box(step(state, s));
            }
        })
    }

    fn ratio(&self, name: &str, over: f64, under: f64) -> f64 {
        let ratio = over / under;
        println!("{:<40} {ratio:>14.2}", format!("{}/{name}", self.label));
        ratio
    }
}

/// Each of the six members alone, `EnsembleEstimator::observe` and `replay`
/// over the whole trace; returns `ensemble_over_lqs` = observe ÷ the lone
/// `lqs` member.
fn ensemble_over_lqs(trace: &Trace) -> f64 {
    let (plan, db, cost_model) = (&trace.plan, &trace.db, &trace.run.cost_model);
    let build = || EnsembleEstimator::build(plan, db, cost_model, EnsembleConfig::default());
    let ens = build();
    let mut lqs = f64::NAN;
    for member in ens.members() {
        let ns = trace.step_ns(member.id(), || (), |_, s| member.estimate(s));
        if member.id() == "lqs" {
            lqs = ns;
        }
    }
    // A fresh ensemble per walk: the selection state grows with the
    // history it has observed.
    let observe = trace.step_ns("observe", build, |ens, s| ens.observe(s, false));
    trace.walk_ns("replay", || (), |_, snapshots| ens.replay(snapshots));
    trace.ratio("ensemble_over_lqs", observe, lqs)
}

/// The lineup of one, as the watchdog and the soaks run it, against the
/// estimator it wraps; returns `guarded_one_over_lone`.
fn guarded_one_over_lone(trace: &Trace) -> f64 {
    let (plan, db, cost_model) = (&trace.plan, &trace.db, &trace.run.cost_model);
    let lone = || ProgressEstimator::with_cost_model(plan, db, EstimatorConfig::full(), cost_model);
    let est = lone();
    let lone_ns = trace.step_ns("lone", || (), |_, s| est.estimate(s));
    let guarded = || GuardedEstimator::new(EnsembleEstimator::single(lone()));
    let guarded_ns = trace.step_ns("guarded_one", guarded, |g, s| g.observe(s));
    trace.ratio("guarded_one_over_lone", guarded_ns, lone_ns)
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
    for (flag, n) in [("--rows", rows as usize), ("--reps", reps)] {
        if n == 0 {
            CLI.reject(&format!("{flag} 0 leaves nothing to measure"));
        }
    }
    let (out, check) = (flags.text("--out"), flags.text("--check"));
    let mut failures: Vec<String> = Vec::new();

    println!("engine throughput: rows={} reps={} (best-of)", rows, reps);
    let (d, t, pk) = db(rows);
    let results = workloads(&d, t, pk, rows, reps);

    println!("\nbatch-native profiling overhead ({HEADLINE}, recording sink attached)");
    let traced_gate = Bound::Ceiling(MAX_TRACED_OVERHEAD);
    let measure = || profiling_overhead(&d, t, rows, reps);
    let profiling = remeasured("traced overhead", measure(), traced_gate, measure);
    if !traced_gate.passes(profiling.overhead) {
        failures.push(format!(
            "batch tracing slows the hot path: {:+.1}% overhead with a recording \
             sink attached (allowed {:.0}%)",
            profiling.overhead * 100.0,
            MAX_TRACED_OVERHEAD * 100.0
        ));
    }

    let trace = real2_trace();
    let snapshots = trace.run.snapshots.len();
    println!("\nestimator cost per snapshot ({snapshots} snapshots, median of 31 walks)");
    let mut estimator_gate = |name: &str, ceiling: f64, measure: fn(&Trace) -> f64| {
        let gate = Bound::Ceiling(ceiling);
        let ratio = remeasured(name, measure(&trace), gate, || measure(&trace));
        if !gate.passes(ratio) {
            failures.push(format!(
                "estimator overhead: {}/{name} {ratio:.2} is above its bound {ceiling}",
                trace.label
            ));
        }
    };
    estimator_gate(
        "ensemble_over_lqs",
        MAX_ENSEMBLE_OVER_LQS,
        ensemble_over_lqs,
    );
    estimator_gate(
        "guarded_one_over_lone",
        MAX_GUARDED_ONE_OVER_LONE,
        guarded_one_over_lone,
    );

    let mut headline_speedup = results
        .iter()
        .find(|r| r.name == HEADLINE)
        .expect("headline workload present")
        .speedup;
    if out.is_some() && !Bound::Floor(MIN_HEADLINE_SPEEDUP).passes(headline_speedup) {
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
        let gate = Bound::Floor(floor);
        headline_speedup = remeasured("headline speedup", headline_speedup, gate, || {
            run_workload(HEADLINE, rows, reps, &d, &headline_plan(&d, t)).speedup
        });
        println!(
            "\ncheck vs {path}: headline speedup {headline_speedup:.2}x \
             (baseline {base_speedup:.2}x, floor {floor:.2}x)"
        );
        if !gate.passes(headline_speedup) {
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
        let gate = Bound::Floor(floor);
        let seek_ratio = remeasured("seek/scan", batch(SEEK) / batch(SCAN), gate, || {
            seek_over_scan(&d, t, pk, rows, reps)
        });
        println!(
            "check vs {path}: {SEEK}/{SCAN} batch {seek_ratio:.4} \
             (baseline {base_ratio:.4}, floor {floor:.4})"
        );
        if !gate.passes(seek_ratio) {
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
