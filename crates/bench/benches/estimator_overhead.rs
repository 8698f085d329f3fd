//! Estimator overhead per DMV snapshot: the client polls every 500 ms, so a
//! single `estimate()` call must be orders of magnitude cheaper than that.
//!
//! Two groups:
//!
//! * `estimate_per_snapshot` — one `ProgressEstimator::estimate` call per
//!   configuration tier on a mid-run snapshot of TPC-DS q21.
//! * `ensemble_per_snapshot` — on that plan and on a REAL-2 plan of ~22
//!   nodes sampled 384 times (the benchmark ledger's `dense_real2` shape):
//!   each of the six ensemble members alone, `EnsembleEstimator::observe`,
//!   and `replay` over the whole trace, all in ns per snapshot, plus
//!   `ensemble_over_lqs` = observe ÷ the lone `lqs` member, and
//!   `guarded_one_over_lone` = a `GuardedEstimator` over a lineup of one ÷
//!   the `ProgressEstimator::estimate` it wraps (what the watchdog and the
//!   soaks pay for going through the lineup). The process exits non-zero
//!   when either ratio on the REAL-2 plan stays above its bound
//!   ([`MAX_ENSEMBLE_OVER_LQS`], [`MAX_GUARDED_ONE_OVER_LONE`]; both sides
//!   of each are measured in this process, so the ratios travel between
//!   machines; ROADMAP item 4's gate for the first is ≤ 2).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use lqs::exec::{execute, DmvSnapshot, ExecOptions, QueryRun};
use lqs::plan::PhysicalPlan;
use lqs::progress::{
    EnsembleConfig, EnsembleEstimator, EstimatorConfig, GuardedEstimator, ProgressEstimator,
};
use lqs::storage::Database;
use lqs::workloads::real::{self, RealProfile};
use lqs::workloads::{tpcds, WorkloadScale};
use std::time::Instant;

/// CI bound on `ensemble_over_lqs` for the REAL-2 plan.
const MAX_ENSEMBLE_OVER_LQS: f64 = 3.5;

/// CI bound on `guarded_one_over_lone` for the REAL-2 plan.
const MAX_GUARDED_ONE_OVER_LONE: f64 = 1.5;

fn bench_estimator(c: &mut Criterion) {
    let scale = WorkloadScale {
        data_scale: 0.5,
        query_limit: usize::MAX,
        seed: 42,
    };
    let t = tpcds::build_db(scale);
    let plan = tpcds::q21_plan(&t);
    let run = execute(&t.db, &plan, &ExecOptions::default());
    let mid = run.snapshots[run.snapshots.len() / 2].clone();

    let mut g = c.benchmark_group("estimate_per_snapshot");
    for (name, config) in [
        ("tgn", EstimatorConfig::tgn()),
        ("tgn_bounded", EstimatorConfig::tgn_bounded()),
        ("full", EstimatorConfig::full()),
    ] {
        let est = ProgressEstimator::new(&plan, &t.db, config);
        g.bench_function(name, |b| {
            b.iter_batched(|| mid.clone(), |s| est.estimate(&s), BatchSize::SmallInput)
        });
    }
    g.finish();

    // Constructing the estimator (plan statics) — once per query.
    c.bench_function("estimator_construction", |b| {
        b.iter(|| ProgressEstimator::new(&plan, &t.db, EstimatorConfig::full()))
    });

    println!("\n== group: ensemble_per_snapshot ==");
    ensemble_arms("tpcds_q21", &plan, &t.db, &run);

    // The dense workload's shape: the REAL-2 plan closest to 22 nodes, on
    // tiny data, sampled 384 times.
    let w = real::workload(
        RealProfile::Real2,
        WorkloadScale {
            data_scale: 0.05,
            query_limit: 64,
            seed: 42,
        },
    );
    let q = w
        .queries
        .iter()
        .min_by_key(|q| q.plan.len().abs_diff(22))
        .expect("REAL-2 generates queries");
    let opts = ExecOptions {
        snapshot_target: 384,
        ..ExecOptions::default()
    };
    let run = execute(&w.db, &q.plan, &opts);
    let label = format!("real2_{}_nodes", q.plan.len());
    // A shared runner can stall any one measurement, so a ratio over its
    // bound is measured again before it fails the job.
    let (mut ensemble, mut one) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let (e, o) = ensemble_arms(&label, &q.plan, &w.db, &run);
        (ensemble, one) = (ensemble.min(e), one.min(o));
        if ensemble <= MAX_ENSEMBLE_OVER_LQS && one <= MAX_GUARDED_ONE_OVER_LONE {
            return;
        }
    }
    eprintln!(
        "{label}: ensemble_over_lqs {ensemble:.2} (bound {MAX_ENSEMBLE_OVER_LQS}), \
         guarded_one_over_lone {one:.2} (bound {MAX_GUARDED_ONE_OVER_LONE})"
    );
    std::process::exit(1);
}

/// Median ns per snapshot of `walk`, one call of which visits every
/// snapshot of the trace once. `setup` runs untimed before each call.
fn ns_per_snapshot<S>(
    snapshots: &[DmvSnapshot],
    mut setup: impl FnMut() -> S,
    mut walk: impl FnMut(&mut S, &[DmvSnapshot]),
) -> f64 {
    const ROUNDS: usize = 31;
    let mut samples = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS + 3 {
        let mut state = setup();
        let t = Instant::now();
        walk(&mut state, snapshots);
        // The first rounds warm caches and the allocator.
        if round >= 3 {
            samples.push(t.elapsed().as_nanos() as f64 / snapshots.len() as f64);
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[ROUNDS / 2]
}

/// Time the ensemble's arms over `run`'s whole trace, print them, and
/// return `(ensemble_over_lqs, guarded_one_over_lone)`.
fn ensemble_arms(label: &str, plan: &PhysicalPlan, db: &Database, run: &QueryRun) -> (f64, f64) {
    let build = || EnsembleEstimator::build(plan, db, &run.cost_model, EnsembleConfig::default());
    let snaps = &run.snapshots[..];
    let report =
        |arm: &str, ns: f64| println!("{:<40} {ns:>14.0} ns/snapshot", format!("{label}/{arm}"));

    let ens = build();
    let mut lqs = f64::NAN;
    for member in ens.members() {
        let ns = ns_per_snapshot(
            snaps,
            || (),
            |_, snaps| {
                for s in snaps {
                    black_box(member.estimate(s));
                }
            },
        );
        if member.id() == "lqs" {
            lqs = ns;
        }
        report(member.id(), ns);
    }
    // A fresh ensemble per walk: the selection state grows with the
    // history it has observed.
    let observe = ns_per_snapshot(snaps, build, |ens, snaps| {
        for s in snaps {
            black_box(ens.observe(s, false));
        }
    });
    report("observe", observe);
    let replay = ns_per_snapshot(
        snaps,
        || (),
        |_, snaps| {
            black_box(ens.replay(snaps));
        },
    );
    report("replay", replay);
    let ratio = observe / lqs;
    println!("{:<40} {ratio:>14.2}", format!("{label}/ensemble_over_lqs"));

    // The lineup of one, as the watchdog and the soaks run it, against the
    // estimator it wraps.
    let lone =
        || ProgressEstimator::with_cost_model(plan, db, EstimatorConfig::full(), &run.cost_model);
    let est = lone();
    let lone_ns = ns_per_snapshot(
        snaps,
        || (),
        |_, snaps| {
            for s in snaps {
                black_box(est.estimate(s));
            }
        },
    );
    report("lone", lone_ns);
    let guarded_one = ns_per_snapshot(
        snaps,
        || GuardedEstimator::new(EnsembleEstimator::single(lone())),
        |guarded, snaps| {
            for s in snaps {
                black_box(guarded.observe(s));
            }
        },
    );
    report("guarded_one", guarded_one);
    let one_ratio = guarded_one / lone_ns;
    println!(
        "{:<40} {one_ratio:>14.2}",
        format!("{label}/guarded_one_over_lone")
    );
    (ratio, one_ratio)
}

criterion_group!(benches, bench_estimator);
criterion_main!(benches);
