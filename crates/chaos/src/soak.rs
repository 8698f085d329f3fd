//! The chaos soak: run a seeded fault matrix (N workloads × M fault
//! plans) through the full service + poller stack and check the
//! robustness invariants.
//!
//! Invariants asserted (violations are collected, not panicked, so one
//! bad cell doesn't mask the rest):
//!
//! * every submitted session reaches a terminal state — no worker-pool
//!   deaths, no hangs;
//! * every progress report ever served stays in `[0, 1]`, and a
//!   `Succeeded` session's final report reaches 1.0;
//! * the `/metrics` exposition stays well-formed (parsable lines, no
//!   `NaN`) under every fault plan;
//! * re-mangling each recorded run offline and replaying it through a
//!   [`GuardedEstimator`] keeps progress bounded and converges to the
//!   fault-free final report.
//!
//! The returned [`SoakReport::summary`] is **deterministic**: it is
//! computed from virtual-clock outcomes and offline replays only — never
//! from the wall-clock-dependent live poll loop — so two runs with the
//! same seed produce byte-identical summaries (the CI `soak` job
//! diffs them).

use crate::channel::mangle_stream;
use crate::inject::PageGate;
use crate::plan::FaultPlan;
use lqs_exec::{DmvSnapshot, FaultInjector, QueryRun};
use lqs_metrics::MetricsRegistry;
use lqs_plan::PhysicalPlan;
use lqs_progress::{
    EnsembleEstimator, EstimateScratch, EstimatorConfig, GuardedEstimator, ProgressEstimator,
};
use lqs_server::{
    PollerMetrics, QueryService, QuerySpec, RegistryPoller, ServiceMetrics, SessionResult,
    SessionState,
};
use lqs_storage::Database;
use lqs_workloads::{standard_five, WorkloadScale};
use std::sync::Arc;
use std::time::Duration;

/// Size and content of one soak run.
#[derive(Clone)]
pub struct SoakConfig {
    /// Master seed (workload data + fault plans + channel streams).
    pub(crate) seed: u64,
    /// How many of the standard five workloads to run (≤ 5).
    pub(crate) workloads: usize,
    /// Queries taken from each workload.
    pub(crate) queries_per_workload: usize,
    /// Workload data scale (1.0 ≈ the paper's small end).
    pub(crate) data_scale: f64,
    /// Worker threads per service.
    pub(crate) workers: usize,
    /// The fault plans of the matrix.
    pub(crate) plans: Vec<FaultPlan>,
}

impl SoakConfig {
    /// A fast configuration for tests and CI smoke runs.
    pub fn quick(seed: u64) -> Self {
        SoakConfig {
            seed,
            workloads: 2,
            queries_per_workload: 2,
            data_scale: 0.2,
            workers: 2,
            plans: FaultPlan::standard_matrix(seed),
        }
    }

    /// The full matrix: all five workloads, three queries each.
    pub fn full(seed: u64) -> Self {
        SoakConfig {
            seed,
            workloads: 5,
            queries_per_workload: 3,
            data_scale: 0.25,
            workers: 4,
            plans: FaultPlan::standard_matrix(seed),
        }
    }
}

/// Outcome of one soak run — the chaos matrix, the crash soak or the
/// overload soak.
pub struct SoakReport {
    /// Deterministic human-readable summary, one line per matrix cell,
    /// cycle or scene.
    pub summary: String,
    /// Invariant violations (empty on a passing run).
    pub violations: Vec<String>,
}

impl SoakReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// FNV-1a — the crate's stable, dependency-free string hash: per-session
/// channel stream seeds, crash points, fault windows, summary checksums.
pub(crate) fn fnv(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// Exposition lines that are neither comments nor `name[{labels}] value`
/// with a finite value.
fn malformed_exposition_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter(|l| {
            let Some((_, val)) = l.rsplit_once(' ') else {
                return true;
            };
            !matches!(val.parse::<f64>(), Ok(v) if v.is_finite())
        })
        .map(str::to_owned)
        .collect()
}

/// Value of the first sample of family `name` in an exposition, if any.
pub(crate) fn metric_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(name))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

pub(crate) fn in_bounds(p: f64) -> bool {
    (-1e-9..=1.0 + 1e-9).contains(&p)
}

/// Replay one recorded run offline: re-mangle its snapshot stream with
/// the plan's channel faults and feed it through a fresh
/// [`GuardedEstimator`]. Returns `(anomalies, final_matches, bounded)`.
fn offline_replay(
    plan: &FaultPlan,
    qplan: &PhysicalPlan,
    db: &Database,
    run: &QueryRun,
    stream_seed: u64,
) -> (u64, bool, bool) {
    let est =
        ProgressEstimator::with_cost_model(qplan, db, EstimatorConfig::full(), &run.cost_model);
    let final_snap = DmvSnapshot {
        ts_ns: run.duration_ns,
        nodes: run.final_counters.clone(),
    };
    let fault_free_final = est.estimate_core(&final_snap, &mut EstimateScratch::default());
    let mangled = mangle_stream(&run.snapshots, &plan.channel, plan.seed ^ stream_seed);
    let mut guarded = GuardedEstimator::new(EnsembleEstimator::single(est));
    let mut bounded = true;
    for s in &mangled {
        bounded &= in_bounds(guarded.observe(s).query_progress);
    }
    // The terminal snapshot bypasses the channel in the live path; mirror
    // that here and require convergence to the fault-free figure.
    let final_report = guarded.observe(&final_snap);
    bounded &= in_bounds(final_report.query_progress);
    let matches = (final_report.query_progress - fault_free_final).abs() <= 1e-9;
    (guarded.anomalies().total(), matches, bounded)
}

/// A workload as the soaks run it: name, shared database, named plans.
pub(crate) type PreparedWorkload = (String, Arc<Database>, Vec<(String, Arc<PhysicalPlan>)>);

/// The first `workloads` (min 1) of the standard five at `scale`.
pub(crate) fn prepare_workloads(scale: WorkloadScale, workloads: usize) -> Vec<PreparedWorkload> {
    standard_five(scale)
        .into_iter()
        .take(workloads.max(1))
        .map(|w| {
            let name = w.name.to_string();
            let db = Arc::new(w.db);
            let queries = w
                .queries
                .into_iter()
                .map(|q| (q.name, Arc::new(q.plan)))
                .collect();
            (name, db, queries)
        })
        .collect()
}

/// Run the full soak matrix. See the module docs for the invariants.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let workloads = prepare_workloads(
        WorkloadScale {
            data_scale: cfg.data_scale,
            query_limit: cfg.queries_per_workload,
            seed: cfg.seed,
        },
        cfg.workloads,
    );
    let mut lines = vec![format!(
        "lqs-chaos soak seed={} workloads={} queries={} plans={}",
        cfg.seed,
        workloads.len(),
        cfg.queries_per_workload,
        cfg.plans.len()
    )];
    let mut violations = Vec::new();
    let mut sessions_total = 0usize;

    for plan in &cfg.plans {
        for (wl_name, db, queries) in &workloads {
            let mreg = Arc::new(MetricsRegistry::new());
            let smetrics = ServiceMetrics::new(Arc::clone(&mreg));
            let service =
                QueryService::with_metrics(Arc::clone(db), cfg.workers, Arc::clone(&smetrics));
            let mut poller = RegistryPoller::new(
                Arc::clone(db),
                Arc::clone(service.registry()),
                EstimatorConfig::full(),
            )
            .with_metrics(PollerMetrics::new(Arc::clone(&mreg)))
            .with_stale_after(Duration::from_millis(100));
            if let Some(pf) = plan.poll_fault() {
                poller = poller.with_poll_fault(pf);
            }

            let mut handles = Vec::new();
            for (qname, qplan) in queries {
                let sid = format!("{}/{}/{}", plan.name, wl_name, qname);
                let mut spec = QuerySpec::new(qname.clone(), Arc::clone(qplan))
                    .with_workload(wl_name.clone())
                    .with_retry_budget(plan.retry_budget);
                if let Some(inj) = plan.injector() {
                    spec = spec.with_fault(inj);
                }
                if let Some(filter) = plan.filter(fnv(&sid)) {
                    spec = spec.with_snapshot_filter(filter);
                }
                handles.push((sid, service.submit(spec)));
            }

            // Live poll loop. How many polls land is wall-clock dependent,
            // so nothing observed here enters the summary — only violations
            // (which a passing run has none of).
            loop {
                for p in poller.poll() {
                    if let Some(r) = &p.report {
                        if !in_bounds(r.query_progress) {
                            violations.push(format!(
                                "plan={} wl={} session={}: live progress {} out of [0,1]",
                                plan.name, wl_name, p.name, r.query_progress
                            ));
                        }
                    }
                }
                if handles.iter().all(|(_, h)| h.state().is_terminal()) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }

            // Final per-session poll: accuracy scoring + convergence check.
            // A flaky poll path may serve a stale cached (or absent) report
            // on any given round — that *is* the graceful degradation — so
            // the convergence invariant is: some successful poll within a
            // bounded number of rounds sees the terminal snapshot. Poll
            // rounds are the poller's deterministic time axis (faults key
            // off `(seed, session, round)`), so the retry loop is exactly
            // reproducible.
            for (sid, h) in &handles {
                let mut p = poller.poll_session(h);
                if h.state() == SessionState::Succeeded {
                    let mut rounds = 0;
                    while rounds < 512
                        && p.report
                            .as_ref()
                            .is_none_or(|r| r.query_progress < 1.0 - 1e-9)
                    {
                        poller.poll();
                        p = poller.poll_session(h);
                        rounds += 1;
                    }
                }
                match h.state() {
                    SessionState::Succeeded => match &p.report {
                        Some(r) if r.query_progress >= 1.0 - 1e-9 => {}
                        Some(r) => violations.push(format!(
                            "{sid}: succeeded but final progress {}",
                            r.query_progress
                        )),
                        None => violations.push(format!("{sid}: succeeded without a report")),
                    },
                    s if s.is_terminal() => {} // clean terminal state
                    s => violations.push(format!("{sid}: still {s:?} after wait")),
                }
            }
            poller.evict_finished();

            let text = mreg.render();
            if text.contains("NaN") {
                violations.push(format!(
                    "plan={} wl={}: NaN in exposition",
                    plan.name, wl_name
                ));
            }
            for bad in malformed_exposition_lines(&text) {
                violations.push(format!(
                    "plan={} wl={}: malformed exposition line: {bad}",
                    plan.name, wl_name
                ));
            }

            // Deterministic cell summary from virtual-clock outcomes and
            // offline replays.
            let (mut ok, mut failed, mut aborted, mut rejected) = (0u32, 0u32, 0u32, 0u32);
            let mut anomalies = 0u64;
            let (mut final_eq, mut eligible) = (0u32, 0u32);
            for (sid, h) in &handles {
                sessions_total += 1;
                match h.state() {
                    SessionState::Succeeded => ok += 1,
                    SessionState::Failed => failed += 1,
                    SessionState::Rejected => rejected += 1,
                    SessionState::Cancelled | SessionState::DeadlineExceeded => aborted += 1,
                    // Soak sessions are submitted live, never recovered, so
                    // Orphaned cannot appear here; count it as failed if a
                    // future refactor ever routes one through.
                    SessionState::Orphaned => failed += 1,
                    SessionState::Queued | SessionState::Running => {}
                }
                if let Some(SessionResult::Completed(run)) = h.result() {
                    eligible += 1;
                    let (anoms, eq, bounded) = offline_replay(plan, h.plan(), db, &run, fnv(sid));
                    anomalies += anoms;
                    if eq {
                        final_eq += 1;
                    }
                    if !bounded {
                        violations.push(format!("{sid}: offline replay left [0,1] under mangling"));
                    }
                }
            }
            lines.push(format!(
                "plan={} wl={} sessions={} ok={} failed={} aborted={} rejected={} anomalies={} final_eq={}/{}",
                plan.name,
                wl_name,
                handles.len(),
                ok,
                failed,
                aborted,
                rejected,
                anomalies,
                final_eq,
                eligible
            ));
        }
    }

    // Admission-control scenario: a gated blocker pins the single worker,
    // two sessions fill the bounded queue, two more must shed — counts are
    // deterministic because the worker is parked, not merely slow.
    {
        let (_, db, queries) = &workloads[0];
        let (_, qplan) = &queries[0];
        let mreg = Arc::new(MetricsRegistry::new());
        let smetrics = ServiceMetrics::new(Arc::clone(&mreg));
        let service =
            QueryService::with_metrics(Arc::clone(db), 1, smetrics).with_admission_limit(2);
        // Parks the worker at the blocker's first I/O charge.
        let gate = PageGate::new(0);
        let blocker = service.submit(
            QuerySpec::new("admission-blocker", Arc::clone(qplan))
                .with_fault(Arc::clone(&gate) as Arc<dyn FaultInjector + Send>),
        );
        loop {
            let s = blocker.state();
            if s == SessionState::Running || s.is_terminal() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued: Vec<_> = (0..2)
            .map(|i| service.submit(QuerySpec::new(format!("admission-q{i}"), Arc::clone(qplan))))
            .collect();
        let shed: Vec<_> = (0..2)
            .map(|i| {
                service.submit(QuerySpec::new(
                    format!("admission-shed{i}"),
                    Arc::clone(qplan),
                ))
            })
            .collect();
        let rejected = shed
            .iter()
            .filter(|h| h.state() == SessionState::Rejected)
            .count();
        gate.open();
        service.wait_all();
        let succeeded = std::iter::once(&blocker)
            .chain(queued.iter())
            .filter(|h| h.state() == SessionState::Succeeded)
            .count();
        let shed_counter =
            metric_value(mreg.render().as_str(), "lqs_sessions_rejected_total").unwrap_or(-1.0);
        if rejected != 2 || succeeded != 3 || shed_counter != 2.0 {
            violations.push(format!(
                "admission: expected 3 succeeded / 2 rejected / counter 2, got {succeeded} / {rejected} / {shed_counter}"
            ));
        }
        lines.push(format!(
            "admission limit=2 succeeded={succeeded} rejected={rejected} shed_counter={shed_counter}"
        ));
    }

    lines.push(format!(
        "sessions={} violations={}",
        sessions_total,
        violations.len()
    ));
    SoakReport {
        summary: lines.join("\n") + "\n",
        violations,
    }
}

/// A fresh scratch directory for a soak test of this crate.
#[cfg(test)]
pub(crate) fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lqs-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            workloads: 1,
            queries_per_workload: 1,
            data_scale: 0.1,
            workers: 2,
            plans: vec![
                FaultPlan::baseline().with_seed(seed),
                FaultPlan::named("lossy-channel")
                    .with_seed(seed)
                    .drop_snapshots(0.2)
                    .delay_snapshots(0.3, 3)
                    .duplicate_snapshots(0.2)
                    .reorder_snapshots(0.4)
                    .reset_snapshots(0.1),
                FaultPlan::named("io-error-transient")
                    .with_seed(seed)
                    .io_error_at(16, true)
                    .with_retry_budget(2),
            ],
        }
    }

    #[test]
    fn tiny_soak_passes_and_is_deterministic() {
        let a = run_soak(&tiny(42));
        assert!(a.passed(), "violations: {:?}", a.violations);
        let b = run_soak(&tiny(42));
        assert_eq!(
            a.summary, b.summary,
            "same seed must give identical summaries"
        );
        let c = run_soak(&tiny(43));
        assert!(c.passed(), "violations: {:?}", c.violations);
    }

    #[test]
    fn exposition_validator_flags_nan_and_garbage() {
        assert!(malformed_exposition_lines("# HELP x y\nx 1\n").is_empty());
        assert_eq!(malformed_exposition_lines("x NaN\n").len(), 1);
        assert_eq!(malformed_exposition_lines("garbage\n").len(), 1);
    }
}
