//! Running queries and replaying their DMV traces through estimators.

use lqs::exec::{execute, ExecOptions, QueryRun};
use lqs::plan::PhysicalPlan;
use lqs::progress::{EstimatorConfig, ExplainCounters, ProgressEstimator, ProgressReport};
use lqs::storage::Database;

/// One estimator's full trajectory over a query run.
pub struct EstimatorTrace {
    /// Query-level progress estimate per snapshot.
    pub estimates: Vec<f64>,
    /// Full per-node reports per snapshot.
    pub reports: Vec<ProgressReport>,
}

impl EstimatorTrace {
    /// Explain counters summed over every snapshot of the trace: how many
    /// refinements were applied, bounds clamps hit, and non-GetNext models
    /// used across the whole run.
    pub fn explain_totals(&self) -> ExplainCounters {
        let mut total = ExplainCounters::default();
        for r in &self.reports {
            total.merge(&r.counters);
        }
        total
    }
}

/// Execute a plan and keep the run (ground truth + snapshots).
pub fn run_query(db: &Database, plan: &PhysicalPlan, opts: &ExecOptions) -> QueryRun {
    execute(db, plan, opts)
}

/// Build the estimator for replaying `run` — always with the *run's* cost
/// model, never `CostModel::default()`. Every harness path that pairs an
/// estimator with an executed run must go through here: constructing via
/// [`ProgressEstimator::new`] silently bakes in default-model §4.6 weights
/// and time baselines, which diverge from the observed counters whenever
/// the run used a custom [`ExecOptions::cost_model`].
pub fn estimator_for_run(
    plan: &PhysicalPlan,
    db: &Database,
    run: &QueryRun,
    config: EstimatorConfig,
) -> ProgressEstimator {
    ProgressEstimator::with_cost_model(plan, db, config, &run.cost_model)
}

/// Replay a run's snapshots through an estimator configuration.
///
/// The estimator's §4.6 weights use the *run's* cost model, not the default
/// one, so a run executed under a custom [`ExecOptions::cost_model`] is
/// replayed with matching weights.
pub fn trace_estimator(
    plan: &PhysicalPlan,
    db: &Database,
    run: &QueryRun,
    config: EstimatorConfig,
) -> EstimatorTrace {
    let est = estimator_for_run(plan, db, run, config);
    let reports: Vec<ProgressReport> = run.snapshots.iter().map(|s| est.estimate(s)).collect();
    let estimates = reports.iter().map(|r| r.query_progress).collect();
    EstimatorTrace { estimates, reports }
}

/// Convenience: query-progress estimates only (no report is built).
pub fn estimates_only(
    plan: &PhysicalPlan,
    db: &Database,
    run: &QueryRun,
    config: EstimatorConfig,
) -> Vec<f64> {
    estimator_for_run(plan, db, run, config).estimate_trace(&run.snapshots)
}
