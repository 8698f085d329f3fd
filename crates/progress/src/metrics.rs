//! The paper's error metrics (§5): `Errorcount` and `Errortime`, with
//! per-operator variants.
//!
//! * `Errorcount` compares a query-progress estimate against the *true*
//!   GetNext progress `Σkᵢ(t)/ΣNᵢ` computed with exact (post-hoc) `Nᵢ`,
//!   averaged over all observations. Maximum value 1.0.
//! * `Errortime` compares an estimate against the elapsed-time fraction
//!   `(t − t_start)/(t_end − t_start)`, averaged over all observations.
//!   Maximum value 0.5 in expectation for degenerate estimators; as the
//!   paper notes, improvements of even 0.05 are significant.

use crate::estimator::ProgressReport;
use crate::statics::PlanStatics;
use lqs_exec::QueryRun;
use std::collections::BTreeMap;

/// Average |estimate − truth| over paired observations; 0 for none.
fn mean_abs_error(estimates: &[f64], truth: impl ExactSizeIterator<Item = f64>) -> f64 {
    assert_eq!(estimates.len(), truth.len());
    if estimates.is_empty() {
        return 0.0;
    }
    let sum: f64 = estimates
        .iter()
        .zip(truth)
        .map(|(est, t)| (est - t).abs())
        .sum();
    sum / estimates.len() as f64
}

/// Average |estimate − true GetNext progress| over all snapshots of a run.
pub fn error_count(run: &QueryRun, estimates: &[f64]) -> f64 {
    let truth = run.snapshots.iter().map(|s| run.true_query_progress(s));
    mean_abs_error(estimates, truth)
}

/// Average |estimate − elapsed-time fraction| over all snapshots of a run.
pub fn error_time(run: &QueryRun, estimates: &[f64]) -> f64 {
    let truth = run.snapshots.iter().map(|s| run.time_fraction(s));
    mean_abs_error(estimates, truth)
}

/// A run's two §5 ground-truth curves, computed once so that several
/// estimate vectors (every ensemble member plus the ensemble) are scored
/// against them without recomputing the truth per vector. The figures are
/// those of [`error_count`] / [`error_time`], bit for bit.
#[derive(Debug, Clone)]
pub struct TruthCurves {
    /// True GetNext progress per snapshot.
    count: Vec<f64>,
    /// Elapsed-time fraction per snapshot.
    time: Vec<f64>,
}

impl TruthCurves {
    /// The truth curves of `run`.
    pub fn of(run: &QueryRun) -> Self {
        TruthCurves {
            count: run
                .snapshots
                .iter()
                .map(|s| run.true_query_progress(s))
                .collect(),
            time: run.snapshots.iter().map(|s| run.time_fraction(s)).collect(),
        }
    }

    /// [`error_count`] of `estimates` against this run.
    pub fn error_count(&self, estimates: &[f64]) -> f64 {
        mean_abs_error(estimates, self.count.iter().copied())
    }

    /// [`error_time`] of `estimates` against this run.
    pub fn error_time(&self, estimates: &[f64]) -> f64 {
        mean_abs_error(estimates, self.time.iter().copied())
    }
}

/// Accumulates per-operator-type errors across queries (Figures 15, 20).
#[derive(Debug, Default, Clone)]
pub struct PerOperatorError {
    sums: BTreeMap<&'static str, (f64, u64)>,
}

impl PerOperatorError {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one query's reports, measuring per-node `Errorcount`:
    /// |node progress estimate − kᵢ(t)/Nᵢ_true| over snapshots where the
    /// node is active (open, not yet closed).
    pub fn add_count_errors(
        &mut self,
        statics: &PlanStatics,
        run: &QueryRun,
        reports: &[ProgressReport],
    ) {
        for (s, rep) in run.snapshots.iter().zip(reports) {
            for (i, st) in statics.nodes.iter().enumerate() {
                let c = s.node(i);
                if !c.is_open() || c.is_closed() {
                    continue;
                }
                let n_true = run.true_n(i);
                if n_true <= 0.0 {
                    continue;
                }
                let true_p = (c.rows_output as f64 / n_true).clamp(0.0, 1.0);
                let err = (rep.nodes[i].progress - true_p).abs();
                let e = self.sums.entry(st.name).or_insert((0.0, 0));
                e.0 += err;
                e.1 += 1;
            }
        }
    }

    /// Fold in one query's reports, measuring per-node `Errortime`:
    /// |node progress estimate − active-time fraction| over the node's
    /// active window.
    pub fn add_time_errors(
        &mut self,
        statics: &PlanStatics,
        run: &QueryRun,
        reports: &[ProgressReport],
    ) {
        for (s, rep) in run.snapshots.iter().zip(reports) {
            for (i, st) in statics.nodes.iter().enumerate() {
                let fc = &run.final_counters[i];
                let (Some(open), Some(close)) = (fc.open_ns, fc.close_ns) else {
                    continue;
                };
                if close <= open || s.ts_ns < open || s.ts_ns > close {
                    continue;
                }
                let true_p = (s.ts_ns - open) as f64 / (close - open) as f64;
                let err = (rep.nodes[i].progress - true_p).abs();
                let e = self.sums.entry(st.name).or_insert((0.0, 0));
                e.0 += err;
                e.1 += 1;
            }
        }
    }

    /// Average error per operator type.
    pub fn averages(&self) -> BTreeMap<&'static str, f64> {
        self.sums
            .iter()
            .map(|(&k, &(sum, n))| (k, if n == 0 { 0.0 } else { sum / n as f64 }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_exec::{DmvSnapshot, NodeCounters, QueryRun};

    fn fake_run(n_snaps: usize, total_rows: u64) -> QueryRun {
        let mut snapshots = Vec::new();
        for i in 1..=n_snaps {
            let c = NodeCounters {
                rows_output: total_rows * i as u64 / n_snaps as u64,
                ..NodeCounters::default()
            };
            snapshots.push(DmvSnapshot {
                ts_ns: (i * 100) as u64,
                nodes: vec![c],
            });
        }
        let f = NodeCounters {
            rows_output: total_rows,
            ..NodeCounters::default()
        };
        QueryRun {
            snapshots,
            final_counters: vec![f],
            duration_ns: (n_snaps * 100) as u64,
            rows_returned: total_rows,
            cost_model: lqs_plan::CostModel::default(),
            node_elapsed_ns: Vec::new(),
        }
    }

    #[test]
    fn perfect_estimator_zero_error() {
        let run = fake_run(10, 1000);
        let ests: Vec<f64> = run
            .snapshots
            .iter()
            .map(|s| run.true_query_progress(s))
            .collect();
        assert!(error_count(&run, &ests) < 1e-12);
        let ests: Vec<f64> = run.snapshots.iter().map(|s| run.time_fraction(s)).collect();
        assert!(error_time(&run, &ests) < 1e-12);
    }

    #[test]
    fn truth_curves_score_like_the_per_vector_functions() {
        let run = fake_run(25, 977);
        let ests: Vec<f64> = (0..25).map(|i| (i as f64 / 31.0).sin().abs()).collect();
        let truth = TruthCurves::of(&run);
        assert_eq!(
            truth.error_count(&ests).to_bits(),
            error_count(&run, &ests).to_bits()
        );
        assert_eq!(
            truth.error_time(&ests).to_bits(),
            error_time(&run, &ests).to_bits()
        );
        assert_eq!(TruthCurves::of(&fake_run(0, 1)).error_count(&[]), 0.0);
    }

    #[test]
    fn constant_zero_estimator_error() {
        let run = fake_run(10, 1000);
        let ests = vec![0.0; 10];
        // True progress averages ~0.55 over the 10 samples.
        let e = error_count(&run, &ests);
        assert!((e - 0.55).abs() < 0.01, "e={e}");
    }

    #[test]
    fn error_bounded_by_one() {
        let run = fake_run(25, 10);
        let ests = vec![1.0; 25];
        assert!(error_count(&run, &ests) <= 1.0);
        assert!(error_time(&run, &ests) <= 1.0);
    }
}
