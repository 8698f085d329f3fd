//! Workload-level experiment drivers: run every query of a workload under a
//! set of estimator configurations and aggregate the paper's error metrics.

use crate::run::{estimates_only, run_query};
use lqs::exec::ExecOptions;
use lqs::progress::{
    error_count, error_time, EstimatorConfig, PerOperatorError, ProgressEstimator,
};
use lqs::workloads::Workload;
use serde::Serialize;
use std::collections::BTreeMap;

/// A labelled estimator configuration.
#[derive(Clone)]
pub struct ConfigSpec {
    /// Display label (legend entry).
    pub label: &'static str,
    /// The configuration.
    pub config: EstimatorConfig,
}

/// Which error metric to aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// §5's `Errorcount`.
    Count,
    /// §5's `Errortime`.
    Time,
}

/// Average error of each config over all queries of a workload.
#[derive(Debug, Clone, Serialize)]
pub struct WorkloadErrors {
    /// Workload name.
    pub workload: String,
    /// `(config label, average error per query)` in input config order.
    pub errors: Vec<(String, f64)>,
    /// Queries measured.
    pub queries: usize,
}

/// Run `configs` over every query of `workload`, averaging `metric` per
/// query and then over queries (the paper's `1/|Q| Σ_Q …` form).
pub fn workload_errors(
    workload: &Workload,
    configs: &[ConfigSpec],
    metric: Metric,
    opts: &ExecOptions,
) -> WorkloadErrors {
    let mut sums = vec![0.0f64; configs.len()];
    let mut measured = 0usize;
    for q in &workload.queries {
        let run = run_query(&workload.db, &q.plan, opts);
        if run.snapshots.is_empty() {
            continue;
        }
        measured += 1;
        for (i, spec) in configs.iter().enumerate() {
            let est = estimates_only(&q.plan, &workload.db, &run, spec.config.clone());
            let e = match metric {
                Metric::Count => error_count(&run, &est),
                Metric::Time => error_time(&run, &est),
            };
            sums[i] += e;
        }
    }
    WorkloadErrors {
        workload: workload.name.to_string(),
        errors: configs
            .iter()
            .zip(&sums)
            .map(|(c, s)| {
                (
                    c.label.to_string(),
                    if measured == 0 {
                        0.0
                    } else {
                        s / measured as f64
                    },
                )
            })
            .collect(),
        queries: measured,
    }
}

/// Per-operator-type average error of each config over a workload
/// (Figures 15 and 20).
#[derive(Debug, Clone, Serialize)]
pub struct PerOperatorErrors {
    /// Workload name.
    pub workload: String,
    /// Per config label: operator name → average error.
    pub by_config: Vec<(String, BTreeMap<String, f64>)>,
}

/// Accumulate per-operator errors for each config across a workload.
pub fn per_operator_errors(
    workload: &Workload,
    configs: &[ConfigSpec],
    metric: Metric,
    opts: &ExecOptions,
) -> PerOperatorErrors {
    let mut accs: Vec<PerOperatorError> = configs.iter().map(|_| PerOperatorError::new()).collect();
    for q in &workload.queries {
        let run = run_query(&workload.db, &q.plan, opts);
        if run.snapshots.is_empty() {
            continue;
        }
        for (i, spec) in configs.iter().enumerate() {
            let est = ProgressEstimator::with_cost_model(
                &q.plan,
                &workload.db,
                spec.config.clone(),
                &run.cost_model,
            );
            let reports: Vec<_> = run.snapshots.iter().map(|s| est.estimate(s)).collect();
            match metric {
                Metric::Count => accs[i].add_count_errors(est.statics(), &run, &reports),
                Metric::Time => accs[i].add_time_errors(est.statics(), &run, &reports),
            }
        }
    }
    PerOperatorErrors {
        workload: workload.name.to_string(),
        by_config: configs
            .iter()
            .zip(&accs)
            .map(|(c, a)| {
                (
                    c.label.to_string(),
                    a.averages()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect(),
                )
            })
            .collect(),
    }
}

/// Per-config running sums: operator name -> (error sum, sample count).
type OpErrorSums = BTreeMap<String, (f64, usize)>;

/// Merge per-operator accumulations across multiple workloads.
pub fn merge_per_operator(parts: &[PerOperatorErrors]) -> PerOperatorErrors {
    // Simple unweighted mean over workloads that have the operator.
    let mut by_config: Vec<(String, OpErrorSums)> = Vec::new();
    for part in parts {
        for (ci, (label, map)) in part.by_config.iter().enumerate() {
            if by_config.len() <= ci {
                by_config.push((label.clone(), BTreeMap::new()));
            }
            for (op, err) in map {
                let e = by_config[ci].1.entry(op.clone()).or_insert((0.0, 0));
                e.0 += err;
                e.1 += 1;
            }
        }
    }
    PerOperatorErrors {
        workload: "ALL".to_string(),
        by_config: by_config
            .into_iter()
            .map(|(label, map)| {
                (
                    label,
                    map.into_iter()
                        .map(|(op, (sum, n))| (op, sum / n.max(1) as f64))
                        .collect(),
                )
            })
            .collect(),
    }
}

/// Count operators by display name across a workload's plans (Figure 19).
pub(crate) fn operator_frequencies(workload: &Workload) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for q in &workload.queries {
        for n in q.plan.nodes() {
            *out.entry(n.op.display_name().to_string()).or_insert(0) += 1;
        }
    }
    out
}
