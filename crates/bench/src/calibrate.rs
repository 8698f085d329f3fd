//! §7 extension (b): learn per-operator weight corrections from prior
//! executions.
//!
//! The §4.6 weights come from optimizer per-tuple cost estimates, which the
//! paper notes cannot capture effects the optimizer does not model (e.g.
//! buffer-pool caching). This module executes a calibration workload and
//! compares each operator type's *actual* per-tuple virtual cost against
//! the optimizer's estimate, producing multipliers that
//! [`lqs::progress::EstimatorConfig::with_weight_feedback`] applies on top
//! of the static weights.

use lqs::exec::ExecOptions;
use lqs::plan::CostModel;
use lqs::workloads::Workload;
use std::collections::BTreeMap;

/// Learned per-operator-type multipliers: actual ÷ estimated per-tuple cost.
pub(crate) type WeightCalibration = BTreeMap<&'static str, f64>;

/// Execute every query of `workload` and aggregate actual vs estimated
/// per-tuple cost per operator type.
pub fn calibrate_weights(workload: &Workload, opts: &ExecOptions) -> WeightCalibration {
    let cost = CostModel::default();
    // operator name → (Σ actual ns, Σ estimated ns)
    let mut sums: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for q in &workload.queries {
        let run = crate::run::run_query(&workload.db, &q.plan, opts);
        for n in q.plan.nodes() {
            let c = &run.final_counters[n.id.0];
            let actual = c.cpu_ns as f64 + c.logical_reads as f64 * cost.io_page_ns;
            let estimated = n.est_cpu_ns + n.est_io_pages * cost.io_page_ns;
            if estimated <= 0.0 || actual <= 0.0 {
                continue;
            }
            let e = sums.entry(n.op.display_name()).or_insert((0.0, 0.0));
            e.0 += actual;
            e.1 += estimated;
        }
    }
    sums.into_iter()
        .map(|(k, (a, e))| (k, (a / e).clamp(0.05, 20.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs::workloads::{tpcds, WorkloadScale};

    #[test]
    fn calibration_produces_sane_multipliers() {
        let scale = WorkloadScale {
            data_scale: 0.15,
            query_limit: 4,
            seed: 3,
        };
        let mut w = tpcds::workload(scale);
        w.truncate_queries(4);
        let cal = calibrate_weights(&w, &ExecOptions::default());
        assert!(!cal.is_empty());
        for (op, m) in &cal {
            assert!(
                (0.05..=20.0).contains(m),
                "multiplier for {op} out of range: {m}"
            );
        }
        // Scans are directly costed from table sizes, so they should be
        // close to 1 when cardinality estimates are decent.
        if let Some(m) = cal.get("Table Scan") {
            assert!((0.3..3.0).contains(m), "table scan multiplier {m}");
        }
    }
}
