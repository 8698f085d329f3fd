//! §5-style evaluation of the ensemble layer: replay every query of a
//! workload through the competing estimator members *and* the online
//! selection layer, and aggregate `Errorcount`/`Errortime` per member vs.
//! the composed ensemble figure.
//!
//! This is the offline twin of the server poller's accuracy scoring — both
//! go through [`EnsembleEstimator::replay`] on the full recorded snapshot
//! trace, so the numbers here are bit-identical to what
//! `lqs_estimator_error_count{estimator=...}` accumulates online for the
//! same runs.

use crate::run::run_query;
use lqs::exec::ExecOptions;
use lqs::progress::{error_count, error_time, EnsembleConfig, EnsembleEstimator};
use lqs::workloads::Workload;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write;

/// ErrorAvg/ErrorTime of every ensemble member and the composed ensemble
/// over one workload (the paper's `1/|Q| Σ_Q …` aggregation).
#[derive(Debug, Clone, Serialize)]
pub struct EnsembleErrors {
    /// Workload name.
    pub workload: String,
    /// `(member id, ErrorAvg, ErrorTime)` in ensemble member order.
    pub members: Vec<(String, f64, f64)>,
    /// ErrorAvg of the composed (weighted) ensemble estimate.
    pub ensemble_error_avg: f64,
    /// ErrorTime of the composed ensemble estimate.
    pub(crate) ensemble_error_time: f64,
    /// Final selected member per query: member id → query count.
    pub(crate) selected: BTreeMap<String, usize>,
    /// Queries measured (those that produced at least one snapshot).
    pub(crate) queries: usize,
}

impl EnsembleErrors {
    /// Whether the ensemble's ErrorAvg is no worse than every member's
    /// (ties allowed) — the robustness claim the experiment table backs.
    pub fn ensemble_dominates(&self) -> bool {
        self.members
            .iter()
            .all(|(_, avg, _)| self.ensemble_error_avg <= *avg + 1e-12)
    }
}

/// Run every query of `workload`, replay its snapshot trace through the
/// standard member set plus the selection layer, and average both §5 error
/// metrics per query and then over queries.
pub(crate) fn ensemble_errors(
    workload: &Workload,
    config: &EnsembleConfig,
    opts: &ExecOptions,
) -> EnsembleErrors {
    let mut member_ids: Vec<String> = Vec::new();
    let mut member_sums: Vec<(f64, f64)> = Vec::new();
    let mut ensemble_sum = (0.0f64, 0.0f64);
    let mut selected: BTreeMap<String, usize> = BTreeMap::new();
    let mut measured = 0usize;
    for q in &workload.queries {
        let run = run_query(&workload.db, &q.plan, opts);
        if run.snapshots.is_empty() {
            continue;
        }
        // Same cost-model discipline as `estimator_for_run`: the members'
        // §4.6 weights must come from the model the run was charged under.
        let ens = EnsembleEstimator::build(&q.plan, &workload.db, &run.cost_model, config.clone());
        if member_ids.is_empty() {
            member_ids = ens.members().map(|m| m.id().to_string()).collect();
            member_sums = vec![(0.0, 0.0); member_ids.len()];
        }
        let replay = ens.replay(&run.snapshots);
        measured += 1;
        for (i, est) in replay.member_estimates.iter().enumerate() {
            member_sums[i].0 += error_count(&run, est);
            member_sums[i].1 += error_time(&run, est);
        }
        ensemble_sum.0 += error_count(&run, &replay.estimates);
        ensemble_sum.1 += error_time(&run, &replay.estimates);
        if let Some(selection) = &replay.selection {
            *selected.entry(selection.selected.to_string()).or_insert(0) += 1;
        }
    }
    let norm = |s: f64| {
        if measured == 0 {
            0.0
        } else {
            s / measured as f64
        }
    };
    EnsembleErrors {
        workload: workload.name.to_string(),
        members: member_ids
            .into_iter()
            .zip(&member_sums)
            .map(|(id, (a, t))| (id, norm(*a), norm(*t)))
            .collect(),
        ensemble_error_avg: norm(ensemble_sum.0),
        ensemble_error_time: norm(ensemble_sum.1),
        selected,
        queries: measured,
    }
}

/// Run the ensemble comparison over the three REAL workloads — the §5
/// customer workloads the robustness claim is evaluated on. The selection
/// seed is the scale's master seed, so the table is a pure function of
/// `scale`.
pub fn ensemble_real(scale: lqs::workloads::WorkloadScale) -> Vec<EnsembleErrors> {
    use lqs::workloads::real::{workload, RealProfile};
    let config = EnsembleConfig::standard(scale.seed);
    [RealProfile::Real1, RealProfile::Real2, RealProfile::Real3]
        .into_iter()
        .map(|p| {
            let mut w = workload(p, scale);
            w.truncate_queries(scale.query_limit);
            ensemble_errors(&w, &config, &ExecOptions::default())
        })
        .collect()
}

/// Render per-workload ensemble comparisons as a GitHub-flavored markdown
/// table (ErrorAvg per member, then the ensemble column) — the
/// EXPERIMENTS.md format.
pub fn render_ensemble_markdown(rows: &[EnsembleErrors]) -> String {
    let mut out = String::new();
    let Some(first) = rows.first() else {
        let _ = writeln!(out, "(no data)");
        return out;
    };
    let _ = write!(out, "| workload | queries |");
    for (id, _, _) in &first.members {
        let _ = write!(out, " {id} |");
    }
    let _ = writeln!(out, " ensemble | selected |");
    let _ = write!(out, "|---|---|");
    for _ in &first.members {
        let _ = write!(out, "---|");
    }
    let _ = writeln!(out, "---|---|");
    for r in rows {
        let _ = write!(out, "| {} | {} |", r.workload, r.queries);
        for (_, avg, _) in &r.members {
            let _ = write!(out, " {avg:.4} |");
        }
        let picks: Vec<String> = r
            .selected
            .iter()
            .map(|(id, n)| format!("{id}×{n}"))
            .collect();
        let _ = writeln!(
            out,
            " **{:.4}** | {} |",
            r.ensemble_error_avg,
            picks.join(", ")
        );
    }
    out
}
