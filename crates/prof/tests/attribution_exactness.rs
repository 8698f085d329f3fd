//! Attribution exactness over the REAL workloads, both execution modes:
//! for every profiled run, per-node self-times sum *exactly* to the total
//! virtual elapsed, inclusive times equal their subtree sums, collapsed
//! flamegraph weights conserve the total — and tuple and batch mode
//! attribute identically, node for node. No sampling error, no clock
//! skew: the virtual clock makes profiling a conservation law.

use lqs_exec::{execute, ExecOptions};
use lqs_prof::ProfileReport;
use lqs_workloads::real::{workload, RealProfile};
use lqs_workloads::{Workload, WorkloadScale};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The three REAL workloads at smoke scale, built once per process (the
/// generators are deterministic, so every proptest case sees the same
/// databases and plans).
fn workloads() -> &'static [Workload] {
    static WORKLOADS: OnceLock<Vec<Workload>> = OnceLock::new();
    WORKLOADS.get_or_init(|| {
        [RealProfile::Real1, RealProfile::Real2, RealProfile::Real3]
            .into_iter()
            .map(|p| workload(p, WorkloadScale::smoke()))
            .collect()
    })
}

/// Sum of the collapsed-stack line weights (`frame;frame weight`).
fn collapsed_weight_sum(collapsed: &str) -> u64 {
    collapsed
        .lines()
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|w| w.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("malformed collapsed line {l:?}"))
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn attribution_is_exact_across_real_workloads_and_modes(
        w in 0usize..3,
        q in 0usize..64,
    ) {
        let wl = &workloads()[w];
        let nq = &wl.queries[q % wl.queries.len()];
        let mut per_mode = Vec::new();
        for batch_size in [1, ExecOptions::default().batch_size] {
            let opts = ExecOptions {
                batch_size,
                ..ExecOptions::default()
            };
            let run = execute(&wl.db, &nq.plan, &opts);
            let report = ProfileReport::from_run(&nq.plan, &run)
                .expect("live runs always carry attribution");
            // The conservation laws, checked by the report itself:
            // Σ self == total, root inclusive == total, child inclusive
            // bounded by parent.
            if let Err(e) = report.check_exact() {
                prop_assert!(false, "{} / {} (batch size {}): {}", wl.name, nq.name, batch_size, e);
            }
            prop_assert_eq!(
                report.total_ns, run.duration_ns,
                "total must be the run's virtual duration"
            );
            // The flamegraph view conserves the total too: collapsed
            // weights are self-times, zero-weight frames skipped.
            prop_assert_eq!(
                collapsed_weight_sum(&report.collapsed_stacks()),
                report.total_ns,
                "collapsed stacks lost or invented time"
            );
            per_mode.push(report);
        }
        // Tuple and batch credit identical self-time everywhere — the
        // profiling layer inherits the batch-equivalence contract.
        let (t, b) = (&per_mode[0], &per_mode[1]);
        prop_assert_eq!(t.total_ns, b.total_ns);
        for (tn, bn) in t.nodes.iter().zip(b.nodes.iter()) {
            prop_assert_eq!(tn.self_ns, bn.self_ns, "node {} self", tn.node);
            prop_assert_eq!(tn.inclusive_ns, bn.inclusive_ns, "node {} inclusive", tn.node);
        }
    }
}
