//! Property tests for the explain diagnostics: across random plans and
//! random `EstimatorConfig` flag combinations, every node's [`Explanation`]
//! must be consistent with the flags that were actually enabled — a path or
//! refinement source may only appear when the technique that produces it is
//! switched on, clamp deltas may only be non-zero when bounding is on, and
//! the report's counters must equal a recomputation from the per-node
//! explanations.

use lqs_exec::{execute, ExecOptions};
use lqs_plan::{AggFunc, Aggregate, Expr, JoinKind, PlanBuilder, SeekKey, SeekRange, SortKey};
use lqs_progress::{
    EstimationPath, EstimatorConfig, ExplainCounters, ProgressEstimator, QueryModel,
    RefinementSource,
};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};
use proptest::prelude::*;

struct Ctx {
    db: Database,
    big: TableId,
    small: TableId,
    index: lqs_storage::IndexId,
}

fn make_db() -> Ctx {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..2500 {
        t.insert(vec![Value::Int(i), Value::Int((i * 7) % 400)])
            .unwrap();
    }
    let mut s = Table::new(
        "s",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..60 {
        s.insert(vec![Value::Int(i), Value::Int(i % 9)]).unwrap();
    }
    let mut db = Database::new();
    let big = db.add_table_analyzed(t);
    let small = db.add_table_analyzed(s);
    let index = db.create_btree_index("ix_b", big, vec![1]);
    Ctx {
        db,
        big,
        small,
        index,
    }
}

/// A handful of plan shapes covering every explain path: storage-filtered
/// scans, blocking sort/aggregate, hash join, and nested-loops seeks.
fn build_plan(ctx: &Ctx, shape: usize) -> lqs_plan::PhysicalPlan {
    let mut b = PlanBuilder::new(&ctx.db);
    let root = match shape {
        0 => {
            // Storage-filtered scan under a filter + sort.
            let scan = b.table_scan_filtered(ctx.big, Expr::col(1).lt(Expr::lit(250i64)), true);
            let filt = b.filter(scan, Expr::col(0).lt(Expr::lit(2000i64)));
            b.sort(filt, vec![SortKey::desc(1)])
        }
        1 => {
            // Hash join into a grouped aggregate (blocking boundary).
            let dim = b.table_scan(ctx.small);
            let fact = b.table_scan_filtered(ctx.big, Expr::col(1).lt(Expr::lit(300i64)), true);
            let join = b.hash_join(JoinKind::Inner, dim, fact, vec![1], vec![1]);
            b.hash_aggregate(join, vec![0], vec![Aggregate::of_col(AggFunc::Sum, 2)])
        }
        2 => {
            // Nested loops with an index seek inner (NL-inner refinement).
            let outer = b.table_scan(ctx.small);
            let seek = b.index_seek(ctx.index, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
            b.nested_loops(JoinKind::Inner, outer, seek, None, 1)
        }
        _ => {
            // Plain scan + scalar aggregate.
            let scan = b.table_scan(ctx.big);
            b.stream_aggregate(scan, vec![], vec![Aggregate::count_star()])
        }
    };
    b.finish(root)
}

fn config_from_flags(
    flags: (bool, bool, bool, bool, bool, bool, bool, bool, bool),
) -> EstimatorConfig {
    let (refine, bound, storage, semi, two_phase, weights, batch, propagate, driver_model) = flags;
    EstimatorConfig {
        query_model: if driver_model {
            QueryModel::DriverNodes
        } else {
            QueryModel::TotalGetNext
        },
        refine_cardinality: refine,
        bound_cardinality: bound,
        storage_predicate_io: storage,
        semi_blocking_adjustments: semi,
        two_phase_blocking: two_phase,
        operator_weights: weights,
        batch_mode_segments: batch,
        propagate_refined: propagate,
        ..EstimatorConfig::tgn()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn explanations_are_consistent_with_config_flags(
        shape in 0usize..4,
        flags in (
            any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(),
            any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(),
            any::<bool>(),
        ),
    ) {
        let ctx = make_db();
        let plan = build_plan(&ctx, shape);
        let cfg = config_from_flags(flags);
        let run = execute(&ctx.db, &plan, &ExecOptions::default());
        let est = ProgressEstimator::with_cost_model(&plan, &ctx.db, cfg.clone(), &run.cost_model);
        let statics = est.statics();

        for s in &run.snapshots {
            let rep = est.estimate(s);
            prop_assert_eq!(rep.nodes.len(), plan.len());
            let mut recount = ExplainCounters::default();
            for (i, np) in rep.nodes.iter().enumerate() {
                let st = &statics.nodes[i];
                let e = &np.explanation;
                recount.record(e);

                // Acceptance: every node carries a non-empty explanation.
                prop_assert!(!e.path.label().is_empty());
                prop_assert!(!e.refinement.label().is_empty());

                // Paths may only come from enabled techniques (and the node
                // kinds that trigger them).
                match e.path {
                    EstimationPath::Closed => {
                        prop_assert!(s.node(i).is_closed());
                        prop_assert_eq!(np.progress, 1.0);
                    }
                    EstimationPath::TwoPhaseBlocking => {
                        prop_assert!(cfg.two_phase_blocking);
                        prop_assert!(st.blocking && !st.children.is_empty());
                    }
                    EstimationPath::BatchModeSegments => {
                        prop_assert!(cfg.batch_mode_segments);
                        prop_assert!(st.batch_mode);
                    }
                    EstimationPath::StorageFilteredScan => {
                        prop_assert!(cfg.storage_predicate_io);
                        prop_assert!(st.storage_filtered && st.total_pages.is_some());
                    }
                    EstimationPath::Skipped => {
                        // Never opened, yet complete: only possible under a
                        // closed ancestor.
                        prop_assert!(!s.node(i).is_open());
                        prop_assert_eq!(np.progress, 1.0);
                    }
                    EstimationPath::GetNext => {}
                }
                // A closed node must always be priced by the closed path.
                if s.node(i).is_closed() {
                    prop_assert_eq!(e.path, EstimationPath::Closed);
                }

                // Refinement sources may only come from enabled techniques.
                match e.refinement {
                    RefinementSource::Static => {}
                    RefinementSource::ObservedFinal => {
                        prop_assert!(cfg.refine_cardinality);
                        prop_assert!(s.node(i).is_closed());
                    }
                    RefinementSource::Skipped => {
                        prop_assert!(cfg.refine_cardinality);
                        prop_assert!(!s.node(i).is_open());
                        prop_assert_eq!(e.path, EstimationPath::Skipped);
                    }
                    RefinementSource::BlockingPropagation => {
                        prop_assert!(cfg.refine_cardinality && cfg.propagate_refined);
                        prop_assert!(st.blocking);
                    }
                    RefinementSource::NestedLoopsInner => {
                        prop_assert!(cfg.refine_cardinality);
                        prop_assert!(st.enclosing_nl.is_some());
                    }
                    RefinementSource::ImmediateChild => {
                        prop_assert!(cfg.refine_cardinality && cfg.semi_blocking_adjustments);
                    }
                    RefinementSource::DriverAlpha => {
                        prop_assert!(cfg.refine_cardinality);
                    }
                }

                // Clamping only happens when bounding is on, and the clamped
                // estimate must land inside the bounds.
                prop_assert!(
                    (e.pre_bound_n + e.clamp_delta - np.refined_n).abs()
                        <= 1e-9 * np.refined_n.abs().max(1.0)
                );
                if !cfg.bound_cardinality {
                    prop_assert_eq!(e.clamp_delta, 0.0);
                } else if e.clamped() {
                    prop_assert!(
                        np.refined_n >= np.bounds.lb - 1e-9
                            && np.refined_n <= np.bounds.ub + 1e-9
                    );
                }
            }

            // The report's counters are exactly the per-node tally.
            prop_assert_eq!(rep.counters, recount);
            if !cfg.refine_cardinality {
                prop_assert_eq!(rep.counters.refinements_applied, 0);
            }
            if !cfg.bound_cardinality {
                prop_assert_eq!(rep.counters.clamps_hit, 0);
            }
        }
    }
}
