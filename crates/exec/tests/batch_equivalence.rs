//! Property tests for the batch-size equivalence contract: there is one
//! GetNext, so executing any plan one row at a time (`batch_size: 1`) and
//! `batch_size: N` rows at a time must produce the same virtual-time
//! totals, the same snapshot cadence, and bit-identical final counter rows
//! — except `first_row_ns`, which is stamped when a charging scope settles
//! and so lands later the more rows a scope covers (the one documented
//! divergence).

mod common;

use common::{make_db, masked, opts, plan_of, spec_strategy};
use lqs_exec::{execute, execute_traced, ExecMode, ExecOptions};
use lqs_obs::{EventKind, RingBufferSink};
use lqs_plan::{Aggregate, Expr, JoinKind, PhysicalPlan, PlanBuilder, SeekKey, SeekRange};
use lqs_storage::Database;
use proptest::prelude::*;

/// Run the plan at batch size 1 and at `batch_size` and assert the
/// equivalence contract.
fn check_equivalent(plan: &PhysicalPlan, db: &Database, batch_size: usize) {
    let tup = execute(db, plan, &opts(1));
    let bat = execute(db, plan, &opts(batch_size));

    assert_eq!(
        tup.rows_returned,
        bat.rows_returned,
        "rows_returned diverged\nplan:\n{}",
        plan.display_tree()
    );
    assert_eq!(
        tup.duration_ns,
        bat.duration_ns,
        "virtual duration diverged\nplan:\n{}",
        plan.display_tree()
    );

    // Identical clock trajectory ⇒ identical snapshot cadence.
    let tup_ts: Vec<u64> = tup.snapshots.iter().map(|s| s.ts_ns).collect();
    let bat_ts: Vec<u64> = bat.snapshots.iter().map(|s| s.ts_ns).collect();
    assert_eq!(
        tup_ts,
        bat_ts,
        "snapshot cadence diverged\nplan:\n{}",
        plan.display_tree()
    );

    // Final counter rows are bit-identical except first_row_ns.
    assert_eq!(
        masked(&tup.final_counters),
        masked(&bat.final_counters),
        "final counters diverged\nplan:\n{}",
        plan.display_tree()
    );

    // Per-node time attribution is part of the contract too: both sizes
    // credit identical self-time to every node, and either run's credits
    // sum exactly to its virtual duration (no lost or double-counted ns).
    assert_eq!(
        tup.node_elapsed_ns,
        bat.node_elapsed_ns,
        "per-node attribution diverged\nplan:\n{}",
        plan.display_tree()
    );
    assert_eq!(
        tup.node_elapsed_ns.iter().sum::<u64>(),
        tup.duration_ns,
        "attribution does not sum to the clock\nplan:\n{}",
        plan.display_tree()
    );

    // Attaching an event sink must not perturb the run: same rows, same
    // clock, same counters, same attribution — tracing observes the flush
    // path, it never re-times it.
    let sink = RingBufferSink::new(1 << 20);
    let traced = execute_traced(db, plan, &opts(batch_size), &sink);
    assert_eq!(traced.rows_returned, bat.rows_returned);
    assert_eq!(traced.duration_ns, bat.duration_ns);
    assert_eq!(traced.final_counters, bat.final_counters);
    assert_eq!(traced.node_elapsed_ns, bat.node_elapsed_ns);

    // And the batch spans it emitted are well-formed: coarsened to flush
    // granularity (documented), but always inside the run and never
    // time-reversed.
    let mut batch_spans = 0usize;
    for e in sink.events() {
        if let EventKind::OperatorBatch { start_ns, .. } = e.kind {
            batch_spans += 1;
            assert!(start_ns <= e.ts_ns, "span ends before it starts");
            assert!(e.ts_ns <= traced.duration_ns, "span past end of run");
            assert!(e.node.is_some(), "batch span without a node");
        }
    }
    if traced.rows_returned > 0 {
        assert!(
            batch_spans > 0,
            "a producing batch run must emit batch spans\nplan:\n{}",
            plan.display_tree()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn batch_mode_matches_tuple_mode(spec in spec_strategy(), seed in 0i64..5) {
        let ctx = make_db(2500, seed);
        let plan = plan_of(&ctx, &spec);
        check_equivalent(&plan, &ctx.db, 1024);
    }

    /// Odd batch sizes shift every flush boundary; the contract must hold
    /// regardless of where batches split.
    #[test]
    fn batch_size_does_not_matter(spec in spec_strategy(), bs in 1usize..130) {
        let ctx = make_db(900, 3);
        let plan = plan_of(&ctx, &spec);
        check_equivalent(&plan, &ctx.db, bs);
    }
}

#[test]
fn equivalence_on_handwritten_corner_cases() {
    let ctx = make_db(2000, 1);

    // Empty-result filter feeding a grouped aggregate.
    let mut b = PlanBuilder::new(&ctx.db);
    let scan = b.table_scan_filtered(ctx.table, Expr::col(0).lt(Expr::lit(-1i64)), true);
    let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::count_star()]);
    let plan = b.finish(agg);
    check_equivalent(&plan, &ctx.db, 1024);

    // TOP 1 over a join: strict-limit handling must not overshoot.
    let mut b = PlanBuilder::new(&ctx.db);
    let l = b.table_scan(ctx.table);
    let r = b.table_scan(ctx.small);
    let j = b.hash_join(JoinKind::Inner, l, r, vec![1], vec![1]);
    let top = b.add(lqs_plan::PhysicalOp::Top { n: 1 }, vec![j]);
    let plan = b.finish(top);
    check_equivalent(&plan, &ctx.db, 7);

    // Deep nested loops with rebinds crossing batch boundaries.
    let mut b = PlanBuilder::new(&ctx.db);
    let outer = b.table_scan(ctx.small);
    let mid_seek = b.index_seek(ctx.index, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
    let nl1 = b.nested_loops(JoinKind::Inner, outer, mid_seek, None, 1);
    let inner_seek = b.index_seek(ctx.index, SeekRange::eq(vec![SeekKey::OuterRef(4)]));
    let nl2 = b.nested_loops(JoinKind::LeftOuter, nl1, inner_seek, None, 64);
    let plan = b.finish(nl2);
    check_equivalent(&plan, &ctx.db, 1024);

    // `ExecMode::Tuple` is nothing but batch size 1, whatever `batch_size`
    // says: the two runs agree on everything, `first_row_ns` and snapshot
    // contents included.
    let tuple = execute(
        &ctx.db,
        &plan,
        &ExecOptions {
            mode: ExecMode::Tuple,
            ..opts(1024)
        },
    );
    let one = execute(&ctx.db, &plan, &opts(1));
    assert_eq!(tuple.snapshots, one.snapshots);
    assert_eq!(tuple.final_counters, one.final_counters);
    assert_eq!(tuple.node_elapsed_ns, one.node_elapsed_ns);
}
