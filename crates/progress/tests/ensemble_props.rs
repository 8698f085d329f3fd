//! Property tests for the ensemble layer (`lqs_progress::ensemble`):
//!
//! * at **every** snapshot of **every** generated plan, the ensemble's
//!   query-progress estimate lies inside the `[min, max]` envelope of its
//!   members' estimates (it is a convex combination by construction — this
//!   pins that construction);
//! * two replays of the same recorded snapshot stream are **bit-for-bit
//!   identical**: same estimates, same member estimates, same final
//!   selection and weights (the determinism contract the server's online
//!   accuracy scoring relies on);
//! * weights are always a normalized probability vector and the selected
//!   member always carries the arg-max weight.

use lqs_exec::{execute, ExecOptions};
use lqs_plan::{
    AggFunc, Aggregate, ExchangeKind, Expr, JoinKind, NodeId, PlanBuilder, SeekKey, SeekRange,
    SortKey,
};
use lqs_progress::{EnsembleConfig, EnsembleEstimator};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};
use proptest::prelude::*;

/// A small recursive plan specification.
#[derive(Debug, Clone)]
enum Spec {
    Scan { filtered: bool },
    IndexedScan,
    Filter(Box<Spec>, i64),
    Sort(Box<Spec>),
    Top(Box<Spec>, usize),
    HashAgg(Box<Spec>, bool),
    HashJoin(Box<Spec>, Box<Spec>),
    NestedLoopsSeek(Box<Spec>),
    Exchange(Box<Spec>),
}

fn leaf() -> impl Strategy<Value = Spec> {
    prop_oneof![
        Just(Spec::Scan { filtered: false }),
        Just(Spec::Scan { filtered: true }),
        Just(Spec::IndexedScan),
    ]
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    leaf().prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..900).prop_map(|(s, t)| Spec::Filter(Box::new(s), t)),
            inner.clone().prop_map(|s| Spec::Sort(Box::new(s))),
            (inner.clone(), 1usize..200).prop_map(|(s, n)| Spec::Top(Box::new(s), n)),
            (inner.clone(), any::<bool>()).prop_map(|(s, g)| Spec::HashAgg(Box::new(s), g)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Spec::HashJoin(Box::new(a), Box::new(b))),
            inner
                .clone()
                .prop_map(|o| Spec::NestedLoopsSeek(Box::new(o))),
            inner.clone().prop_map(|s| Spec::Exchange(Box::new(s))),
        ]
    })
}

struct Ctx {
    db: Database,
    table: TableId,
    small: TableId,
    index: lqs_storage::IndexId,
}

fn make_db(rows: i64, seed: i64) -> Ctx {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("c", DataType::Int),
        ]),
    );
    for i in 0..rows {
        t.insert(vec![
            Value::Int(i),
            Value::Int((i * 7 + seed) % 1000),
            Value::Int((i * i + seed) % 50),
        ])
        .unwrap();
    }
    let mut s = Table::new(
        "s",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..40 {
        s.insert(vec![Value::Int(i), Value::Int((i + seed) % 7)])
            .unwrap();
    }
    let mut db = Database::new();
    let table = db.add_table_analyzed(t);
    let small = db.add_table_analyzed(s);
    let index = db.create_btree_index("ix_c", table, vec![2], false);
    Ctx {
        db,
        table,
        small,
        index,
    }
}

fn build(b: &mut PlanBuilder, ctx: &Ctx, spec: &Spec, depth: usize) -> NodeId {
    let base = if depth.is_multiple_of(2) {
        ctx.table
    } else {
        ctx.small
    };
    match spec {
        Spec::Scan { filtered } => {
            if *filtered {
                b.table_scan_filtered(base, Expr::col(1).lt(Expr::lit(500i64)), true)
            } else {
                b.table_scan(base)
            }
        }
        Spec::IndexedScan => b.index_scan(ctx.index),
        Spec::Filter(inner, t) => {
            let c = build(b, ctx, inner, depth + 1);
            b.filter(c, Expr::col(1).lt(Expr::lit(*t)))
        }
        Spec::Sort(inner) => {
            let c = build(b, ctx, inner, depth + 1);
            b.sort(c, vec![SortKey::asc(0)])
        }
        Spec::Top(inner, n) => {
            let c = build(b, ctx, inner, depth + 1);
            b.add(lqs_plan::PhysicalOp::Top { n: *n }, vec![c])
        }
        Spec::HashAgg(inner, grouped) => {
            let c = build(b, ctx, inner, depth + 1);
            let group = if *grouped { vec![1] } else { vec![] };
            let agg = b.hash_aggregate(c, group, vec![Aggregate::of_col(AggFunc::Sum, 0)]);
            b.compute_scalar(agg, vec![Expr::lit(0i64)])
        }
        Spec::HashJoin(l, r) => {
            let lc = build(b, ctx, l, depth + 1);
            let rc = build(b, ctx, r, depth + 1);
            b.hash_join(JoinKind::Inner, lc, rc, vec![1], vec![1])
        }
        Spec::NestedLoopsSeek(outer) => {
            let oc = build(b, ctx, outer, depth + 1);
            let seek = b.index_seek(ctx.index, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
            b.nested_loops(JoinKind::Inner, oc, seek, None, 1)
        }
        Spec::Exchange(inner) => {
            let c = build(b, ctx, inner, depth + 1);
            b.exchange(c, ExchangeKind::GatherStreams, 4)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ensemble_stays_in_member_envelope_and_replays_identically(
        spec in spec_strategy(),
        seed in 0i64..4,
        ens_seed in 0u64..1_000,
    ) {
        let ctx = make_db(1500, seed);
        let mut b = PlanBuilder::new(&ctx.db);
        let root = build(&mut b, &ctx, &spec, 0);
        let plan = b.finish(root);
        let run = execute(&ctx.db, &plan, &ExecOptions::default());
        if run.snapshots.is_empty() {
            continue;
        }

        let config = EnsembleConfig::standard(ens_seed);
        let ens = EnsembleEstimator::build(&plan, &ctx.db, &run.cost_model, config);
        let replay = ens.replay(&run.snapshots);

        // Envelope: the composed estimate is a convex combination of the
        // member estimates, so it must sit inside their [min, max] at every
        // snapshot (modulo the final [0, 1] clamp, which only tightens).
        for (j, &est) in replay.estimates.iter().enumerate() {
            let members: Vec<f64> = replay.member_estimates.iter().map(|m| m[j]).collect();
            let lo = members.iter().cloned().fold(f64::INFINITY, f64::min).max(0.0);
            let hi = members.iter().cloned().fold(0.0f64, f64::max).min(1.0);
            prop_assert!(
                est >= lo - 1e-12 && est <= hi + 1e-12,
                "snapshot {j}: ensemble {est} outside member envelope [{lo}, {hi}]\nplan:\n{}",
                plan.display_tree()
            );
        }

        // Weights are a probability vector and the selection is its arg-max.
        let sel = replay.selection.as_ref().expect("six members had a choice");
        let total: f64 = sel.weights.iter().map(|(_, w)| *w).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "weights sum to {total}");
        let max_w = sel
            .weights
            .iter()
            .map(|(_, w)| *w)
            .fold(f64::NEG_INFINITY, f64::max);
        let sel_w = sel
            .weights
            .iter()
            .find(|(id, _)| *id == sel.selected)
            .map(|(_, w)| *w)
            .expect("selected id is a member");
        prop_assert_eq!(sel_w, max_w, "selected member does not carry the max weight");

        // Determinism: a second replay of the same stream is bit-identical.
        let again = ens.replay(&run.snapshots);
        prop_assert_eq!(&replay.estimates, &again.estimates);
        prop_assert_eq!(&replay.member_estimates, &again.member_estimates);
        prop_assert_eq!(&replay.selection, &again.selection);

        // And so is a replay through a *freshly built* ensemble (nothing
        // leaks from the builder into the fold).
        let rebuilt = EnsembleEstimator::build(
            &plan,
            &ctx.db,
            &run.cost_model,
            EnsembleConfig::standard(ens_seed),
        );
        let fresh = rebuilt.replay(&run.snapshots);
        prop_assert_eq!(&replay.estimates, &fresh.estimates);
        prop_assert_eq!(&replay.selection, &fresh.selection);
    }
}
