//! The plan generator shared by `batch_equivalence.rs` and
//! `fault_paths.rs`: a recursive operator-mix strategy over one small
//! three-table database.

use lqs_exec::{ExecOptions, NodeCounters};
use lqs_plan::{
    AggFunc, Aggregate, ExchangeKind, Expr, JoinKind, NodeId, PhysicalPlan, PlanBuilder, SeekKey,
    SeekRange, SortKey,
};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};
use proptest::prelude::*;

/// A recursive plan specification the strategy generates. Mirrors the
/// generator in `lqs-progress/tests/bounds_invariant.rs` so the equivalence
/// contract is exercised over the same operator mix the bounds proofs use.
#[derive(Debug, Clone)]
pub enum Spec {
    Scan { filtered: bool },
    IndexedScan,
    Filter(Box<Spec>, i64),
    Sort(Box<Spec>),
    TopNSort(Box<Spec>, usize),
    Top(Box<Spec>, usize),
    HashAgg(Box<Spec>, bool),
    StreamAggScalar(Box<Spec>),
    HashJoin(Box<Spec>, Box<Spec>, JoinKind),
    MergeJoinSorted(Box<Spec>, Box<Spec>),
    NestedLoopsSeek { outer: Box<Spec>, buffered: bool },
    NestedLoopsSpool { outer: Box<Spec> },
    Exchange(Box<Spec>),
    Concat(Box<Spec>, Box<Spec>),
}

fn leaf() -> impl Strategy<Value = Spec> {
    prop_oneof![
        Just(Spec::Scan { filtered: false }),
        Just(Spec::Scan { filtered: true }),
        Just(Spec::IndexedScan),
    ]
}

pub fn spec_strategy() -> impl Strategy<Value = Spec> {
    leaf().prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..900).prop_map(|(s, t)| Spec::Filter(Box::new(s), t)),
            inner.clone().prop_map(|s| Spec::Sort(Box::new(s))),
            (inner.clone(), 1usize..200).prop_map(|(s, n)| Spec::TopNSort(Box::new(s), n)),
            (inner.clone(), 1usize..200).prop_map(|(s, n)| Spec::Top(Box::new(s), n)),
            (inner.clone(), any::<bool>()).prop_map(|(s, g)| Spec::HashAgg(Box::new(s), g)),
            inner
                .clone()
                .prop_map(|s| Spec::StreamAggScalar(Box::new(s))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Spec::HashJoin(
                Box::new(a),
                Box::new(b),
                JoinKind::Inner
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Spec::HashJoin(
                Box::new(a),
                Box::new(b),
                JoinKind::LeftSemi
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Spec::HashJoin(
                Box::new(a),
                Box::new(b),
                JoinKind::LeftOuter
            )),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Spec::MergeJoinSorted(Box::new(a), Box::new(b))),
            (inner.clone(), any::<bool>()).prop_map(|(o, b)| Spec::NestedLoopsSeek {
                outer: Box::new(o),
                buffered: b
            }),
            inner
                .clone()
                .prop_map(|o| Spec::NestedLoopsSpool { outer: Box::new(o) }),
            inner.clone().prop_map(|s| Spec::Exchange(Box::new(s))),
            (inner.clone(), inner).prop_map(|(a, b)| Spec::Concat(Box::new(a), Box::new(b))),
        ]
    })
}

pub struct Ctx {
    pub db: Database,
    pub table: TableId,
    pub small: TableId,
    pub index: lqs_storage::IndexId,
}

pub fn make_db(rows: i64, seed: i64) -> Ctx {
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

/// Build the spec into a plan node; always emits ≥ 2 int columns so every
/// wrapper can reference columns 0 and 1.
pub fn build(b: &mut PlanBuilder, ctx: &Ctx, spec: &Spec, depth: usize) -> NodeId {
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
        Spec::TopNSort(inner, n) => {
            let c = build(b, ctx, inner, depth + 1);
            b.top_n_sort(c, *n, vec![SortKey::asc(0)])
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
        Spec::StreamAggScalar(inner) => {
            let c = build(b, ctx, inner, depth + 1);
            let agg = b.stream_aggregate(c, vec![], vec![Aggregate::count_star()]);
            b.compute_scalar(agg, vec![Expr::lit(0i64)])
        }
        Spec::HashJoin(l, r, kind) => {
            let lc = build(b, ctx, l, depth + 1);
            let rc = build(b, ctx, r, depth + 1);
            b.hash_join(*kind, lc, rc, vec![1], vec![1])
        }
        Spec::MergeJoinSorted(l, r) => {
            let lc = build(b, ctx, l, depth + 1);
            let rc = build(b, ctx, r, depth + 1);
            let ls = b.sort(lc, vec![SortKey::asc(1)]);
            let rs = b.sort(rc, vec![SortKey::asc(1)]);
            b.merge_join(JoinKind::Inner, ls, rs, vec![1], vec![1])
        }
        Spec::NestedLoopsSeek { outer, buffered } => {
            let oc = build(b, ctx, outer, depth + 1);
            let seek = b.index_seek(ctx.index, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
            b.nested_loops(
                JoinKind::Inner,
                oc,
                seek,
                None,
                if *buffered { 4096 } else { 1 },
            )
        }
        Spec::NestedLoopsSpool { outer } => {
            let oc = build(b, ctx, outer, depth + 1);
            let scan = b.table_scan(ctx.small);
            let spool = b.spool(scan, true);
            b.nested_loops(
                JoinKind::Inner,
                oc,
                spool,
                Some(Expr::col(1).eq(Expr::col(1))),
                1,
            )
        }
        Spec::Exchange(inner) => {
            let c = build(b, ctx, inner, depth + 1);
            b.exchange(c, ExchangeKind::GatherStreams, 4)
        }
        Spec::Concat(l, r) => {
            let lc = build(b, ctx, l, depth + 1);
            let rc = build(b, ctx, r, depth + 1);
            let lp = project2(b, lc);
            let rp = project2(b, rc);
            b.add(lqs_plan::PhysicalOp::Concat, vec![lp, rp])
        }
    }
}

/// Canonical two-column projection for Concat arity matching.
fn project2(b: &mut PlanBuilder, c: NodeId) -> NodeId {
    b.hash_aggregate(c, vec![0], vec![Aggregate::of_col(AggFunc::Count, 1)])
}

/// The spec built into a finished plan over `ctx`'s database.
pub fn plan_of(ctx: &Ctx, spec: &Spec) -> PhysicalPlan {
    let mut b = PlanBuilder::new(&ctx.db);
    let root = build(&mut b, ctx, spec, 0);
    b.finish(root)
}

/// Production options at the given batch size.
pub fn opts(batch_size: usize) -> ExecOptions {
    ExecOptions {
        batch_size,
        ..ExecOptions::default()
    }
}

/// Counter rows with `first_row_ns` masked: it is stamped when the
/// producing scope settles, which lands later on the virtual clock the more
/// rows the scope covers — the one counter that depends on the batch size.
pub fn masked(counters: &[NodeCounters]) -> Vec<NodeCounters> {
    counters
        .iter()
        .cloned()
        .map(|mut c| {
            c.first_row_ns = None;
            c
        })
        .collect()
}
