//! The open / exhaust / close / rewind contract, checked where it lives:
//! one small plan per `PhysicalOp` variant, its root built through
//! `build_operator` and driven at `limit` 1, 7 and 1024.
//!
//! For every operator: a `false` return appended nothing; `close_ns` is
//! stamped on the first `false`, and every later call returns `false`,
//! appends nothing and charges nothing; `rewind()` clears `close_ns`, counts
//! one more execution and yields the same rows again (sort and spool from
//! their buffer, without re-executing the child); `close()` does not move a
//! close time already stamped.

use lqs_exec::{build_operator, BoxedOperator, ExecContext, NodeCounters, RowBatch};
use lqs_plan::{
    AggFunc, Aggregate, CostModel, ExchangeKind, Expr, IndexOutput, JoinKind, NodeId, PhysicalOp,
    PlanBuilder, SeekKey, SeekRange, SortKey,
};
use lqs_storage::{
    Column, ColumnstoreId, DataType, Database, IndexId, Row, Schema, Table, TableId, Value,
};
use PhysicalOp as P;

const ROWS: i64 = 40;

struct Fixture {
    db: Database,
    t: TableId,
    /// Unique index on `a`.
    ix_a: IndexId,
    /// Index on `b` (ten distinct values).
    ix_b: IndexId,
    cs: ColumnstoreId,
}

fn fixture() -> Fixture {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("c", DataType::Int),
        ]),
    );
    for i in 0..ROWS {
        t.insert(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i % 3)])
            .unwrap();
    }
    let mut db = Database::new();
    let t = db.add_table_analyzed(t);
    let ix_a = db.create_btree_index("ix_a", t, vec![0]);
    let ix_b = db.create_btree_index("ix_b", t, vec![1]);
    let cs = db.create_columnstore_index("cs", t);
    Fixture {
        db,
        t,
        ix_a,
        ix_b,
        cs,
    }
}

/// One operator under test: the root of the plan `build` returns.
struct Case {
    name: &'static str,
    /// Rows the root yields per pass.
    rows: usize,
    build: fn(&mut PlanBuilder, &Fixture) -> NodeId,
}

fn by(col: usize) -> Vec<SortKey> {
    vec![SortKey::asc(col)]
}

fn few() -> Vec<Vec<Value>> {
    (0..5).map(|v| vec![Value::Int(v)]).collect()
}

fn cases() -> Vec<Case> {
    let case = |name, rows, build| Case { name, rows, build };
    vec![
        case("Table Scan", 40, |b, f| b.table_scan(f.t)),
        case("Index Scan", 40, |b, f| b.index_scan(f.ix_b)),
        case("Columnstore Index Scan", 40, |b, f| {
            b.columnstore_scan(f.cs, None)
        }),
        case("Constant Scan", 5, |b, _| b.constant_scan(few())),
        case("Index Seek", 4, |b, f| {
            b.index_seek(f.ix_b, SeekRange::eq(vec![SeekKey::Lit(Value::Int(7))]))
        }),
        case("RID Lookup", 4, |b, f| {
            let seek = b.add(
                PhysicalOp::IndexSeek {
                    index: f.ix_b,
                    seek: SeekRange::eq(vec![SeekKey::Lit(Value::Int(7))]),
                    residual: None,
                    output: IndexOutput::KeyAndRid,
                },
                vec![],
            );
            b.add(PhysicalOp::RidLookup { table: f.t }, vec![seek])
        }),
        case("Filter", 25, |b, f| {
            let scan = b.table_scan(f.t);
            b.filter(scan, Expr::col(0).lt(Expr::lit(25i64)))
        }),
        case("Compute Scalar", 40, |b, f| {
            let scan = b.table_scan(f.t);
            b.compute_scalar(scan, vec![Expr::col(1)])
        }),
        case("Top", 13, |b, f| {
            let scan = b.table_scan(f.t);
            b.add(PhysicalOp::Top { n: 13 }, vec![scan])
        }),
        case("Segment", 40, |b, f| {
            let scan = b.index_scan(f.ix_b);
            b.add(PhysicalOp::Segment { group_by: vec![1] }, vec![scan])
        }),
        case("Sort", 40, |b, f| {
            let scan = b.table_scan(f.t);
            b.sort(scan, by(1))
        }),
        case("Top N Sort", 9, |b, f| {
            let scan = b.table_scan(f.t);
            b.top_n_sort(scan, 9, by(1))
        }),
        case("Distinct Sort", 10, |b, f| {
            let scan = b.table_scan(f.t);
            b.add(PhysicalOp::DistinctSort { keys: by(1) }, vec![scan])
        }),
        case("Stream Aggregate", 10, |b, f| {
            let scan = b.index_scan(f.ix_b);
            b.stream_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)])
        }),
        case("Hash Aggregate", 10, |b, f| {
            let scan = b.table_scan(f.t);
            b.hash_aggregate(scan, vec![1], vec![Aggregate::count_star()])
        }),
        case("Hash Join", 20, |b, f| {
            let build = b.constant_scan(few());
            let probe = b.table_scan(f.t);
            b.hash_join(JoinKind::Inner, build, probe, vec![0], vec![1])
        }),
        case("Merge Join", 40, |b, f| {
            let left = b.index_scan(f.ix_a);
            let right = b.index_scan(f.ix_a);
            b.merge_join(JoinKind::Inner, left, right, vec![0], vec![0])
        }),
        case("Nested Loops", 20, |b, f| {
            let outer = b.constant_scan(few());
            let inner = b.index_seek(f.ix_b, SeekRange::eq(vec![SeekKey::OuterRef(0)]));
            b.nested_loops(JoinKind::Inner, outer, inner, None, 1)
        }),
        case("Parallelism", 40, |b, f| {
            let scan = b.table_scan(f.t);
            b.exchange(scan, ExchangeKind::GatherStreams, 4)
        }),
        case("Table Spool (eager)", 40, |b, f| {
            let scan = b.table_scan(f.t);
            b.spool(scan, false)
        }),
        case("Table Spool (lazy)", 40, |b, f| {
            let scan = b.table_scan(f.t);
            b.spool(scan, true)
        }),
        case("Concatenation", 80, |b, f| {
            let children = vec![b.table_scan(f.t), b.table_scan(f.t)];
            b.add(PhysicalOp::Concat, children)
        }),
        case("Bitmap Create", 40, |b, f| {
            let bitmap = b.new_bitmap();
            let scan = b.table_scan(f.t);
            let op = PhysicalOp::BitmapCreate {
                key_columns: vec![0],
                bitmap,
            };
            b.add(op, vec![scan])
        }),
    ]
}

/// Clock and every node's counters: what a call that does no work leaves
/// untouched.
fn state(ctx: &ExecContext, nodes: usize) -> (u64, Vec<NodeCounters>) {
    let counters = (0..nodes).map(|n| ctx.counters_of(NodeId(n))).collect();
    (ctx.now_ns(), counters)
}

fn check(f: &Fixture, case: &Case, limit: usize) {
    let at = format!("{} at limit {limit}", case.name);
    let mut b = PlanBuilder::new(&f.db);
    let root = (case.build)(&mut b, f);
    let plan = b.finish(root);
    let ctx = ExecContext::new(&f.db, plan.len(), 1, 1_000, CostModel::default());
    let mut op = build_operator(&plan, &f.db, root);
    let mut out = RowBatch::default();

    // One pass: drive to the first `false`, checking every call.
    let pass = |op: &mut BoxedOperator, out: &mut RowBatch| -> Vec<Row> {
        let mut rows = Vec::new();
        loop {
            assert_eq!(ctx.counters_of(root).close_ns, None, "{at}: closed early");
            let more = op.next_batch(&ctx, out, limit);
            assert_eq!(more, !out.is_empty(), "{at}: `true` iff rows appended");
            assert!(out.len() <= limit, "{at}: {} rows appended", out.len());
            if !more {
                return rows;
            }
            rows.extend(std::iter::from_fn(|| out.pop_front()));
        }
    };

    op.open(&ctx);
    let opened = ctx.counters_of(root);
    assert_eq!((opened.open_ns, opened.executions), (Some(0), 1), "{at}");
    let first = pass(&mut op, &mut out);
    assert_eq!(first.len(), case.rows, "{at}: rows in the first pass");

    // Stamped on the first `false`, at the clock of that call; exhausted
    // calls after it do nothing at all.
    let exhausted = state(&ctx, plan.len());
    assert_eq!(
        exhausted.1[root.0].close_ns,
        Some(exhausted.0),
        "{at}: close stamp"
    );
    for _ in 0..3 {
        assert!(!op.next_batch(&ctx, &mut out, limit), "{at}: came back");
        assert!(out.is_empty(), "{at}: an exhausted call appended rows");
        assert_eq!(
            state(&ctx, plan.len()),
            exhausted,
            "{at}: exhausted call charged"
        );
    }

    op.rewind(&ctx);
    let rewound = ctx.counters_of(root);
    assert_eq!(rewound.close_ns, None, "{at}: rewind re-opens");
    assert_eq!(rewound.executions, 2, "{at}: rewind is one more execution");
    assert_eq!(
        rewound.open_ns,
        Some(0),
        "{at}: open time is the first open"
    );
    let second = pass(&mut op, &mut out);
    assert_eq!(second, first, "{at}: second pass differs");
    // Sorts and spools replay their buffer: the child does not run again.
    let node = plan.node(root);
    if let P::Sort { .. } | P::TopNSort { .. } | P::DistinctSort { .. } | P::Spool { .. } = node.op
    {
        let child = ctx.counters_of(node.children[0]);
        assert_eq!(child.executions, 1, "{at}: child re-ran");
    }

    // `close()` closes the children and keeps the close time the operator
    // earned by exhausting.
    let stamped = ctx.counters_of(root).close_ns;
    assert!(stamped.is_some(), "{at}: second pass not stamped");
    op.close(&ctx);
    assert_eq!(
        ctx.counters_of(root).close_ns,
        stamped,
        "{at}: close moved it"
    );
    for n in 0..plan.len() {
        let c = ctx.counters_of(NodeId(n));
        assert!(
            c.close_ns.is_some() || c.open_ns.is_none(),
            "{at}: node {n}"
        );
    }
}

#[test]
fn every_physical_op_variant_has_a_case() {
    let f = fixture();
    let mut variants = Vec::new();
    for case in cases() {
        let mut b = PlanBuilder::new(&f.db);
        let root = (case.build)(&mut b, &f);
        let variant = std::mem::discriminant(&b.finish(root).node(root).op);
        if !variants.contains(&variant) {
            variants.push(variant);
        }
    }
    // The 22 arms of `build_operator`; a 23rd operator adds its case here.
    assert_eq!(variants.len(), 22);
}

#[test]
fn lifecycle_contract_holds_for_every_operator_at_every_limit() {
    let f = fixture();
    for case in cases() {
        for limit in [1, 7, 1024] {
            check(&f, &case, limit);
        }
    }
}
