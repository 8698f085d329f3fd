//! Edge-case integration tests for individual operators running inside full
//! plans: empty inputs, early termination, KeyAndRid + RID-lookup paths,
//! segment markers, bitmap probes on secondary indexes, and stream
//! aggregation over merge-join output.

use lqs_exec::{execute, ExecOptions};
use lqs_plan::{
    AggFunc, Aggregate, Expr, IndexOutput, JoinKind, PhysicalOp, PlanBuilder, SeekKey, SeekRange,
    SortKey,
};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};

fn db(rows: i64) -> (Database, TableId) {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
            Column::new("c", DataType::Int),
        ]),
    );
    for i in 0..rows {
        t.insert(vec![Value::Int(i), Value::Int(i % 10), Value::Int(i % 3)])
            .unwrap();
    }
    let mut d = Database::new();
    let id = d.add_table_analyzed(t);
    (d, id)
}

#[test]
fn key_and_rid_plus_rid_lookup_reconstructs_rows() {
    let (mut d, t) = db(3000);
    let ix = d.create_btree_index("ix_b", t, vec![1], false);
    let mut b = PlanBuilder::new(&d);
    // Nonclustered seek emitting (key, rid), then a RID lookup to the heap.
    let seek = b.add(
        PhysicalOp::IndexSeek {
            index: ix,
            seek: SeekRange::eq(vec![SeekKey::Lit(Value::Int(7))]),
            residual: None,
            output: IndexOutput::KeyAndRid,
        },
        vec![],
    );
    let lookup = b.add(PhysicalOp::RidLookup { table: t }, vec![seek]);
    let plan = b.finish(lookup);
    let run = execute(&d, &plan, &ExecOptions::default());
    assert_eq!(run.rows_returned, 300);
    // The lookup charged one random read per row.
    assert_eq!(run.final_counters[lookup.0].logical_reads, 300);
    // Seek emitted key+rid (2 columns), lookup reconstructed 3 columns.
    assert_eq!(plan.node(seek).output_arity, 2);
    assert_eq!(plan.node(lookup).output_arity, 3);
}

#[test]
fn top_stops_pulling_early() {
    let (d, t) = db(50_000);
    let mut b = PlanBuilder::new(&d);
    let scan = b.table_scan(t);
    let top = b.add(PhysicalOp::Top { n: 10 }, vec![scan]);
    let plan = b.finish(top);
    let run = execute(&d, &plan, &ExecOptions::default());
    assert_eq!(run.rows_returned, 10);
    // The scan must NOT have read the whole table.
    assert!(
        run.final_counters[scan.0].rows_output < 100,
        "scan read {} rows under a Top(10)",
        run.final_counters[scan.0].rows_output
    );
}

#[test]
fn segment_marks_group_boundaries() {
    let (mut d, t) = db(100);
    let ix = d.create_btree_index("ix_b", t, vec![1], false);
    let mut b = PlanBuilder::new(&d);
    let scan = b.index_scan(ix); // ordered by b
    let seg = b.add(PhysicalOp::Segment { group_by: vec![1] }, vec![scan]);
    // Count boundary markers: 10 distinct values of b → 10 ones.
    let flag_col = plan_arity(&b, seg) - 1;
    let agg = b.stream_aggregate(seg, vec![], vec![Aggregate::of_col(AggFunc::Sum, flag_col)]);
    let plan = b.finish(agg);
    let run = execute(&d, &plan, &ExecOptions::default());
    assert_eq!(run.rows_returned, 1);
    // (The sum itself isn't visible from counters; the executed row count
    // confirms the plan ran. Verify the marker semantics directly:)
    let ctx =
        lqs_exec::ExecContext::new(&d, plan.len(), 0, u64::MAX, lqs_plan::CostModel::default());
    let mut seg_op = lqs_exec::build_operator(&plan, &d, seg);
    seg_op.open(&ctx);
    let mut batch = lqs_exec::RowBatch::default();
    while seg_op.next_batch(&ctx, &mut batch, 64) {}
    let boundaries = batch
        .iter()
        .filter(|row| row[flag_col] == Value::Int(1))
        .count();
    assert_eq!(boundaries, 10);
}

fn plan_arity(_b: &PlanBuilder, _n: lqs_plan::NodeId) -> usize {
    // segment output = 3 base columns + marker
    4
}

#[test]
fn bitmap_probe_on_index_scan() {
    let (mut d, t) = db(5000);
    let ix = d.create_btree_index("ix_a", t, vec![0], true);
    let mut b = PlanBuilder::new(&d);
    let bitmap = b.new_bitmap();
    // Build side: 10% of rows.
    let build = b.table_scan_filtered(t, Expr::col(1).eq(Expr::lit(4i64)), true);
    let bc = b.add(
        PhysicalOp::BitmapCreate {
            key_columns: vec![0],
            bitmap,
        },
        vec![build],
    );
    // Probe side: full index scan with the bitmap pushed in.
    let probe = b.add(
        PhysicalOp::IndexScan {
            index: ix,
            predicate: None,
            pushed_to_storage: true,
            bitmap_probe: Some(lqs_plan::BitmapProbe {
                bitmap,
                key_columns: vec![0],
            }),
            output: IndexOutput::BaseRow,
        },
        vec![],
    );
    let join = b.hash_join(JoinKind::Inner, bc, probe, vec![0], vec![0]);
    let plan = b.finish(join);
    let run = execute(&d, &plan, &ExecOptions::default());
    // Exactly the 500 matching rows join; the bitmap pre-filtered the scan's
    // output to (roughly) those — Bloom false positives allowed.
    assert_eq!(run.rows_returned, 500);
    let scan_out = run.final_counters[probe.0].rows_output;
    assert!(
        (500..1000).contains(&(scan_out as i64)),
        "bitmap-probed scan emitted {scan_out}"
    );
    // But it still read the whole index (storage predicate: I/O unchanged).
    assert!(run.final_counters[probe.0].logical_reads as usize >= d.btree(ix).leaf_count());
}

#[test]
fn merge_join_feeds_stream_aggregate() {
    let (mut d, t) = db(2000);
    let ix = d.create_btree_index("ix_a", t, vec![0], true);
    let mut b = PlanBuilder::new(&d);
    let l = b.index_scan(ix);
    let r = b.index_scan(ix);
    let m = b.merge_join(JoinKind::Inner, l, r, vec![0], vec![0]);
    let agg = b.stream_aggregate(m, vec![0], vec![Aggregate::count_star()]);
    let plan = b.finish(agg);
    let run = execute(&d, &plan, &ExecOptions::default());
    // Self-join on a unique key: one group per row.
    assert_eq!(run.rows_returned, 2000);
}

#[test]
fn empty_table_flows_through_whole_stack() {
    let (d, t) = db(0);
    let mut b = PlanBuilder::new(&d);
    let scan = b.table_scan(t);
    let sort = b.sort(scan, vec![SortKey::asc(0)]);
    let agg = b.hash_aggregate(sort, vec![1], vec![Aggregate::count_star()]);
    let plan = b.finish(agg);
    let run = execute(&d, &plan, &ExecOptions::default());
    assert_eq!(run.rows_returned, 0);
}

#[test]
fn concat_of_filtered_branches() {
    let (d, t) = db(1000);
    let mut b = PlanBuilder::new(&d);
    let lo = b.table_scan_filtered(t, Expr::col(0).lt(Expr::lit(100i64)), true);
    let hi = b.table_scan_filtered(t, Expr::col(0).ge(Expr::lit(900i64)), true);
    let cat = b.add(PhysicalOp::Concat, vec![lo, hi]);
    let plan = b.finish(cat);
    let run = execute(&d, &plan, &ExecOptions::default());
    assert_eq!(run.rows_returned, 200);
}

#[test]
fn lazy_spool_replays_for_every_outer_row() {
    let (d, t) = db(500);
    let mut small = Table::new("s", Schema::new(vec![Column::new("x", DataType::Int)]));
    for i in 0..5i64 {
        small.insert(vec![Value::Int(i)]).unwrap();
    }
    let mut d = d;
    let s = d.add_table_analyzed(small);
    let mut b = PlanBuilder::new(&d);
    let outer = b.table_scan(s);
    let inner_scan = b.table_scan_filtered(t, Expr::col(1).eq(Expr::lit(0i64)), true);
    let spool = b.spool(inner_scan, true);
    let nl = b.nested_loops(JoinKind::Inner, outer, spool, None, 1);
    let plan = b.finish(nl);
    let run = execute(&d, &plan, &ExecOptions::default());
    // 5 outer rows × 50 spooled rows.
    assert_eq!(run.rows_returned, 250);
    // The expensive inner scan executed once; the spool replayed 5 times.
    assert_eq!(run.final_counters[inner_scan.0].executions, 1);
    assert_eq!(run.final_counters[spool.0].executions, 5);
    assert_eq!(run.final_counters[spool.0].rows_output, 250);
}
