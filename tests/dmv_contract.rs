//! Cross-crate contract tests on the DMV counter surface: every property
//! the progress estimator relies on must hold for every query of every
//! workload at smoke scale.

use lqs::exec::ExecOptions;
use lqs::workloads::{standard_five, WorkloadScale};

fn smoke() -> WorkloadScale {
    WorkloadScale {
        data_scale: 0.2,
        query_limit: 4,
        seed: 1234,
    }
}

#[test]
fn counters_are_monotone_and_consistent() {
    for w in standard_five(smoke()) {
        for q in &w.queries {
            let run = lqs::exec::execute(&w.db, &q.plan, &ExecOptions::default());
            for win in run.snapshots.windows(2) {
                for i in 0..q.plan.len() {
                    let a = &win[0].nodes[i];
                    let b = &win[1].nodes[i];
                    assert!(a.rows_output <= b.rows_output, "{}: k not monotone", q.name);
                    assert!(
                        a.rows_input <= b.rows_input,
                        "{}: input not monotone",
                        q.name
                    );
                    assert!(
                        a.logical_reads <= b.logical_reads,
                        "{}: reads not monotone",
                        q.name
                    );
                    assert!(a.cpu_ns <= b.cpu_ns, "{}: cpu not monotone", q.name);
                    assert!(
                        a.segments_processed <= b.segments_processed,
                        "{}: segments not monotone",
                        q.name
                    );
                }
            }
            // Final counters: every node that output rows was opened; closed
            // nodes have close >= open.
            for (i, c) in run.final_counters.iter().enumerate() {
                if c.rows_output > 0 {
                    assert!(c.is_open(), "{} node {i} output rows without open", q.name);
                }
                if let (Some(o), Some(cl)) = (c.open_ns, c.close_ns) {
                    assert!(cl >= o, "{} node {i} closed before open", q.name);
                }
                if let (Some(o), Some(f)) = (c.open_ns, c.first_row_ns) {
                    assert!(f >= o, "{} node {i} first row before open", q.name);
                }
            }
            // Snapshot timestamps strictly increase and stay within the run.
            for win in run.snapshots.windows(2) {
                assert!(win[0].ts_ns < win[1].ts_ns);
            }
            if let Some(last) = run.snapshots.last() {
                assert!(last.ts_ns <= run.duration_ns);
            }
        }
    }
}

#[test]
fn executions_track_nested_loops_rebinds() {
    use lqs::plan::{JoinKind, PlanBuilder, SeekKey, SeekRange};
    use lqs::storage::{Column, DataType, Database, Schema, Table, Value};
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..500i64 {
        t.insert(vec![Value::Int(i), Value::Int(i % 20)]).unwrap();
    }
    let mut db = Database::new();
    let tid = db.add_table_analyzed(t);
    let ix = db.create_btree_index("pk", tid, vec![0]);
    let mut b = PlanBuilder::new(&db);
    let outer = b.table_scan(tid);
    let seek = b.index_seek(ix, SeekRange::eq(vec![SeekKey::OuterRef(1)]));
    let nl = b.nested_loops(JoinKind::Inner, outer, seek, None, 1);
    let plan = b.finish(nl);
    let run = lqs::exec::execute(&db, &plan, &ExecOptions::default());
    // The seek executed once per outer row.
    assert_eq!(run.final_counters[seek.0].executions, 500);
    assert_eq!(run.final_counters[nl.0].rows_processed, 500);
}
