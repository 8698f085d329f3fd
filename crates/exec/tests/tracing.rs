//! End-to-end tracing: a traced run emits a complete, well-ordered event
//! stream and changes nothing about the run itself; the JSONL export
//! rebuilds to the same stream and the Chrome export renders it as spans.

use lqs_exec::trace::{
    to_chrome_trace, to_chrome_trace_with_drops, to_jsonl, EventKind, RingBufferSink, TraceEvent,
};
use lqs_exec::{execute, execute_traced, plan_node_names, ExecOptions};
use lqs_plan::{AggFunc, Aggregate, Expr, JoinKind, NodeId, PlanBuilder, SortKey};
use lqs_storage::{Column, DataType, Database, Schema, Table, TableId, Value};

fn db() -> (Database, TableId, TableId) {
    let mut fact = Table::new(
        "fact",
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Int),
        ]),
    );
    for i in 0..4000 {
        fact.insert(vec![Value::Int(i % 200), Value::Int(i)])
            .unwrap();
    }
    let mut dim = Table::new(
        "dim",
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("name", DataType::Int),
        ]),
    );
    for i in 0..200 {
        dim.insert(vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
    }
    let mut db = Database::new();
    let f = db.add_table_analyzed(fact);
    let d = db.add_table_analyzed(dim);
    (db, f, d)
}

/// A plan exercising the traced behaviours: hash join (build → probe),
/// sort (blocking → emit), filter, and aggregation.
fn traced_run() -> (lqs_plan::PhysicalPlan, lqs_exec::QueryRun, Vec<TraceEvent>) {
    let (db, f, d) = db();
    let mut b = PlanBuilder::new(&db);
    let dim_scan = b.table_scan(d);
    let fact_scan = b.table_scan_filtered(f, Expr::col(1).lt(Expr::lit(3000i64)), true);
    let join = b.hash_join(JoinKind::Inner, dim_scan, fact_scan, vec![0], vec![0]);
    let agg = b.hash_aggregate(join, vec![0], vec![Aggregate::of_col(AggFunc::Sum, 3)]);
    let sort = b.sort(agg, vec![SortKey::desc(1)]);
    let plan = b.finish(sort);
    let sink = RingBufferSink::new(1 << 16);
    let run = execute_traced(&db, &plan, &ExecOptions::default(), &sink);
    (plan, run, sink.into_events())
}

#[test]
fn events_are_time_ordered_and_spans_well_formed() {
    let (plan, run, events) = traced_run();
    assert!(!events.is_empty());
    for w in events.windows(2) {
        assert!(w[0].ts_ns <= w[1].ts_ns, "events out of order");
    }

    // Per node: open ≤ first_row ≤ close, and each lifecycle stage present
    // for every operator that produced rows.
    for node in 0..plan.len() {
        let of = |kind: &EventKind| {
            events
                .iter()
                .find(|e| e.node.map(|n| n.0) == Some(node) && &e.kind == kind)
                .map(|e| e.ts_ns)
        };
        let open = of(&EventKind::OperatorOpen).expect("every node opens");
        let close = of(&EventKind::OperatorClose).expect("every node closes");
        assert!(open <= close, "node {node}: open {open} > close {close}");
        if run.final_counters[node].rows_output > 0 {
            let first = of(&EventKind::OperatorFirstRow).expect("produced rows");
            assert!(open <= first && first <= close, "node {node} span violated");
        }
        // Event stamps agree with the counters' own lifecycle stamps.
        assert_eq!(run.final_counters[node].open_ns, Some(open));
        assert_eq!(run.final_counters[node].close_ns, Some(close));
    }
}

#[test]
fn phase_transitions_cover_blocking_operators() {
    let (_plan, _run, events) = traced_run();
    let phases: Vec<(&str, &str)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::PhaseTransition { from, to } => Some((from.as_str(), to.as_str())),
            _ => None,
        })
        .collect();
    assert!(
        phases.contains(&("build", "probe")),
        "hash join phases: {phases:?}"
    );
    assert!(
        phases.contains(&("blocking", "emit")),
        "sort/agg phases: {phases:?}"
    );
}

#[test]
fn snapshot_ticks_match_recorded_snapshots() {
    let (_plan, run, events) = traced_run();
    let ticks: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SnapshotTick { index } => Some(index),
            _ => None,
        })
        .collect();
    // One tick per recorded snapshot (no thinning in a run this short),
    // indices consecutive from zero, stamps matching the DMV trace.
    assert_eq!(ticks.len(), run.snapshots.len());
    for (i, &idx) in ticks.iter().enumerate() {
        assert_eq!(idx, i as u64);
    }
    let tick_ts: Vec<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SnapshotTick { .. }))
        .map(|e| e.ts_ns)
        .collect();
    for (tick, snap) in tick_ts.iter().zip(&run.snapshots) {
        assert_eq!(*tick, snap.ts_ns);
    }
}

#[test]
fn tracing_does_not_change_the_run() {
    let (db, f, d) = db();
    let mut b = PlanBuilder::new(&db);
    let dim_scan = b.table_scan(d);
    let fact_scan = b.table_scan(f);
    let join = b.hash_join(JoinKind::Inner, dim_scan, fact_scan, vec![0], vec![0]);
    let plan = b.finish(join);

    let plain = execute(&db, &plan, &ExecOptions::default());
    let sink = RingBufferSink::new(1 << 14);
    let traced = execute_traced(&db, &plan, &ExecOptions::default(), &sink);

    assert_eq!(plain.rows_returned, traced.rows_returned);
    assert_eq!(plain.duration_ns, traced.duration_ns);
    assert_eq!(plain.snapshots.len(), traced.snapshots.len());
    for (a, b) in plain.final_counters.iter().zip(&traced.final_counters) {
        assert_eq!(a.rows_output, b.rows_output);
        assert_eq!(a.cpu_ns, b.cpu_ns);
        assert_eq!(a.logical_reads, b.logical_reads);
    }
}

#[test]
fn real_trace_exports_cleanly() {
    let (plan, _run, events) = traced_run();
    let names = plan_node_names(&plan);

    let jsonl = to_jsonl(&events, &names);
    assert_eq!(from_jsonl(&jsonl).unwrap(), events);

    let chrome = to_chrome_trace(&events, &names);
    let parsed = serde_json::from_str(&chrome).expect("valid chrome trace JSON");
    let trace_events = parsed["traceEvents"].as_array().unwrap();
    assert!(!trace_events.is_empty());
    for ev in trace_events {
        assert_eq!(ev["ph"], "X");
        assert!(ev["ts"].as_f64().is_some());
        assert!(ev["dur"].as_f64().is_some());
        assert!(ev["name"].as_str().is_some());
    }
}

// ---- Exporters over a fixed stream --------------------------------------

/// Reparse a [`to_jsonl`] export: the oracle for its loss-free claim. Blank
/// lines are skipped; any malformed line aborts with a message naming the
/// 1-based line number.
fn from_jsonl(s: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let get_u64 = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(serde_json::Value::as_u64)
                .ok_or_else(|| format!("line {}: missing/invalid \"{key}\"", lineno + 1))
        };
        let get_str = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(serde_json::Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("line {}: missing/invalid \"{key}\"", lineno + 1))
        };
        let kind = match get_str("kind")?.as_str() {
            "operator_open" => EventKind::OperatorOpen,
            "operator_first_row" => EventKind::OperatorFirstRow,
            "operator_close" => EventKind::OperatorClose,
            "phase_transition" => EventKind::PhaseTransition {
                from: get_str("from")?,
                to: get_str("to")?,
            },
            "buffer_high_water" => EventKind::BufferHighWater {
                rows: get_u64("rows")?,
            },
            "bitmap_built" => EventKind::BitmapBuilt {
                keys: get_u64("keys")?,
            },
            "snapshot_tick" => EventKind::SnapshotTick {
                index: get_u64("index")?,
            },
            "operator_batch" => EventKind::OperatorBatch {
                start_ns: get_u64("start_ns")?,
                rows_in: get_u64("rows_in")?,
                rows_out: get_u64("rows_out")?,
            },
            other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
        };
        events.push(TraceEvent {
            ts_ns: get_u64("ts_ns")?,
            node: v
                .get("node")
                .and_then(serde_json::Value::as_u64)
                .map(|n| NodeId(n as usize)),
            kind,
        });
    }
    Ok(events)
}

fn sample_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent {
            ts_ns: 0,
            node: Some(NodeId(0)),
            kind: EventKind::OperatorOpen,
        },
        TraceEvent {
            ts_ns: 10,
            node: Some(NodeId(1)),
            kind: EventKind::OperatorOpen,
        },
        TraceEvent {
            ts_ns: 500,
            node: Some(NodeId(1)),
            kind: EventKind::PhaseTransition {
                from: "build".into(),
                to: "probe".into(),
            },
        },
        TraceEvent {
            ts_ns: 510,
            node: Some(NodeId(1)),
            kind: EventKind::BitmapBuilt { keys: 42 },
        },
        TraceEvent {
            ts_ns: 520,
            node: Some(NodeId(1)),
            kind: EventKind::OperatorFirstRow,
        },
        TraceEvent {
            ts_ns: 600,
            node: None,
            kind: EventKind::SnapshotTick { index: 0 },
        },
        TraceEvent {
            ts_ns: 700,
            node: Some(NodeId(2)),
            kind: EventKind::BufferHighWater { rows: 64 },
        },
        TraceEvent {
            ts_ns: 800,
            node: Some(NodeId(1)),
            kind: EventKind::OperatorBatch {
                start_ns: 520,
                rows_in: 1024,
                rows_out: 512,
            },
        },
        TraceEvent {
            ts_ns: 900,
            node: Some(NodeId(1)),
            kind: EventKind::OperatorClose,
        },
        TraceEvent {
            ts_ns: 950,
            node: Some(NodeId(0)),
            kind: EventKind::OperatorClose,
        },
    ]
}

#[test]
fn jsonl_round_trips() {
    let events = sample_events();
    let names = vec!["Gather".into(), "Hash Join".into(), "Exchange".into()];
    let text = to_jsonl(&events, &names);
    assert_eq!(from_jsonl(&text).unwrap(), events);
    // Also loss-free without labels.
    assert_eq!(from_jsonl(&to_jsonl(&events, &[])).unwrap(), events);
}

#[test]
fn jsonl_rejects_garbage() {
    assert!(from_jsonl("{\"ts_ns\": 1}").is_err());
    assert!(from_jsonl("not json").is_err());
    assert!(from_jsonl("{\"ts_ns\": 1, \"kind\": \"nope\"}").is_err());
}

#[test]
fn chrome_trace_is_valid_and_complete() {
    let events = sample_events();
    let names = vec!["Gather".into(), "Hash Join".into(), "Exchange".into()];
    let text = to_chrome_trace(&events, &names);
    let parsed = serde_json::from_str(&text).expect("valid JSON");
    let trace_events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!trace_events.is_empty());
    for ev in trace_events {
        assert_eq!(ev["ph"], "X");
        assert!(ev["ts"].as_f64().is_some(), "missing ts: {}", ev.to_json());
        assert!(
            ev["dur"].as_f64().is_some(),
            "missing dur: {}",
            ev.to_json()
        );
        assert!(ev["name"].as_str().is_some(), "missing name");
    }
    // The hash join's build phase spans open(10) → transition(500):
    // 0.01 µs → 0.49 µs.
    let build = trace_events
        .iter()
        .find(|e| e["name"] == "Hash Join: build")
        .expect("build phase span");
    assert!((build["ts"].as_f64().unwrap() - 0.01).abs() < 1e-9);
    assert!((build["dur"].as_f64().unwrap() - 0.49).abs() < 1e-9);
    // The probe phase runs transition(500) → close(900).
    let probe = trace_events
        .iter()
        .find(|e| e["name"] == "Hash Join: probe")
        .expect("probe phase span");
    assert!((probe["dur"].as_f64().unwrap() - 0.4).abs() < 1e-9);
    // Virtual ns → trace µs on the full operator span (10..900 ns).
    let join = trace_events
        .iter()
        .find(|e| e["name"] == "Hash Join")
        .expect("operator span");
    assert!((join["dur"].as_f64().unwrap() - 0.89).abs() < 1e-9);
}

#[test]
fn chrome_trace_closes_dangling_spans() {
    // Open with no close: the exporter must still emit a span.
    let events = vec![
        TraceEvent {
            ts_ns: 100,
            node: Some(NodeId(0)),
            kind: EventKind::OperatorOpen,
        },
        TraceEvent {
            ts_ns: 400,
            node: None,
            kind: EventKind::SnapshotTick { index: 0 },
        },
    ];
    let text = to_chrome_trace(&events, &[]);
    let parsed = serde_json::from_str(&text).unwrap();
    let spans = parsed["traceEvents"].as_array().unwrap();
    let op = spans.iter().find(|e| e["name"] == "node0").unwrap();
    assert!((op["dur"].as_f64().unwrap() - 0.3).abs() < 1e-9);
}

#[test]
fn chrome_trace_surfaces_drops() {
    let text = to_chrome_trace_with_drops(&sample_events(), &[], 5);
    let parsed = serde_json::from_str(&text).unwrap();
    let spans = parsed["traceEvents"].as_array().unwrap();
    let warn = spans
        .iter()
        .find(|e| {
            e["name"]
                .as_str()
                .is_some_and(|n| n.starts_with("trace truncated"))
        })
        .expect("truncation warning span");
    assert_eq!(warn["args"]["dropped"].as_u64(), Some(5));
    // The lossless path emits no warning.
    let clean = to_chrome_trace_with_drops(&sample_events(), &[], 0);
    assert!(!clean.contains("trace truncated"));
    assert_eq!(clean, to_chrome_trace(&sample_events(), &[]));
}

#[test]
fn batch_spans_render_with_duration_and_rows() {
    let events = sample_events();
    let names = vec!["Gather".into(), "Hash Join".into(), "Exchange".into()];
    let text = to_chrome_trace(&events, &names);
    let parsed = serde_json::from_str(&text).unwrap();
    let spans = parsed["traceEvents"].as_array().unwrap();
    let batch = spans
        .iter()
        .find(|e| e["name"] == "Hash Join batch")
        .expect("batch span");
    // 520 → 800 ns = 0.28 µs, starting at 0.52 µs.
    assert!((batch["ts"].as_f64().unwrap() - 0.52).abs() < 1e-9);
    assert!((batch["dur"].as_f64().unwrap() - 0.28).abs() < 1e-9);
    assert_eq!(batch["args"]["rows_in"].as_u64(), Some(1024));
    assert_eq!(batch["args"]["rows_out"].as_u64(), Some(512));
}

#[test]
fn rewind_splits_executions() {
    let events = vec![
        TraceEvent {
            ts_ns: 0,
            node: Some(NodeId(0)),
            kind: EventKind::OperatorOpen,
        },
        TraceEvent {
            ts_ns: 100,
            node: Some(NodeId(0)),
            kind: EventKind::OperatorOpen, // rewind
        },
        TraceEvent {
            ts_ns: 250,
            node: Some(NodeId(0)),
            kind: EventKind::OperatorClose,
        },
    ];
    let text = to_chrome_trace(&events, &[]);
    let parsed = serde_json::from_str(&text).unwrap();
    let spans = parsed["traceEvents"].as_array().unwrap();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0]["name"], "node0");
    assert!((spans[0]["dur"].as_f64().unwrap() - 0.1).abs() < 1e-9);
    assert_eq!(spans[1]["name"], "node0 (exec 2)");
    assert!((spans[1]["dur"].as_f64().unwrap() - 0.15).abs() < 1e-9);
}
