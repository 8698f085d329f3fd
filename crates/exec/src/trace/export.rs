//! Trace exporters: JSONL (loss-free) and Chrome trace-event JSON
//! (loadable in `chrome://tracing` / Perfetto).

use super::sink::{EventKind, TraceEvent};
use lqs_plan::NodeId;
use serde::Value;

fn node_name(names: &[String], node: NodeId) -> String {
    names
        .get(node.0)
        .cloned()
        .unwrap_or_else(|| format!("node{}", node.0))
}

// ---- JSONL --------------------------------------------------------------

/// One JSON object per line per event, carrying every field of the
/// event, so the stream can be rebuilt from the text exactly. `names`
/// labels nodes for human readers (pass `&[]` to skip); a label is an
/// extra field, not a replacement for the node id.
pub fn to_jsonl(events: &[TraceEvent], names: &[String]) -> String {
    let mut out = String::new();
    for e in events {
        let mut fields: Vec<(String, Value)> = vec![
            ("ts_ns".into(), Value::Int(e.ts_ns as i64)),
            ("kind".into(), Value::String(e.kind.tag().into())),
        ];
        if let Some(node) = e.node {
            fields.push(("node".into(), Value::Int(node.0 as i64)));
            if !names.is_empty() {
                fields.push(("name".into(), Value::String(node_name(names, node))));
            }
        }
        match &e.kind {
            EventKind::PhaseTransition { from, to } => {
                fields.push(("from".into(), Value::String(from.clone())));
                fields.push(("to".into(), Value::String(to.clone())));
            }
            EventKind::BufferHighWater { rows } => {
                fields.push(("rows".into(), Value::Int(*rows as i64)));
            }
            EventKind::BitmapBuilt { keys } => {
                fields.push(("keys".into(), Value::Int(*keys as i64)));
            }
            EventKind::SnapshotTick { index } => {
                fields.push(("index".into(), Value::Int(*index as i64)));
            }
            EventKind::OperatorBatch {
                start_ns,
                rows_in,
                rows_out,
            } => {
                fields.push(("start_ns".into(), Value::Int(*start_ns as i64)));
                fields.push(("rows_in".into(), Value::Int(*rows_in as i64)));
                fields.push(("rows_out".into(), Value::Int(*rows_out as i64)));
            }
            EventKind::OperatorOpen | EventKind::OperatorFirstRow | EventKind::OperatorClose => {}
        }
        out.push_str(&Value::Object(fields).to_json());
        out.push('\n');
    }
    out
}

// ---- Chrome trace-event JSON --------------------------------------------

/// Chrome trace-event export. Every emitted event is a `ph: "X"` complete
/// event carrying `ts`/`dur` in microseconds (virtual ns ÷ 1000):
/// operator lifetimes and phases as real spans, point occurrences (first
/// row, high-water marks, bitmap builds, snapshot ticks) as zero-duration
/// spans with details under `args`. Operators render one lane (`tid`) per
/// plan node; query-level events use lane 0.
pub fn to_chrome_trace(events: &[TraceEvent], names: &[String]) -> String {
    to_chrome_trace_with_drops(events, names, 0)
}

/// [`to_chrome_trace`] for a capture that lost `dropped` events to a full
/// ring buffer: the export ends with a zero-duration warning span naming
/// the loss, so a viewer sees the truncation instead of a silently
/// incomplete timeline.
pub fn to_chrome_trace_with_drops(events: &[TraceEvent], names: &[String], dropped: u64) -> String {
    let mut out: Vec<Value> = Vec::new();
    emit_stream(&mut out, events, names);
    if dropped > 0 {
        out.push(Value::Object(vec![
            (
                "name".into(),
                Value::String(format!("trace truncated: {dropped} events dropped")),
            ),
            ("ph".into(), Value::String("X".into())),
            ("pid".into(), Value::Int(0)),
            ("tid".into(), Value::Int(0)),
            ("ts".into(), Value::Float(0.0)),
            ("dur".into(), Value::Float(0.0)),
            (
                "args".into(),
                Value::Object(vec![("dropped".into(), Value::Int(dropped as i64))]),
            ),
        ]));
    }
    Value::Object(vec![
        ("displayTimeUnit".into(), Value::String("ms".into())),
        ("traceEvents".into(), Value::Array(out)),
    ])
    .to_json()
}

/// Emit one event stream's spans into `out`, all under process lane 1
/// (lane 0 holds the truncation warning).
fn emit_stream(out: &mut Vec<Value>, events: &[TraceEvent], names: &[String]) {
    let us = |ns: u64| Value::Float(ns as f64 / 1000.0);
    let end_ts = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    let mut complete = |name: String,
                        node: Option<NodeId>,
                        start_ns: u64,
                        dur_ns: u64,
                        args: Vec<(String, Value)>| {
        let tid = node.map_or(0, |n| n.0 as i64 + 1);
        let mut fields: Vec<(String, Value)> = vec![
            ("name".into(), Value::String(name)),
            ("ph".into(), Value::String("X".into())),
            ("pid".into(), Value::Int(1)),
            ("tid".into(), Value::Int(tid)),
            ("ts".into(), us(start_ns)),
            ("dur".into(), us(dur_ns)),
        ];
        if !args.is_empty() {
            fields.push(("args".into(), Value::Object(args)));
        }
        out.push(Value::Object(fields));
    };

    // Per-node span state: (open ts, execution ordinal, current phase).
    let node_count = events
        .iter()
        .filter_map(|e| e.node.map(|n| n.0 + 1))
        .max()
        .unwrap_or(0);
    let mut open: Vec<Option<u64>> = vec![None; node_count];
    let mut execs: Vec<u64> = vec![0; node_count];
    let mut phase: Vec<Option<(String, u64)>> = vec![None; node_count];

    for e in events {
        let n = e.node;
        let i = n.map(|n| n.0);
        match &e.kind {
            EventKind::OperatorOpen => {
                let i = i.expect("operator event without node");
                // A rewind re-opens without an explicit close: end the
                // previous execution's span here.
                if let Some(start) = open[i].take() {
                    close_span(
                        &mut complete,
                        names,
                        n.unwrap(),
                        start,
                        e.ts_ns,
                        execs[i],
                        &mut phase[i],
                    );
                }
                open[i] = Some(e.ts_ns);
                execs[i] += 1;
            }
            EventKind::OperatorClose => {
                let i = i.expect("operator event without node");
                if let Some(start) = open[i].take() {
                    close_span(
                        &mut complete,
                        names,
                        n.unwrap(),
                        start,
                        e.ts_ns,
                        execs[i],
                        &mut phase[i],
                    );
                }
            }
            EventKind::OperatorFirstRow => {
                let node = n.expect("operator event without node");
                complete(
                    format!("{} first row", node_name(names, node)),
                    n,
                    e.ts_ns,
                    0,
                    vec![],
                );
            }
            EventKind::PhaseTransition { from, to } => {
                let node = n.expect("operator event without node");
                let i = node.0;
                let start = match phase[i].take() {
                    Some((_, start)) => start,
                    None => open[i].unwrap_or(e.ts_ns),
                };
                complete(
                    format!("{}: {from}", node_name(names, node)),
                    n,
                    start,
                    e.ts_ns - start,
                    vec![],
                );
                phase[i] = Some((to.clone(), e.ts_ns));
            }
            EventKind::BufferHighWater { rows } => {
                let node = n.expect("operator event without node");
                complete(
                    format!("{} high-water", node_name(names, node)),
                    n,
                    e.ts_ns,
                    0,
                    vec![("rows".into(), Value::Int(*rows as i64))],
                );
            }
            EventKind::BitmapBuilt { keys } => {
                let node = n.expect("operator event without node");
                complete(
                    format!("{} bitmap built", node_name(names, node)),
                    n,
                    e.ts_ns,
                    0,
                    vec![("keys".into(), Value::Int(*keys as i64))],
                );
            }
            EventKind::SnapshotTick { index } => {
                complete(
                    format!("snapshot #{index}"),
                    None,
                    e.ts_ns,
                    0,
                    vec![("index".into(), Value::Int(*index as i64))],
                );
            }
            EventKind::OperatorBatch {
                start_ns,
                rows_in,
                rows_out,
            } => {
                let node = n.expect("operator event without node");
                complete(
                    format!("{} batch", node_name(names, node)),
                    n,
                    *start_ns,
                    e.ts_ns.saturating_sub(*start_ns),
                    vec![
                        ("rows_in".into(), Value::Int(*rows_in as i64)),
                        ("rows_out".into(), Value::Int(*rows_out as i64)),
                    ],
                );
            }
        }
    }
    // Spans still open when the trace ends (e.g. a truncated ring buffer).
    for i in 0..node_count {
        if let Some(start) = open[i].take() {
            close_span(
                &mut complete,
                names,
                NodeId(i),
                start,
                end_ts,
                execs[i],
                &mut phase[i],
            );
        }
    }
}

/// Emit the operator span (and its trailing phase span) ending at `end_ns`.
fn close_span(
    complete: &mut impl FnMut(String, Option<NodeId>, u64, u64, Vec<(String, Value)>),
    names: &[String],
    node: NodeId,
    start_ns: u64,
    end_ns: u64,
    exec: u64,
    phase: &mut Option<(String, u64)>,
) {
    if let Some((name, phase_start)) = phase.take() {
        complete(
            format!("{}: {name}", node_name(names, node)),
            Some(node),
            phase_start,
            end_ns.saturating_sub(phase_start),
            vec![],
        );
    }
    let label = if exec > 1 {
        format!("{} (exec {exec})", node_name(names, node))
    } else {
        node_name(names, node)
    };
    complete(
        label,
        Some(node),
        start_ns,
        end_ns.saturating_sub(start_ns),
        vec![("exec".into(), Value::Int(exec as i64))],
    );
}
