//! Trace exporters: JSONL (loss-free, reparseable) and Chrome trace-event
//! JSON (loadable in `chrome://tracing` / Perfetto).

use crate::sink::{EventKind, TraceEvent};
use lqs_plan::NodeId;
use serde::Value;

fn node_name(names: &[String], node: NodeId) -> String {
    names
        .get(node.0)
        .cloned()
        .unwrap_or_else(|| format!("node{}", node.0))
}

// ---- JSONL --------------------------------------------------------------

/// One JSON object per line per event. `names` labels nodes for human
/// readers (pass `&[]` to skip); labels are ignored when reparsing, so
/// `from_jsonl(&to_jsonl(events, names))` returns `events` exactly.
pub fn to_jsonl(events: &[TraceEvent], names: &[String]) -> String {
    to_jsonl_with_drops(events, names, 0)
}

/// [`to_jsonl`], prefixed — when the capture lost events to a full ring
/// buffer — with a `{"kind":"trace_dropped","dropped":N}` header line, so
/// the export carries the sink's loss accounting instead of silently
/// presenting a truncated trace as complete. [`from_jsonl`] skips the
/// header.
pub(crate) fn to_jsonl_with_drops(events: &[TraceEvent], names: &[String], dropped: u64) -> String {
    let mut out = String::new();
    if dropped > 0 {
        out.push_str(
            &Value::Object(vec![
                ("kind".into(), Value::String("trace_dropped".into())),
                ("dropped".into(), Value::Int(dropped as i64)),
            ])
            .to_json(),
        );
        out.push('\n');
    }
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

/// Reparse a [`to_jsonl`] export. Blank lines are skipped; any malformed
/// line aborts with a message naming the 1-based line number.
pub fn from_jsonl(s: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in s.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let get_u64 = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("line {}: missing/invalid \"{key}\"", lineno + 1))
        };
        let get_str = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("line {}: missing/invalid \"{key}\"", lineno + 1))
        };
        let kind = match get_str("kind")?.as_str() {
            // Loss-accounting header from `to_jsonl_with_drops`, not an event.
            "trace_dropped" => continue,
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
                .and_then(Value::as_u64)
                .map(|n| NodeId(n as usize)),
            kind,
        });
    }
    Ok(events)
}

// ---- Collapsed stacks (flamegraph) --------------------------------------

/// Render weighted stacks as collapsed-stack text — the line format
/// `frame;frame;frame weight` consumed by `flamegraph.pl`, `inferno`, and
/// speedscope. Frames are root-first; weights are whatever unit the caller
/// attributes (the profiler uses virtual nanoseconds of per-node
/// self-time). Zero-weight stacks are skipped, `;` inside a frame name is
/// replaced with `,` (it is the separator), and lines are sorted
/// lexicographically so the same stacks always render byte-identically.
pub fn to_collapsed_stacks(stacks: &[(Vec<String>, u64)]) -> String {
    let mut lines: Vec<String> = stacks
        .iter()
        .filter(|(frames, weight)| *weight > 0 && !frames.is_empty())
        .map(|(frames, weight)| {
            let path: Vec<String> = frames.iter().map(|f| f.replace(';', ",")).collect();
            format!("{} {weight}", path.join(";"))
        })
        .collect();
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The dropped-event count recorded by a [`to_jsonl_with_drops`] header,
    /// or 0 when the export has none (nothing was lost).
    fn jsonl_dropped(s: &str) -> u64 {
        s.lines()
            .filter_map(|line| serde_json::from_str(line).ok())
            .find(|v: &Value| v.get("kind").and_then(Value::as_str) == Some("trace_dropped"))
            .and_then(|v| v.get("dropped").and_then(Value::as_u64))
            .unwrap_or(0)
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
    fn jsonl_drops_header_round_trips() {
        let events = sample_events();
        let text = to_jsonl_with_drops(&events, &[], 17);
        assert_eq!(jsonl_dropped(&text), 17);
        // The header is accounting, not an event: reparse still returns
        // exactly the retained events.
        assert_eq!(from_jsonl(&text).unwrap(), events);
        // No loss → no header.
        let clean = to_jsonl(&events, &[]);
        assert_eq!(jsonl_dropped(&clean), 0);
        assert!(!clean.contains("trace_dropped"));
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
    fn collapsed_stacks_are_sorted_and_escaped() {
        let stacks = vec![
            (vec!["query".into(), "Sort".into()], 300u64),
            (vec!["query".into(), "Sort".into(), "Scan;odd".into()], 700),
            (vec!["query".into()], 0), // zero weight: skipped
            (Vec::new(), 42),          // empty stack: skipped
        ];
        let text = to_collapsed_stacks(&stacks);
        assert_eq!(text, "query;Sort 300\nquery;Sort;Scan,odd 700\n");
        assert_eq!(to_collapsed_stacks(&[]), "");
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
}
