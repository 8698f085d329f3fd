//! Tests for the experiment report rendering and aggregation utilities.

use lqs_bench::experiment::{merge_per_operator, PerOperatorErrors, WorkloadErrors};
use lqs_bench::report::{render_frequencies, render_per_operator, render_workload_errors, to_json};
use std::collections::BTreeMap;

fn sample_rows() -> Vec<WorkloadErrors> {
    vec![
        WorkloadErrors {
            workload: "W1".into(),
            errors: vec![("A".into(), 0.1234), ("B".into(), 0.5)],
            queries: 10,
        },
        WorkloadErrors {
            workload: "W2".into(),
            errors: vec![("A".into(), 0.2), ("B".into(), 0.25)],
            queries: 3,
        },
    ]
}

#[test]
fn workload_errors_table_renders_all_cells() {
    let out = render_workload_errors("title", &sample_rows());
    assert!(out.contains("title"));
    assert!(out.contains("W1") && out.contains("W2"));
    assert!(out.contains("0.1234") && out.contains("0.2500"));
    assert!(out.contains("10") && out.contains("3"));
    // Header contains both config labels once.
    assert!(out.matches('A').count() >= 1);
}

#[test]
fn empty_workload_errors_render_gracefully() {
    let out = render_workload_errors("empty", &[]);
    assert!(out.contains("no data"));
}

#[test]
fn per_operator_table_renders_missing_as_dash() {
    let mut m1 = BTreeMap::new();
    m1.insert("Sort".to_string(), 0.25);
    let mut m2 = BTreeMap::new();
    m2.insert("Filter".to_string(), 0.125);
    let data = PerOperatorErrors {
        workload: "X".into(),
        by_config: vec![("cfg1".into(), m1), ("cfg2".into(), m2)],
    };
    let out = render_per_operator("ops", &data);
    assert!(out.contains("Sort") && out.contains("Filter"));
    assert!(out.contains('-'), "missing cells should render as dashes");
    assert!(out.contains("0.2500") && out.contains("0.1250"));
}

#[test]
fn merge_per_operator_averages_across_workloads() {
    let mk = |v: f64| {
        let mut m = BTreeMap::new();
        m.insert("Sort".to_string(), v);
        PerOperatorErrors {
            workload: "w".into(),
            by_config: vec![("cfg".into(), m)],
        }
    };
    let merged = merge_per_operator(&[mk(0.2), mk(0.4)]);
    assert_eq!(merged.by_config.len(), 1);
    let v = merged.by_config[0].1["Sort"];
    assert!((v - 0.3).abs() < 1e-12, "expected mean 0.3, got {v}");
}

#[test]
fn frequencies_table_includes_union_of_operators() {
    let mut a = BTreeMap::new();
    a.insert("Index Seek".to_string(), 7usize);
    let mut b = BTreeMap::new();
    b.insert("Columnstore Index Scan".to_string(), 9usize);
    let out = render_frequencies("freq", "row", &a, "cs", &b);
    assert!(out.contains("Index Seek") && out.contains("Columnstore Index Scan"));
    assert!(out.contains('7') && out.contains('9'));
    // Operators absent from one side render as 0.
    assert!(out.contains('0'));
}

#[test]
fn json_serialization_round_trips() {
    let rows = sample_rows();
    let json = to_json(&rows);
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed[0]["workload"], "W1");
    assert_eq!(parsed[1]["queries"], 3);
}
