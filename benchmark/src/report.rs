//! What a run prints, the results file `--repeat` writes, and `compare`.

use crate::ledger::{self, Better};
use crate::stats::{quartiles, spread};
use crate::workloads::{Outcome, Params};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every metric by name, with its unit, then notes and problems.
pub fn human(p: &Params, out: &Outcome) -> String {
    let mut s = String::new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        s,
        "workload {} seed {} seconds {} trace {} | nproc {nproc} workers {}",
        p.workload.name,
        p.seed,
        p.seconds,
        if p.trace.is_some() { "on" } else { "off" },
        crate::workloads::workers(),
    );
    for (name, value) in &out.metrics {
        let _ = writeln!(s, "  {name:<44} {value:>18.6} {}", ledger::unit_of(name));
    }
    for note in &out.notes {
        let _ = writeln!(s, "  note: {note}");
    }
    for problem in out.problems.iter().take(20) {
        let _ = writeln!(s, "  PROBLEM: {problem}");
    }
    let _ = writeln!(
        s,
        "  operations attempted {} failed {} -> {}",
        out.attempted,
        out.failed,
        if out.correct() {
            "correct"
        } else {
            "NOT CORRECT"
        }
    );
    s
}

/// The result line, in the shape the driver's contract fixes: untraced,
/// exactly the end-to-end metrics of `BENCHMARK.json`; traced, exactly its
/// per-layer metrics. The contract wants every one of those from every
/// workload, so a per-layer figure the workload has no layer for reads 0
/// here, and only here: the report above the line, `--out` and `compare`
/// leave it out (the glossary says which workloads have which).
pub fn result_json(p: &Params, out: &Outcome) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    let names: Vec<&str> = if p.trace.is_some() {
        ledger::traced_metrics().map(|m| m.0).collect()
    } else {
        ledger::END_TO_END
            .iter()
            .filter(|m| m.universal())
            .map(|m| m.name)
            .collect()
    };
    for (i, name) in names.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(value) => *value,
            None if p.trace.is_some() => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            ledger::unit_of(name)
        );
    }
    s.push_str("}}");
    Ok(s)
}

/// One workload's runs: every metric's value per run, in run order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Runs {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, Vec<f64>>,
}

impl Runs {
    /// One run, with everything it measured.
    pub fn of(out: &Outcome) -> Runs {
        Runs {
            correct: out.correct(),
            attempted: out.attempted,
            failed: out.failed,
            values: out
                .metrics
                .iter()
                .map(|(name, value)| ((*name).to_owned(), vec![*value]))
                .collect(),
        }
    }

    /// Fold further runs of the same workload in.
    pub fn merge(&mut self, more: Runs) {
        self.correct = (self.values.is_empty() || self.correct) && more.correct;
        self.attempted += more.attempted;
        self.failed += more.failed;
        for (name, values) in more.values {
            self.values.entry(name).or_default().extend(values);
        }
    }

    /// Exact metrics that differ between runs.
    pub fn inexact(&self) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(name, v)| is_exact(name) && !identical(v.iter()))
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Median and quartiles per metric.
    pub fn summary(&self, workload: &str) -> String {
        let mut s = format!("{workload}: {} runs\n", self.runs());
        for (name, v) in &self.values {
            let (q1, med, q3) = quartiles(v);
            let _ = writeln!(
                s,
                "  {name:<44} median {med:>16.6}  q1 {q1:>16.6}  q3 {q3:>16.6}  spread {:>6.2} % {}",
                spread(v) * 100.0,
                ledger::unit_of(name)
            );
        }
        s
    }

    fn runs(&self) -> usize {
        self.values.values().map(Vec::len).max().unwrap_or(0)
    }
}

/// Whether every value is the same `f64`, bit for bit.
fn identical<'a>(mut values: impl Iterator<Item = &'a f64>) -> bool {
    let first = values.next().map(|x| x.to_bits());
    values.all(|x| Some(x.to_bits()) == first)
}

fn is_exact(name: &str) -> bool {
    ledger::end_to_end(name).is_some_and(|m| m.exact()) || ledger::EXACT_LAYER.contains(&name)
}

/// The results file: `{"workloads": {name: {correct, attempted, failed,
/// metrics: {name: {unit, values}}}}}`.
pub fn results_json(all: &BTreeMap<String, Runs>) -> String {
    let mut s = String::from("{\"workloads\": {");
    for (i, (workload, runs)) in all.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{sep}\n  \"{workload}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            runs.correct, runs.attempted, runs.failed
        );
        for (j, (name, values)) in runs.values.iter().enumerate() {
            let sep = if j > 0 { "," } else { "" };
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(
                s,
                "{sep}\n    \"{name}\": {{\"unit\": \"{}\", \"values\": [{}]}}",
                ledger::unit_of(name),
                values.join(", ")
            );
        }
        s.push_str("}}");
    }
    s.push_str("\n}}\n");
    s
}

pub fn parse_results(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let v = serde_json::from_str(text).map_err(|e| format!("unparsable results file: {e}"))?;
    let Some(Value::Object(workloads)) = v.get("workloads") else {
        return Err("results file has no workloads".into());
    };
    let mut all = BTreeMap::new();
    for (workload, w) in workloads {
        let mut runs = Runs {
            correct: w.get("correct").and_then(Value::as_bool).unwrap_or(false),
            attempted: w.get("attempted").and_then(Value::as_u64).unwrap_or(0),
            failed: w.get("failed").and_then(Value::as_u64).unwrap_or(0),
            values: BTreeMap::new(),
        };
        if let Some(Value::Object(metrics)) = w.get("metrics") {
            for (name, m) in metrics {
                let values = m
                    .get("values")
                    .and_then(Value::as_array)
                    .ok_or_else(|| format!("{workload}/{name} has no values"))?
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect();
                runs.values.insert(name.clone(), values);
            }
        }
        all.insert(workload.clone(), runs);
    }
    Ok(all)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median no worse than the baseline's by more than the bound.
    Same,
    /// Median worse than the baseline's by more than the bound.
    Worse,
    /// Run-to-run spread wider than the bound, and the runs overlap.
    Unresolved,
    /// An exact metric changed.
    Differs,
}

/// Judge one end-to-end metric of one workload: baseline runs `a`
/// against runs `b` of the change, under that workload's `bound` (0 = an
/// exact metric).
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if bound == 0.0 {
        return if identical(a.iter().chain(b)) {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    // Orient so that larger is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (med_a, med_b) = (quartiles(a).1, quartiles(b).1);
    let worsening = sign * (med_b - med_a) / med_a.abs();
    let every_b_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
    if spread(a).max(spread(b)) > bound && !every_b_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Apply the bounds to two results files; one row per metric × workload.
/// Returns the report and whether every row is `Same`.
pub fn compare(a: &BTreeMap<String, Runs>, b: &BTreeMap<String, Runs>) -> (String, bool) {
    let mut s = String::new();
    let mut all_same = true;
    for w in &ledger::WORKLOADS {
        let (Some(ra), Some(rb)) = (a.get(w.name), b.get(w.name)) else {
            continue;
        };
        if !(ra.correct && rb.correct) {
            all_same = false;
            let _ = writeln!(s, "{:<16} a run was not correct", w.name);
        }
        for m in &ledger::END_TO_END {
            let Some(bound) = m.bound_on(w.name) else {
                continue;
            };
            let (va, vb) = match (ra.values.get(m.name), rb.values.get(m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                (None, None) => {
                    // A tail its sample did not support on either side.
                    let _ = writeln!(s, "{:<16} {:<24} not reported", w.name, m.name);
                    continue;
                }
                _ => {
                    all_same = false;
                    let _ = writeln!(s, "{:<16} {:<24} missing on one side", w.name, m.name);
                    continue;
                }
            };
            let verdict = judge(m.better, bound, va, vb);
            all_same &= verdict == Verdict::Same;
            let (med_a, med_b) = (quartiles(va).1, quartiles(vb).1);
            let _ = writeln!(
                s,
                "{:<16} {:<24} {:<10} {med_a:>14.4} -> {med_b:>14.4} {:<6} ({:+.2} %, bound {:.0} %, spread {:.2} % / {:.2} %)",
                w.name,
                m.name,
                format!("{verdict:?}").to_lowercase(),
                m.unit,
                (med_b - med_a) / med_a.abs() * 100.0,
                bound * 100.0,
                spread(va) * 100.0,
                spread(vb) * 100.0,
            );
        }
        for name in ledger::EXACT_LAYER {
            if let (Some(va), Some(vb)) = (ra.values.get(name), rb.values.get(name)) {
                if !identical(va.iter().chain(vb)) {
                    all_same = false;
                    let _ = writeln!(s, "{:<16} {name:<24} differs", w.name);
                }
            }
        }
    }
    (s, all_same)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_decide_same_worse_unresolved() {
        let sps = |a: &[f64], b: &[f64]| judge(Better::Higher, 0.05, a, b);
        let base = [100.0, 101.0, 99.0];
        assert_eq!(sps(&base, &[97.0, 98.0, 96.0]), Verdict::Same);
        assert_eq!(sps(&base, &[90.0, 91.0, 89.0]), Verdict::Worse);
        assert_eq!(sps(&base, &[120.0, 121.0, 119.0]), Verdict::Same);
        // Spread wider than the bound and overlapping runs: no verdict ...
        let noisy = [100.0, 120.0, 80.0];
        assert_eq!(sps(&noisy, &[95.0, 118.0, 79.0]), Verdict::Unresolved);
        // ... unless every run of the change beats every baseline run.
        assert_eq!(sps(&noisy, &[130.0, 150.0, 125.0]), Verdict::Same);
        let poll = |a: &[f64], b: &[f64]| judge(Better::Lower, 0.10, a, b);
        let base = [10.0, 10.1, 9.9];
        assert_eq!(poll(&base, &[10.9, 11.0, 10.8]), Verdict::Same);
        assert_eq!(poll(&base, &[11.2, 11.3, 11.1]), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_may_not_move_at_all() {
        let kb = |a: &[f64], b: &[f64]| judge(Better::Lower, 0.0, a, b);
        assert_eq!(kb(&[12.5, 12.5], &[12.5, 12.5]), Verdict::Same);
        assert_eq!(
            kb(&[12.5, 12.5], &[12.5, 12.500000000000002]),
            Verdict::Differs
        );
    }

    #[test]
    fn results_file_round_trips_and_flags_inexact_runs() {
        let mut runs = Runs::default();
        for kb in [12.5, 12.5, 12.75] {
            runs.merge(Runs {
                correct: true,
                attempted: 10,
                failed: 0,
                values: BTreeMap::from([
                    ("sessions_per_s".to_owned(), vec![27.25]),
                    ("journal_kb_per_session".to_owned(), vec![kb]),
                ]),
            });
        }
        assert!(runs.correct);
        assert_eq!(runs.attempted, 30);
        assert_eq!(runs.inexact(), vec!["journal_kb_per_session"]);
        let all = BTreeMap::from([("steady_real3".to_owned(), runs)]);
        assert_eq!(parse_results(&results_json(&all)).unwrap(), all);
        let (report, same) = compare(&all, &all);
        assert!(!same, "{report}"); // the exact metric differs within a set
        assert!(report.contains("journal_kb_per_session   differs"));
    }
}
