//! The ledger's vocabulary: workload names, every metric with its unit,
//! direction and bounds, and which end-to-end metric each layer metric is
//! expected to move. `BENCHMARK.json` is generated from these tables
//! (`lqs-benchmark manifest`) and a test keeps the two identical.

use std::fmt::Write as _;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady_real3",
        why: "REAL-3 joins + group-bys through the full stack; exec does ~85 % of the work, so engine changes show and monitoring changes barely do",
    },
    Workload {
        name: "dense_real2",
        why: "REAL-2 ~22-node plans on tiny data at 384 snapshots; publish, journal, poll, ensemble and terminal replay do ~90 % of the work, exec almost none",
    },
    Workload {
        name: "history_real1",
        why: "read side of the journal: /history/*, /metrics, /sessions and recovery over a directory that sessions and retention sweeps keep changing",
    },
    Workload {
        name: "bare_real3",
        why: "control: the steady_real3 plans straight through the engine with no service, journal, poller or HTTP; monitoring changes must leave it flat",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    /// What is measured, for the glossary.
    pub what: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The workloads that report it, each with the share of the baseline
    /// median by which it may worsen there before `compare` calls it a
    /// regression. 0 everywhere marks an exact metric: a virtual-clock or
    /// byte-count figure, identical on every run, so any difference is a
    /// behaviour change, not noise.
    pub bounds: &'static [(&'static str, f64)],
}

const fn on(steady: f64, dense: f64, history: f64, bare: f64) -> [(&'static str, f64); 4] {
    [
        ("steady_real3", steady),
        ("dense_real2", dense),
        ("history_real1", history),
        ("bare_real3", bare),
    ]
}

// Each bound is three times the widest spread (interquartile range over
// median) the metric showed on that workload inside a ten-run set of one
// unchanged commit on this repo's 2-core sandbox, rounded up to the next 5 %,
// never under ISSUE 11's figure and capped at the contract's 25 % (README,
// "Steadiness", has the sets). The sandbox is the limit, not the benchmark: a
// fixed single-threaded arithmetic loop, timed thirty times in a row there,
// took between 0.22 s and 0.44 s. `compare` reports a metric whose spread
// exceeds its bound as unresolved rather than pretending to a verdict.

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        what: "data + plan generation (and the journal pre-load of history_real1); median of the set-ups of one run",
        unit: "s",
        better: Better::Lower,
        bounds: &on(0.25, 0.25, 0.25, 0.25),
    },
    EndToEnd {
        name: "sessions_per_s",
        what: "sessions submitted, executed, polled to a final report with accuracy scored, and evicted, per wall second (bare_real3: executions; history_real1: cycles, one journaled session each); one lap's sessions over the sum of its segments' fastest times",
        unit: "1/s",
        better: Better::Higher,
        bounds: &on(0.25, 0.2, 0.25, 0.15),
    },
    EndToEnd {
        name: "peak_rss_mb",
        what: "VmHWM of the benchmark process at exit (program, generated data, and the scan that verifies one round's journal)",
        unit: "MB",
        better: Better::Lower,
        // steady_real3: 1-2 % in most sets, 16 % in two (allocator arenas of
        // the HTTP and worker threads).
        bounds: &on(0.25, 0.2, 0.1, 0.15),
    },
    EndToEnd {
        name: "poll_p50_us",
        what: "one RegistryPoller::poll() round over every registered session",
        unit: "us",
        better: Better::Lower,
        bounds: &[("steady_real3", 0.25), ("dense_real2", 0.25)],
    },
    EndToEnd {
        name: "poll_p99_us",
        what: "same, 99th percentile: the rounds that replay and score a finished session",
        unit: "us",
        better: Better::Lower,
        bounds: &[("steady_real3", 0.25), ("dense_real2", 0.25)],
    },
    EndToEnd {
        name: "report_lag_p50_ms",
        what: "from a session's terminal publish to its final report reaching the driver (snapshot_age() at hand-off), one sample per session",
        unit: "ms",
        better: Better::Lower,
        bounds: &[("steady_real3", 0.25), ("dense_real2", 0.25)],
    },
    EndToEnd {
        name: "scrape_p50_ms",
        what: "GET /metrics + GET /sessions over TCP",
        unit: "ms",
        better: Better::Lower,
        bounds: &[
            ("steady_real3", 0.25),
            ("dense_real2", 0.25),
            ("history_real1", 0.25),
        ],
    },
    EndToEnd {
        name: "history_req_p50_ms",
        what: "one /history/* request (sessions, percentiles, curve, predict)",
        unit: "ms",
        better: Better::Lower,
        bounds: &[("history_real1", 0.2)],
    },
    EndToEnd {
        name: "history_req_p90_ms",
        what: "same, 90th percentile; only a run that made at least 100 requests reports it",
        unit: "ms",
        better: Better::Lower,
        bounds: &[("history_real1", 0.25)],
    },
    EndToEnd {
        name: "recover_sessions_per_s",
        what: "journaled sessions restored per second of RecoveryManager::recover",
        unit: "1/s",
        better: Better::Higher,
        bounds: &[("history_real1", 0.25)],
    },
    EndToEnd {
        name: "journal_kb_per_session",
        what: "journal bytes on disk / sessions of the sequential warm-up lap",
        unit: "KB",
        better: Better::Lower,
        bounds: &[
            ("steady_real3", 0.0),
            ("dense_real2", 0.0),
            ("history_real1", 0.0),
        ],
    },
    EndToEnd {
        name: "ensemble_error_avg",
        what: "mean section-5 ErrorAvg of the composed ensemble over the warm-up lap, from lqs_estimator_error_count{estimator=\"ensemble\"}",
        unit: "ratio",
        better: Better::Lower,
        bounds: &[("steady_real3", 0.0), ("dense_real2", 0.0)],
    },
];

impl EndToEnd {
    /// Bound on `workload`; `None` where the workload has no such figure.
    pub fn bound_on(&self, workload: &str) -> Option<f64> {
        self.bounds
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, b)| *b)
    }

    /// Reported by every workload — the only kind `BENCHMARK.json` can list
    /// as `end_to_end`: the driver wants every end-to-end metric, never 0,
    /// from every run of every workload.
    pub fn universal(&self) -> bool {
        self.bounds.len() == WORKLOADS.len()
    }

    /// `BENCHMARK.json` has one bound per metric: the widest a workload needs.
    pub fn widest_bound(&self) -> f64 {
        self.bounds.iter().map(|(_, b)| *b).fold(0.0, f64::max)
    }

    pub fn exact(&self) -> bool {
        self.widest_bound() == 0.0
    }
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `WorkloadScale.seed` of every workload: the seed the rest of the repo
/// reports against. `--seed` does not reach it (README, "Seed").
pub const DATA_SEED: u64 = 42;

/// The exact end-to-end metrics as the seed code produces them. They read
/// the same on every run and every `--seed`, so a run that reads worse than
/// this is not `correct`: that is how the exact metrics gate a change even
/// though `BENCHMARK.json` cannot bound them. A change that improves one
/// re-records it here in a benchmark PR of its own.
pub const RECORDED: [(&str, &str, f64); 5] = [
    ("steady_real3", "journal_kb_per_session", 143.370751953125),
    ("steady_real3", "ensemble_error_avg", 0.021782918286068688),
    ("dense_real2", "journal_kb_per_session", 678.4744720458984),
    ("dense_real2", "ensemble_error_avg", 0.08272984104265602),
    ("history_real1", "journal_kb_per_session", 465.0731201171875),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this figure should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const SETUP: &str = "setup_s everywhere, nothing else";
const EXEC: &str = "sessions_per_s on bare_real3 and steady_real3 by the same factor; <= 12 % of it on dense_real2";
const SEQSLOT: &str = "poll_p50_us on dense_real2; predicted invisible in sessions_per_s";
const JOURNAL_W: &str = "sessions_per_s on dense_real2, journal_kb_per_session; < 5 % on steady_real3; flat on bare_real3";
const JOURNAL_R: &str = "history_req_p50_ms, recover_sessions_per_s on history_real1 only";
const PROGRESS: &str =
    "poll_p99_us, report_lag_p50_ms on dense_real2; history_req_p50_ms; flat on bare_real3";
const POLLER: &str = "poll_p50_us, poll_p99_us, report_lag_p50_ms on steady_real3 and dense_real2";
const SERVICE_L: &str = "sessions_per_s on dense_real2 (session churn); flat on bare_real3";
const HTTP: &str = "scrape_p50_ms, nothing else";
const HISTORY_L: &str =
    "history_req_p50_ms, history_req_p90_ms, recover_sessions_per_s on history_real1 only";
const LEDGER: &str = "none: how much of the worker's critical path the ledger explains";

/// Exact layer figures: identical on every run of one input.
pub const EXACT_LAYER: [&str; 3] = [
    "exec.counter_checksum",
    "exec.snapshots_per_session",
    "journal.bytes_per_snapshot",
];

pub const PER_LAYER: [Layer; 60] = [
    layer("workloads.build_db_s", "s", Lower, SETUP),
    layer("workloads.build_plans_s", "s", Lower, SETUP),
    layer("storage.rows_loaded", "count", Lower, SETUP),
    layer("plan.nodes_per_plan", "count", Lower, SETUP),
    layer("exec.ms_per_session", "ms", Lower, EXEC),
    layer("exec.mrows_per_s", "Mrows/s", Higher, EXEC),
    layer("exec.snapshots_per_session", "count", Lower, EXEC),
    layer("exec.tuple_over_batch", "ratio", Lower, EXEC),
    layer("exec.counter_checksum", "count", Lower, EXEC),
    layer("server.seqslot.publish_ns", "ns", Lower, SEQSLOT),
    layer("server.seqslot.read_ns", "ns", Lower, SEQSLOT),
    layer("server.seqslot.torn_reads", "count", Lower, SEQSLOT),
    layer("journal.open_us", "us", Lower, JOURNAL_W),
    layer("journal.append_us_per_snapshot", "us", Lower, JOURNAL_W),
    layer("journal.terminal_fsync_ms", "ms", Lower, JOURNAL_W),
    layer("journal.bytes_per_snapshot", "B", Lower, JOURNAL_W),
    layer("journal.write_errors", "count", Lower, JOURNAL_W),
    layer("journal.lost_records", "count", Lower, JOURNAL_W),
    layer("journal.scan_mb_per_s", "MB/s", Higher, JOURNAL_R),
    layer("progress.build_us", "us", Lower, PROGRESS),
    layer("progress.lqs_ns_per_snapshot", "ns", Lower, PROGRESS),
    layer("progress.dne_ns_per_snapshot", "ns", Lower, PROGRESS),
    layer("progress.tgn_ns_per_snapshot", "ns", Lower, PROGRESS),
    layer("progress.norefine_ns_per_snapshot", "ns", Lower, PROGRESS),
    layer("progress.pmax_ns_per_snapshot", "ns", Lower, PROGRESS),
    layer("progress.safe_ns_per_snapshot", "ns", Lower, PROGRESS),
    layer("progress.ensemble_observe_ns_per_snapshot", "ns", Lower, PROGRESS),
    layer("progress.ensemble_over_lqs", "ratio", Lower, PROGRESS),
    layer("progress.replay_us_per_snapshot", "us", Lower, PROGRESS),
    layer("server.poller.live_estimates", "count", Higher, POLLER),
    layer("server.poller.cached_hits", "count", Lower, POLLER),
    layer("server.poller.useful_frac", "ratio", Higher, POLLER),
    layer("server.poller.idle_ns_per_session", "ns", Lower, POLLER),
    layer("server.poller.score_ms_per_session", "ms", Lower, POLLER),
    layer("server.poller.report_lag_p99_ms", "ms", Lower, POLLER),
    layer("server.poller.evict_us", "us", Lower, POLLER),
    layer(
        "server.poller.final_below_100",
        "count",
        Lower,
        "none: sessions whose final composed estimate stays under 100 %; item 4 should take it to 0",
    ),
    layer("server.service.submit_us", "us", Lower, SERVICE_L),
    layer("server.service.queue_wait_p50_ms", "ms", Lower, SERVICE_L),
    layer("server.service.shutdown_ms", "ms", Lower, SERVICE_L),
    layer("server.service.stack_overhead_frac", "ratio", Lower, SERVICE_L),
    layer("server.registry.register_ns", "ns", Lower, SERVICE_L),
    layer("server.registry.sessions_ns", "ns", Lower, SERVICE_L),
    layer("server.registry.evict_ns", "ns", Lower, SERVICE_L),
    layer("server.watchdog.sweep_us", "us", Lower, SERVICE_L),
    layer("metrics.render_us", "us", Lower, HTTP),
    layer("metrics.render_bytes", "B", Lower, HTTP),
    layer("metrics.families", "count", Lower, HTTP),
    layer("server.http.floor_us", "us", Lower, HTTP),
    layer("server.http.metrics_get_us", "us", Lower, HTTP),
    layer("server.http.sessions_get_us", "us", Lower, HTTP),
    layer("server.http.shed_total", "count", Lower, HTTP),
    layer("server.http.head_timeouts_total", "count", Lower, HTTP),
    layer("history.materialize_ms_per_session", "ms", Lower, HISTORY_L),
    layer("history.materialize_pure_ms_per_session", "ms", Lower, HISTORY_L),
    layer("history.store_build_ms", "ms", Lower, HISTORY_L),
    layer("history.predict_us", "us", Lower, HISTORY_L),
    layer("server.recovery.recover_ms_per_session", "ms", Lower, HISTORY_L),
    layer("prof.from_run_us", "us", Lower, HISTORY_L),
    layer("ledger.coverage", "ratio", Higher, LEDGER),
];

/// Traced-run figure that belongs to no layer of the program.
pub const TRACE_OVERHEAD: Layer = layer(
    "trace.overhead_frac",
    "ratio",
    Lower,
    "none: traced vs untraced sessions_per_s of the same run",
);

/// Every metric a `--trace 1` run reports, in order: the end-to-end
/// metrics only some workloads have (the contract cannot bound those),
/// then the layers, then the tracing overhead.
pub fn traced_metrics() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|m| !m.universal())
        .map(|m| (m.name, m.unit, m.better))
        .chain(
            PER_LAYER
                .iter()
                .chain(std::iter::once(&TRACE_OVERHEAD))
                .map(|m| (m.name, m.unit, m.better)),
        )
}

/// Unit of any metric the benchmark prints.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| traced_metrics().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or("")
}

/// Measuring time of one run, in seconds.
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let universal: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.universal()).collect();
    for (i, m) in universal.iter().enumerate() {
        let comma = if i + 1 < universal.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.widest_bound()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let traced: Vec<_> = traced_metrics().collect();
    for (i, (name, unit, better)) in traced.iter().enumerate() {
        let comma = if i + 1 < traced.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better.as_str()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The metric glossary as Markdown tables — the `README.md` section of
/// the same name, which a test keeps identical to this.
pub fn glossary_markdown() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | workloads (bound) | what |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let on: Vec<String> = m
            .bounds
            .iter()
            .map(|(w, b)| {
                if m.exact() {
                    format!("{w} (exact)")
                } else {
                    format!("{w} ({:.0} %)", b * 100.0)
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            on.join(", "),
            m.what
        );
    }
    out.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in PER_LAYER.iter().chain(std::iter::once(&TRACE_OVERHEAD)) {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn readme_glossary_is_the_generated_one() {
        let readme = include_str!("../README.md");
        assert!(
            readme.contains(&glossary_markdown()),
            "regenerate the glossary with `lqs-benchmark glossary`"
        );
        for w in &WORKLOADS {
            assert!(readme.contains(&format!("### `{}`", w.name)));
        }
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `lqs-benchmark manifest > BENCHMARK.json`"
        );
        assert!(serde_json::from_str(&on_disk).is_ok());
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| (w.name, ""))
            .chain(END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(traced_metrics().map(|m| (m.0, m.1)));
        for (name, unit) in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            // Non-universal end-to-end metrics are listed twice on purpose.
            seen.insert(name);
        }
        assert_eq!(seen.len(), 4 + 12 + PER_LAYER.len() + 1);
        assert!(traced_metrics().count() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in &END_TO_END {
            for (w, bound) in m.bounds {
                assert!(WORKLOADS.iter().any(|known| known.name == *w));
                assert!(*bound <= 0.25);
                assert_eq!(m.exact(), *bound == 0.0, "{} on {w}", m.name);
            }
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.universal() && setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END
            .iter()
            .all(|m| m.widest_bound() <= setup.widest_bound()));
        for (workload, metric, _) in RECORDED {
            let m = end_to_end(metric).unwrap();
            assert!(m.exact() && m.bound_on(workload).is_some());
        }
    }
}
