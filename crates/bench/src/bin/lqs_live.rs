//! `lqs_live` — the Live Query Statistics view, terminal edition.
//!
//! Executes a workload query, then replays its DMV snapshot trace through
//! the progress estimator, rendering one frame per sampled snapshot: a
//! query-level progress bar plus per-operator bars with `k/N̂`, percent,
//! and the explain path that produced each figure.
//!
//! ```text
//! lqs_live [--query tpch-q01] [--frames 8] [--scale 0.5] [--seed 42] [--trace out.json]
//! lqs_live --profile [--query NAME] [--collapsed FILE] [--scale F] [--seed N]
//! lqs_live --journal DIR [--query NAME] [--frames 8] [--scale 0.5] [--seed 42]
//! lqs_live --fleet DIR [--scale F] [--seed N]
//! ```
//!
//! With `--trace FILE`, the run is captured through a ring-buffer sink and
//! exported as a Chrome trace (open in `chrome://tracing` or Perfetto). If
//! the buffer overflows, the export carries a truncation marker and a
//! warning goes to stderr.
//!
//! With `--profile`, the per-frame progress replay is replaced by the
//! per-operator time-attribution view (see `lqs::prof`): a hottest-first
//! self-time table whose rows sum exactly to the query's virtual elapsed
//! time — the virtual clock makes attribution a conservation law, not a
//! sampling estimate. `--collapsed FILE` additionally writes the
//! collapsed-stack text that `flamegraph.pl` / speedscope consume.
//!
//! With `--journal DIR`, nothing executes: the snapshot stream is read
//! back from a crash-recovery journal directory (see `lqs::journal`) and
//! replayed through the same terminal UI — the post-mortem view of a
//! session another process journaled, interrupted or not. The plan is
//! rebuilt from the workload by the journaled session name, and refused if
//! its fingerprint no longer matches (pass the `--scale`/`--seed` the
//! journaled run used).
//!
//! With `--fleet DIR`, the whole journal directory is rendered as the
//! fleet analytics view (see `lqs::history`): every journaled session with
//! its outcome and totals, per-workload p50/p90/p99 percentile summaries,
//! and the fleet-wide slowest-node ranking.
//!
//! Both journal modes refuse a missing or session-less directory with a
//! clear message and a non-zero exit — a typo'd path must never render an
//! empty-but-plausible view.

use lqs::exec::execute_traced;
use lqs::exec::trace::to_chrome_trace_with_drops;
use lqs::journal::{plan_fingerprint, scan_dir, RecoveredSession};
use lqs::plan::{NodeId, PhysicalPlan};
use lqs::prelude::*;
use lqs::progress::ProgressReport;
use lqs::workloads::{standard_five, tpch, PhysicalDesign, WorkloadScale};
use lqs_bench::run::{run_query, trace_estimator};
use lqs_bench::{Cli, Kind};

const CLI: Cli = Cli {
    usage: "usage: lqs_live [--query NAME] [--frames N] [--scale F] [--seed N] \
            [--trace FILE] [--profile] [--collapsed FILE] [--journal DIR] [--fleet DIR]",
    flags: &[
        ("--query", Kind::Text),
        ("--frames", Kind::Int),
        ("--scale", Kind::Float),
        ("--seed", Kind::Int),
        ("--trace", Kind::Text),
        ("--journal", Kind::Text),
        ("--fleet", Kind::Text),
        ("--profile", Kind::Switch),
        ("--collapsed", Kind::Text),
    ],
};

fn bar(p: f64, width: usize) -> String {
    let filled = (p.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!(
        "[{}{}]",
        "=".repeat(filled.min(width)),
        " ".repeat(width.saturating_sub(filled))
    )
}

fn render_node(
    plan: &PhysicalPlan,
    s: &DmvSnapshot,
    report: &ProgressReport,
    node: NodeId,
    depth: usize,
) {
    let n = plan.node(node);
    let np = &report.nodes[node.0];
    let c = s.node(node.0);
    let status = if c.is_closed() {
        "done"
    } else if c.is_open() {
        "run "
    } else {
        "wait"
    };
    println!(
        "  {:indent$}{:<28} {} {:>5.1}%  {:>9}/{:<9.0} {:<4} {}",
        "",
        n.op.display_name(),
        bar(np.progress, 20),
        np.progress * 100.0,
        c.rows_output,
        np.refined_n,
        status,
        np.explanation.path.label(),
        indent = depth * 2
    );
    for &ch in &n.children {
        render_node(plan, s, report, ch, depth + 1);
    }
}

/// Replay `run.snapshots` through the estimator and render `frames`
/// evenly sampled frames plus the closing totals.
fn render_run(plan: &PhysicalPlan, db: &Database, run: &QueryRun, frames: usize) {
    let trace = trace_estimator(plan, db, run, EstimatorConfig::full());
    let n = run.snapshots.len();
    let frames = frames.clamp(1, n);
    for f in 0..frames {
        let i = if frames == 1 {
            n - 1
        } else {
            (f * (n - 1)) / (frames - 1)
        };
        let s = &run.snapshots[i];
        let rep = &trace.reports[i];
        println!(
            "\n--- t={:>9.2}ms  snapshot {:>4}/{:<4}  query {} {:>5.1}% ---",
            s.ts_ns as f64 / 1e6,
            i + 1,
            n,
            bar(rep.query_progress, 30),
            rep.query_progress * 100.0
        );
        render_node(plan, s, rep, plan.root(), 0);
    }

    let totals = trace.explain_totals();
    println!(
        "\n{} snapshots; explain totals: {} refinements, {} clamps, {} special-model nodes",
        n, totals.refinements_applied, totals.clamps_hit, totals.special_model_nodes
    );
}

/// The journaled query's workload name: journal session names may carry a
/// harness prefix (`c0-tpch-q01`), so try the full name first, then
/// everything after the first dash.
fn journaled_query_name(name: &str) -> Vec<&str> {
    let mut out = vec![name];
    if let Some((_, suffix)) = name.split_once('-') {
        out.push(suffix);
    }
    out
}

fn describe(s: &RecoveredSession) -> String {
    let name = s
        .meta
        .as_ref()
        .map(|m| m.name.as_str())
        .unwrap_or("<unreadable>");
    let end = match &s.terminal {
        Some(t) => format!("{:?} at t={:.2}ms", t.kind, t.at_ns as f64 / 1e6),
        None => "interrupted (no terminal record)".to_string(),
    };
    let est = match &s.estimator {
        Some(e) => format!(", est={}", e.selected),
        None => String::new(),
    };
    format!(
        "e{}/s{} {:<24} {:>4} snapshots, {} corrupt, {}{}{}",
        s.epoch,
        s.session_id,
        name,
        s.snapshots.len(),
        s.corrupt_records,
        end,
        est,
        if s.clean_shutdown {
            ", clean shutdown"
        } else {
            ""
        }
    )
}

/// Guard shared by `--journal` and `--fleet`: a missing, non-directory,
/// unreadable, or session-less journal directory is a hard error with a
/// clear message and non-zero exit — never an empty-but-plausible view.
/// `read` reads the directory; `sessions` counts what it found.
fn read_journal_dir_or_exit<T>(
    dir: &str,
    read: impl FnOnce(&std::path::Path) -> std::io::Result<T>,
    sessions: impl FnOnce(&T) -> usize,
) -> T {
    let path = std::path::Path::new(dir);
    if !path.is_dir() {
        eprintln!("lqs_live: journal directory {dir} does not exist (or is not a directory)");
        std::process::exit(1);
    }
    let read = match read(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lqs_live: cannot scan journal dir {dir}: {e}");
            std::process::exit(1);
        }
    };
    if sessions(&read) == 0 {
        eprintln!("lqs_live: no journaled sessions in {dir}");
        std::process::exit(1);
    }
    read
}

/// `--journal DIR`: read a crash-recovery journal and replay one session's
/// snapshot stream through the terminal UI, no execution.
fn replay_journal(dir: &str, query: &str, frames: usize, scale: WorkloadScale) {
    let scan = read_journal_dir_or_exit(dir, scan_dir, |scan| scan.sessions.len());
    eprintln!(
        "lqs_live: {} journaled session(s) in {dir}:",
        scan.sessions.len()
    );
    for s in &scan.sessions {
        eprintln!("  {}", describe(s));
    }

    // Prefer the session matching --query; otherwise the newest replayable.
    let matches_query = |s: &RecoveredSession| {
        s.meta
            .as_ref()
            .is_some_and(|m| journaled_query_name(&m.name).contains(&query))
    };
    let session = scan
        .sessions
        .iter()
        .rev()
        .find(|s| matches_query(s) && !s.snapshots.is_empty())
        .or_else(|| {
            scan.sessions
                .iter()
                .rev()
                .find(|s| s.meta.is_some() && !s.snapshots.is_empty())
        })
        .unwrap_or_else(|| {
            eprintln!("lqs_live: no journaled session has a readable meta record and snapshots");
            std::process::exit(1);
        });
    let meta = session.meta.as_ref().expect("selected session has meta");

    // Rebuild the standard workloads at the requested scale and resolve
    // the journaled query by name (journals store fingerprints, not plans).
    let workloads = standard_five(scale);
    let (db, plan) = workloads
        .iter()
        .find_map(|w| {
            journaled_query_name(&meta.name)
                .into_iter()
                .find_map(|n| w.queries.iter().find(|q| q.name == n))
                .map(|q| (&w.db, &q.plan))
        })
        .unwrap_or_else(|| {
            eprintln!(
                "lqs_live: journaled session {:?} does not name a known workload query",
                meta.name
            );
            std::process::exit(2);
        });
    if plan_fingerprint(plan) != meta.plan_fingerprint {
        eprintln!(
            "lqs_live: plan fingerprint mismatch for {:?} — the journaled run used a \
             different plan shape; re-run with the --scale/--seed it was journaled under",
            meta.name
        );
        std::process::exit(2);
    }

    println!("{}", plan.display_tree());
    println!("replaying journal {}", describe(session));
    if let Some(est) = &session.estimator {
        let weights: Vec<String> = est
            .weights
            .iter()
            .map(|(id, w)| format!("{id}={w:.3}"))
            .collect();
        println!(
            "journaled ensemble selection: {} ({})",
            est.selected,
            weights.join(", ")
        );
    }
    let last = session
        .snapshots
        .last()
        .expect("selected session has snapshots");
    // The viewer wants the terminal publish *in* the frame stream so the
    // last frame closes at the journaled end state, interrupted or not.
    let run = QueryRun {
        snapshots: session.snapshots.clone(),
        final_counters: last.nodes.clone(),
        duration_ns: session
            .terminal
            .as_ref()
            .map(|t| t.at_ns)
            .unwrap_or(last.ts_ns),
        rows_returned: session
            .terminal
            .as_ref()
            .map(|t| t.rows_returned)
            .unwrap_or(0),
        cost_model: meta.cost_model.clone(),
        node_elapsed_ns: Vec::new(),
    };
    render_run(plan, db, &run, frames);
    match &session.terminal {
        Some(t) => println!(
            "journaled terminal: {:?}, {} rows in {:.2}ms (virtual)",
            t.kind,
            t.rows_returned,
            t.at_ns as f64 / 1e6
        ),
        None => println!(
            "journal ends mid-run at t={:.2}ms — last-known progress shown (the live \
             service would serve this session as Orphaned/Degraded)",
            last.ts_ns as f64 / 1e6
        ),
    }
}

/// `--fleet DIR`: render the whole journal directory as the fleet
/// analytics view — sessions, per-workload percentiles, slowest nodes.
fn fleet_view(dir: &str, scale: WorkloadScale) {
    use lqs::history::{scan_history, HistoryResolver, ResolvedPlan};
    use std::sync::Arc;

    // Rebuild the standard workloads so sessions resolve to plans
    // (operator names, ErrorAvg/ErrorTime); unresolvable sessions still
    // get journal-pure curves and attribution.
    let workloads = standard_five(scale);
    let mut catalog: Vec<(String, Arc<Database>, Arc<PhysicalPlan>)> = Vec::new();
    for w in workloads {
        let db = Arc::new(w.db);
        for q in w.queries {
            catalog.push((q.name, Arc::clone(&db), Arc::new(q.plan)));
        }
    }
    let resolver = move |meta: &lqs::journal::SessionMeta| {
        journaled_query_name(&meta.name).into_iter().find_map(|n| {
            catalog
                .iter()
                .find(|(name, _, _)| name == n)
                .map(|(_, db, plan)| ResolvedPlan {
                    plan: Arc::clone(plan),
                    db: Arc::clone(db),
                })
        })
    };
    let fleet = read_journal_dir_or_exit(
        dir,
        |path| scan_history(path, None, Some(&resolver as &dyn HistoryResolver)),
        |fleet| fleet.sessions.len(),
    );

    println!(
        "fleet history: {} session(s), {} corrupt record(s), {} swept mid-scan",
        fleet.sessions.len(),
        fleet.corrupt_records,
        fleet.sessions_swept
    );
    for s in &fleet.sessions {
        let accuracy = match (s.error_avg, s.error_time) {
            (Some(a), Some(t)) => format!("  ErrorAvg={a:.4} ErrorTime={t:.4}"),
            _ => String::new(),
        };
        println!(
            "  {:<14} {:<24} {:<18} {:<10} {:>9.2}ms cpu {:>9.2}ms reads {:>8} snaps {:>4}{}",
            s.key(),
            s.name,
            s.workload,
            s.outcome,
            s.runtime_ns as f64 / 1e6,
            s.total_cpu_ns as f64 / 1e6,
            s.total_logical_reads,
            s.snapshots,
            accuracy
        );
    }

    println!("\nper-workload percentiles (succeeded runs):");
    for w in fleet.percentiles() {
        println!(
            "  {:<18} {:>3}/{:<3} runtime ms p50/p90/p99 {:>9.2}/{:>9.2}/{:>9.2}  reads p50 {:>8.0}",
            w.workload,
            w.succeeded,
            w.sessions,
            w.runtime_ns.p50 / 1e6,
            w.runtime_ns.p90 / 1e6,
            w.runtime_ns.p99 / 1e6,
            w.logical_reads.p50
        );
        if let (Some(ea), Some(et)) = (&w.error_avg, &w.error_time) {
            println!(
                "  {:<18} ErrorAvg p50/p90 {:.4}/{:.4}  ErrorTime p50/p90 {:.4}/{:.4}",
                "", ea.p50, ea.p90, et.p50, et.p90
            );
        }
    }

    let by_estimator = fleet.accuracy_by_estimator();
    if by_estimator.iter().any(|e| e.estimator != "single") {
        println!("\naccuracy by journaled ensemble selection:");
        for e in &by_estimator {
            let acc = match &e.error_avg {
                Some(p) => format!("ErrorAvg p50/p90 {:.4}/{:.4}", p.p50, p.p90),
                None => "unscored".to_string(),
            };
            println!(
                "  {:<10} {:>3} session(s), {:>3} scored  {}",
                e.estimator, e.sessions, e.scored, acc
            );
        }
    }

    println!("\nslowest nodes fleet-wide (by total CPU):");
    for n in fleet.slowest_nodes(10) {
        println!(
            "  {:<24} node {:<3} {:<24} {:>2} run(s) cpu {:>9.2}ms reads {:>8}",
            n.name,
            n.node,
            n.op.as_deref().unwrap_or("<unresolved>"),
            n.sessions,
            n.cpu_ns as f64 / 1e6,
            n.logical_reads
        );
    }
}

fn main() {
    let flags = CLI.parse_env();
    let scale = WorkloadScale {
        data_scale: flags.float("--scale").unwrap_or(0.5),
        query_limit: usize::MAX,
        seed: flags.int("--seed").unwrap_or(42),
    };
    let query = flags.text("--query").unwrap_or("tpch-q01");
    let frames = flags.int("--frames").map_or(8, |n| n as usize);
    if let Some(dir) = flags.text("--fleet") {
        fleet_view(dir, scale);
        return;
    }
    if let Some(dir) = flags.text("--journal") {
        replay_journal(dir, query, frames, scale);
        return;
    }
    let t = tpch::build_db(scale, PhysicalDesign::RowStore);
    let queries = tpch::queries(&t);
    let q = queries.iter().find(|q| q.name == query).unwrap_or_else(|| {
        eprintln!("unknown query {query:?}; available:");
        for q in &queries {
            eprintln!("  {}", q.name);
        }
        std::process::exit(2);
    });

    println!("{}", q.plan.display_tree());
    let run = match flags.text("--trace") {
        Some(path) => {
            let sink = RingBufferSink::new(1 << 16);
            let run = execute_traced(&t.db, &q.plan, &ExecOptions::default(), &sink);
            let names = plan_node_names(&q.plan);
            let dropped = sink.dropped();
            let json = to_chrome_trace_with_drops(&sink.events(), &names, dropped);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("lqs_live: cannot write trace to {path}: {e}");
                std::process::exit(1);
            }
            if dropped > 0 {
                eprintln!(
                    "lqs_live: warning: ring buffer overflowed, {dropped} trace events \
                     dropped — the exported trace is truncated (marker included)"
                );
            }
            eprintln!("lqs_live: wrote Chrome trace to {path}");
            run
        }
        None => run_query(&t.db, &q.plan, &ExecOptions::default()),
    };
    if flags.on("--profile") {
        // The attribution view: live runs always carry per-node elapsed
        // time, so from_run only fails on a plan/run shape mismatch.
        let report = lqs::prof::ProfileReport::from_run(&q.plan, &run)
            .expect("live run carries attribution");
        report
            .check_exact()
            .expect("attribution conservation laws hold");
        print!("{}", report.render_text());
        println!(
            "query returned {} rows in {:.2}ms (virtual); self-times above sum exactly to total",
            run.rows_returned,
            run.duration_ns as f64 / 1e6
        );
        if let Some(path) = flags.text("--collapsed") {
            let text = report.collapsed_stacks();
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("lqs_live: cannot write collapsed stacks to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "lqs_live: wrote {} collapsed-stack line(s) to {path}",
                text.lines().count()
            );
        }
        return;
    }
    if run.snapshots.is_empty() {
        println!("(query finished before the first DMV poll — nothing to replay)");
        return;
    }

    // Sample `frames` snapshots evenly across the run, always ending on the
    // last one so the view closes at 100%.
    render_run(&q.plan, &t.db, &run, frames);
    println!(
        "query returned {} rows in {:.2}ms (virtual)",
        run.rows_returned,
        run.duration_ns as f64 / 1e6
    );
}
