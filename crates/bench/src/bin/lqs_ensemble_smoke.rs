//! `lqs_ensemble_smoke` — end-to-end check for the competing-estimator
//! ensemble layer.
//!
//! Runs a small mixed workload through a journaled query service polled by
//! an ensemble-enabled [`RegistryPoller`], then checks the whole loop:
//!
//! * `/metrics` carries `lqs_estimator_error_count{estimator=...}` samples
//!   for every member plus the composed `"ensemble"` figure, and each
//!   online figure is **bit-identical** to an offline replay of the same
//!   recorded snapshot trace — the determinism contract of
//!   `EnsembleEstimator::replay`;
//! * `/sessions` lists the replay-final selected member and the full
//!   weight vector per session;
//! * the journal carries the selection as a trailing estimator record, and
//!   the history scan segments §5 accuracy by selected estimator.
//!
//! Everything printed to stdout derives from virtual clocks, journal
//! bytes, and deterministic replays, so CI runs the binary twice and diffs
//! the output byte-for-byte. Exits non-zero on the first violated check.
//!
//! ```text
//! lqs_ensemble_smoke [--out DIR]
//! ```

use lqs::journal::scan_dir;
use lqs::prelude::*;
use lqs_bench::{fail, http_get, http_get_deterministic};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut journal_dir = PathBuf::from("target/lqs-ensemble-smoke-journal");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                journal_dir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}\nusage: lqs_ensemble_smoke [--out DIR]");
                exit(2);
            }
        }
    }
    // Fresh directory every run: printed session keys must not depend on
    // prior runs.
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create journal dir: {e}")));

    // Three plan shapes over one small table, each its own workload class
    // so accuracy lands in distinct labeled histogram families.
    let mut table = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..4000i64 {
        table
            .insert(vec![Value::Int(i), Value::Int(i % 64)])
            .unwrap();
    }
    let mut db = Database::new();
    let t = db.add_table_analyzed(table);
    let mut plans: Vec<(&str, Arc<PhysicalPlan>)> = Vec::new();
    {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(t);
        plans.push(("scan", Arc::new(b.finish(scan))));
    }
    {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(32i64)), true);
        let sort = b.sort(scan, vec![SortKey::desc(0)]);
        plans.push(("filter-sort", Arc::new(b.finish(sort))));
    }
    {
        let mut b = PlanBuilder::new(&db);
        let scan = b.table_scan(t);
        let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
        plans.push(("aggregate", Arc::new(b.finish(agg))));
    }
    let db = Arc::new(db);

    let ensemble_config = EnsembleConfig::standard(42);
    let registry = Arc::new(MetricsRegistry::new());
    let journal = Journal::open(JournalConfig::new(&journal_dir))
        .unwrap_or_else(|e| fail(&format!("cannot open journal: {e}")));
    let service = QueryService::with_metrics(
        Arc::clone(&db),
        2,
        ServiceMetrics::new(Arc::clone(&registry)),
    )
    .with_journal(journal);
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    )
    .with_metrics(PollerMetrics::new(Arc::clone(&registry)))
    .with_ensemble(ensemble_config.clone());
    let server = MetricsServer::start(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Arc::clone(service.registry()),
    )
    .unwrap_or_else(|e| fail(&format!("cannot start metrics server: {e}")));

    for (workload, plan) in &plans {
        service.submit(
            QuerySpec::new(format!("{workload}-q"), Arc::clone(plan)).with_workload(*workload),
        );
    }
    service.wait_all();
    poller.poll(); // first terminal sighting scores every member + ensemble

    // The determinism contract: each online per-estimator accuracy figure
    // in the registry must be bit-identical (f64 ==) to an offline replay
    // of the same session's full snapshot trace through a freshly built
    // ensemble.
    let handles = service.registry().sessions();
    if handles.len() != plans.len() {
        fail(&format!("registry has {} sessions", handles.len()));
    }
    for handle in handles.iter() {
        let Some(SessionResult::Completed(run)) = handle.result() else {
            fail(&format!("session {} did not complete", handle.name()));
        };
        let ens =
            EnsembleEstimator::build(handle.plan(), &db, &run.cost_model, ensemble_config.clone());
        let replay = ens.replay(&run.snapshots);
        let workload = handle.workload().to_owned();
        let mut scored: Vec<(&str, f64, f64)> = ens
            .members()
            .zip(&replay.member_estimates)
            .map(|(m, est)| (m.id(), error_count(&run, est), error_time(&run, est)))
            .collect();
        scored.push((
            "ensemble",
            error_count(&run, &replay.estimates),
            error_time(&run, &replay.estimates),
        ));
        for (estimator, offline_count, offline_time) in &scored {
            let labels = [("estimator", *estimator), ("workload", workload.as_str())];
            let online_count = registry.histogram("lqs_estimator_error_count", "", &labels);
            let online_time = registry.histogram("lqs_estimator_error_time", "", &labels);
            if online_count.count() != 1 || online_time.count() != 1 {
                fail(&format!(
                    "{workload}/{estimator}: expected exactly one online accuracy sample"
                ));
            }
            if online_count.sum() != *offline_count || online_time.sum() != *offline_time {
                fail(&format!(
                    "{workload}/{estimator}: online accuracy ({}, {}) is not bit-identical \
                     to offline replay ({offline_count}, {offline_time})",
                    online_count.sum(),
                    online_time.sum(),
                ));
            }
        }
        let live = handle
            .estimator_selection()
            .unwrap_or_else(|| fail(&format!("{workload}: no live selection stashed")));
        let picked = live.selected;
        if replay.selection.as_ref() != Some(&live) {
            fail(&format!(
                "{workload}: live selection {picked} differs from replay selection {:?}",
                replay.selection
            ));
        }
        let errs: Vec<String> = scored
            .iter()
            .map(|(id, c, _)| format!("{id}={c:.6}"))
            .collect();
        println!(
            "{workload:<12} selected={picked:<8} snapshots={} {}",
            run.snapshots.len(),
            errs.join(" ")
        );
    }

    // /metrics: family presence plus the per-estimator sample counts (the
    // full exposition holds wall-clock families, so only virtual-clock
    // lines are checked, never printed).
    let (status, metrics_body) = http_get(server.addr(), "/metrics");
    if status != 200 {
        fail(&format!("GET /metrics returned {status}"));
    }
    for family in [
        "lqs_estimator_error_count",
        "lqs_estimator_error_time",
        "lqs_accuracy_sessions_total",
    ] {
        if !metrics_body.contains(&format!("# TYPE {family} ")) {
            fail(&format!("/metrics missing family {family}"));
        }
    }
    if !metrics_body.contains(&format!("lqs_accuracy_sessions_total {}", plans.len())) {
        fail(&format!(
            "expected {} scored sessions in /metrics",
            plans.len()
        ));
    }
    for (workload, _) in &plans {
        for estimator in ["lqs", "dne", "tgn", "norefine", "pmax", "safe", "ensemble"] {
            let sample = format!(
                "lqs_estimator_error_count_count{{estimator=\"{estimator}\",workload=\"{workload}\"}} 1"
            );
            if !metrics_body.contains(&sample) {
                fail(&format!("/metrics missing sample {sample}"));
            }
        }
    }
    println!(
        "metrics: {} accuracy samples per workload (6 members + ensemble), all bit-identical to replay",
        7 * plans.len()
    );

    // /sessions: every row carries the replay-final selection + weights,
    // and two scrapes are byte-for-byte identical.
    let (status, sessions_body) = http_get_deterministic(server.addr(), "/sessions");
    if status != 200 {
        fail(&format!("GET /sessions returned {status}"));
    }
    let parsed = serde_json::from_str(&sessions_body)
        .unwrap_or_else(|e| fail(&format!("/sessions is not valid JSON: {e:?}")));
    let rows = parsed
        .as_array()
        .unwrap_or_else(|| fail("/sessions is not a JSON array"));
    if rows.len() != plans.len() {
        fail(&format!("/sessions has {} rows", rows.len()));
    }
    for row in rows {
        let workload = row.get("workload").and_then(|w| w.as_str()).unwrap_or("?");
        let selected = row
            .get("estimator")
            .and_then(|e| e.as_str())
            .unwrap_or_else(|| fail(&format!("{workload}: /sessions row has no estimator")));
        let weights = match row.get("weights") {
            Some(serde_json::Value::Object(fields)) => fields,
            _ => fail(&format!("{workload}: /sessions row has no weights object")),
        };
        if weights.len() != 6 {
            fail(&format!(
                "{workload}: expected 6 member weights, got {}",
                weights.len()
            ));
        }
        let total: f64 = weights.iter().filter_map(|(_, v)| v.as_f64()).sum();
        if (total - 1.0).abs() > 1e-9 {
            fail(&format!("{workload}: weights sum to {total}, not 1"));
        }
        println!("session {workload:<12} estimator={selected} weights normalized");
    }

    server.stop();
    service.shutdown(); // clean-shutdown sentinel + flush

    // The journal carries the selection: every session ends with a trailing
    // estimator record, and the history scan segments accuracy by it.
    let scan = scan_dir(&journal_dir).unwrap_or_else(|e| fail(&format!("scan failed: {e}")));
    if scan.sessions.len() != plans.len() {
        fail(&format!(
            "journal scan found {} sessions",
            scan.sessions.len()
        ));
    }
    for s in &scan.sessions {
        let name = s.meta.as_ref().map(|m| m.name.as_str()).unwrap_or("?");
        let est = s
            .estimator
            .as_ref()
            .unwrap_or_else(|| fail(&format!("journaled session {name} has no estimator record")));
        if est.weights.len() != 6 {
            fail(&format!(
                "journaled session {name} has {} weights",
                est.weights.len()
            ));
        }
        println!("journal {name:<14} estimator={}", est.selected);
    }
    let catalog: Vec<(String, Arc<PhysicalPlan>)> = plans
        .iter()
        .map(|(w, p)| (format!("{w}-q"), Arc::clone(p)))
        .collect();
    let resolver = {
        let db = Arc::clone(&db);
        move |meta: &lqs::journal::SessionMeta| {
            catalog
                .iter()
                .find(|(name, _)| *name == meta.name)
                .map(|(_, plan)| ResolvedPlan {
                    plan: Arc::clone(plan),
                    db: Arc::clone(&db),
                })
        }
    };
    let fleet = lqs::history::history_from_scan(&scan, Some(&resolver as &dyn HistoryResolver));
    let by_estimator = fleet.accuracy_by_estimator();
    if by_estimator.is_empty() {
        fail("history scan segments no estimators");
    }
    for acc in &by_estimator {
        if acc.scored == 0 {
            fail(&format!(
                "estimator {} segmented but unscored",
                acc.estimator
            ));
        }
        let avg = acc
            .error_avg
            .as_ref()
            .unwrap_or_else(|| fail(&format!("estimator {} has no ErrorAvg", acc.estimator)));
        println!(
            "history estimator={:<8} sessions={} ErrorAvg p50={:.4}",
            acc.estimator, acc.sessions, avg.p50
        );
    }

    println!(
        "lqs_ensemble_smoke: OK — {} sessions, online accuracy bit-identical to replay, \
         selections journaled and segmented",
        plans.len()
    );
}
