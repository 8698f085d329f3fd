//! End-to-end history stack: sessions journal themselves under a live
//! service, the `/history/*` endpoints serve deterministic journal-pure
//! analytics, prediction answers an explicit "no history" on unseen plans,
//! and predicted-cost admission falls back to the fixed limit until the
//! store warms.

use lqs_history::{scan_history, HistoryResolver, HistoryStore, ResolvedPlan};
use lqs_journal::{plan_fingerprint, Journal, JournalConfig, SessionMeta};
use lqs_metrics::MetricsRegistry;
use lqs_plan::PhysicalPlan;
use lqs_server::{
    HistoryEndpoints, MetricsServer, QueryService, QuerySpec, ServerConfig, SessionRegistry,
    SessionState,
};
use lqs_storage::Database;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

mod common;
use common::{body_of, http_get, mixed_db, mixed_plans, tmpdir};

/// The pool is released just *after* the terminal-state notify, so a
/// waiter can observe Succeeded a beat before the settlement lands; spin
/// briefly for it.
fn wait_settled(service: &QueryService) {
    for _ in 0..1000 {
        if service.predicted_outstanding_ns() == Some(0) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!(
        "predicted-cost pool never settled: {:?}",
        service.predicted_outstanding_ns()
    );
}

/// GET twice and assert the journal-backed response is byte-for-byte
/// reproducible; returns the body.
fn get_deterministic(addr: SocketAddr, path: &str) -> String {
    let a = http_get(addr, path);
    let b = http_get(addr, path);
    assert!(a.starts_with("HTTP/1.1 200 OK"), "{path}: {a}");
    assert_eq!(body_of(&a), body_of(&b), "{path} not deterministic");
    body_of(&a).to_string()
}

/// A resolver over the test catalog: journaled session names are the
/// query names they were submitted under.
fn resolver(db: Arc<Database>, plans: Vec<(String, Arc<PhysicalPlan>)>) -> impl HistoryResolver {
    move |meta: &SessionMeta| {
        plans
            .iter()
            .find(|(n, _)| *n == meta.name)
            .map(|(_, plan)| ResolvedPlan {
                plan: Arc::clone(plan),
                db: Arc::clone(&db),
            })
    }
}

#[test]
fn cold_prediction_is_explicit_no_history_and_admission_falls_back() {
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = mixed_plans(&db, t);
    let dir = tmpdir("predict");
    let store = Arc::new(HistoryStore::new());
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let service = QueryService::new(Arc::clone(&db), 2)
        .with_journal(journal)
        .with_admission_limit(8)
        .with_cost_admission(Arc::clone(&store), 10u64.pow(12));

    // Cold store: nothing is predicted (all three land before any
    // completion can warm the store), yet everything runs — the fixed
    // admission limit is the fallback policy for no-history plans.
    let handles: Vec<_> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| service.submit(QuerySpec::new(format!("q{i}"), Arc::clone(plan))))
        .collect();
    // Only the first submission is *guaranteed* to find the store empty
    // (a fast early completion may warm it mid-batch); the first is the
    // cold-start contract under test.
    assert!(
        handles[0].predicted_cost().is_none(),
        "cold store must not fabricate a prediction"
    );
    for h in &handles {
        h.wait_terminal();
        assert_eq!(h.state(), SessionState::Succeeded);
    }
    assert_eq!(store.total_runs(), 3, "completions warm the store");

    // Warm store: the same plans now come with predictions attached.
    let h = service.submit(QuerySpec::new("q0-again", Arc::clone(&plans[0])));
    h.wait_terminal();
    assert_eq!(h.state(), SessionState::Succeeded);
    let p = h.predicted_cost().expect("second sight is predicted");
    assert!(p.cpu_ns > 0.0 && p.runtime_ns > 0.0);
    wait_settled(&service);

    // A warm store and a starved pool shed by predicted cost: with one
    // worker busy on an admitted-while-idle session, the next predicted
    // submissions exceed the 1ns pool and are rejected at submit time.
    let dir2 = tmpdir("predict-shed");
    let journal2 = Journal::open(JournalConfig::new(&dir2)).expect("open journal");
    let shed = QueryService::new(Arc::clone(&db), 1)
        .with_journal(journal2)
        .with_admission_limit(8)
        .with_cost_admission(Arc::clone(&store), 1);
    let first = shed.submit(QuerySpec::new("s0", Arc::clone(&plans[1])));
    let second = shed.submit(QuerySpec::new("s1", Arc::clone(&plans[1])));
    assert_eq!(
        second.state(),
        SessionState::Rejected,
        "predicted cost over an exhausted pool is shed at submit"
    );
    first.wait_terminal();
    assert_eq!(first.state(), SessionState::Succeeded);
    wait_settled(&shed);
    shed.shutdown();

    // The HTTP prediction surface over the same store.
    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::new(MetricsRegistry::new()),
        Arc::new(SessionRegistry::new()),
        ServerConfig {
            history: Some(HistoryEndpoints {
                journal_dir: dir.clone(),
                resolver: None,
                store: Some(Arc::clone(&store)),
                metrics: None,
            }),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Known fingerprint: an exact-basis prediction.
    let fp = plan_fingerprint(&plans[0]);
    let body = get_deterministic(addr, &format!("/history/predict?fingerprint={fp}"));
    let parsed = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(parsed["no_history"].as_bool(), Some(false));
    assert_eq!(parsed["basis"]["kind"].as_str(), Some("exact"));
    assert!(parsed["prediction"]["cpu_ns"].as_f64().unwrap() > 0.0);

    // Unseen fingerprint: explicitly no history, never a zero estimate.
    let body = get_deterministic(addr, "/history/predict?fingerprint=987654321");
    let parsed = serde_json::from_str(&body).expect("valid JSON");
    assert_eq!(parsed["no_history"].as_bool(), Some(true));
    assert!(
        matches!(parsed["prediction"], serde_json::Value::Null),
        "no fabricated numbers"
    );

    // Malformed / missing parameters are 400s, not scans.
    assert!(http_get(addr, "/history/predict").starts_with("HTTP/1.1 400"));
    assert!(http_get(addr, "/history/predict?fingerprint=nope").starts_with("HTTP/1.1 400"));

    server.stop();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn history_endpoints_are_deterministic_and_healthz_reports() {
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = mixed_plans(&db, t);
    let dir = tmpdir("endpoints");
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let service = QueryService::new(Arc::clone(&db), 2).with_journal(journal);
    for (i, plan) in plans.iter().enumerate() {
        service.submit(
            QuerySpec::new(format!("q{i}"), Arc::clone(plan)).with_workload(format!("w{}", i % 2)),
        );
    }
    service.wait_all();
    service.shutdown();

    let catalog: Vec<(String, Arc<PhysicalPlan>)> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("q{i}"), Arc::clone(p)))
        .collect();
    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::new(MetricsRegistry::new()),
        Arc::new(SessionRegistry::new()),
        ServerConfig {
            history: Some(HistoryEndpoints {
                journal_dir: dir.clone(),
                resolver: Some(Arc::new(resolver(Arc::clone(&db), catalog))),
                store: None,
                metrics: None,
            }),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // /history/sessions: every journaled session, accuracy scored via the
    // resolver, byte-for-byte reproducible across scans.
    let body = get_deterministic(addr, "/history/sessions");
    let parsed = serde_json::from_str(&body).expect("valid JSON");
    let rows = parsed["sessions"].as_array().expect("sessions array");
    assert_eq!(rows.len(), plans.len());
    for row in rows {
        assert_eq!(row["outcome"].as_str(), Some("succeeded"));
        assert!(row["total_cpu_ns"].as_i64().unwrap() > 0);
        assert!(
            row["error_avg"].as_f64().is_some(),
            "resolver enables the accuracy replay"
        );
    }

    // A windowed scan past every session is empty but still well-formed.
    let empty = get_deterministic(addr, "/history/sessions?since=99999999999999");
    let parsed = serde_json::from_str(&empty).expect("valid JSON");
    assert_eq!(parsed["sessions"].as_array().unwrap().len(), 0);

    // Per-session curve, addressed by the key the session listing gave us.
    let key = rows[0]["key"].as_str().expect("session key").to_string();
    let body = get_deterministic(addr, &format!("/history/session/{key}/curve"));
    let parsed = serde_json::from_str(&body).expect("valid JSON");
    let curve = parsed["curve"].as_array().expect("curve array");
    assert!(!curve.is_empty());
    let last = curve.last().unwrap();
    assert!((last["progress"].as_f64().unwrap() - 1.0).abs() < 1e-9);
    let nodes = parsed["slowest_nodes"].as_array().expect("nodes array");
    assert!(
        nodes[0]["op"].as_str().is_some(),
        "resolver names operators"
    );
    assert!(http_get(addr, "/history/session/e9-s9/curve").starts_with("HTTP/1.1 404"));

    // Per-workload percentiles, with §5 accuracy columns.
    let body = get_deterministic(addr, "/history/percentiles");
    assert!(body.contains("\"error_avg\""));
    let filtered = get_deterministic(addr, "/history/percentiles?workload=w0");
    assert!(filtered.contains("w0") && !filtered.contains("w1"));

    // Parameter validation happens before any journal I/O.
    assert!(http_get(addr, "/history/sessions?since=abc").starts_with("HTTP/1.1 400"));

    // /healthz: liveness plus journal-dir status; nothing was recovered
    // into this server's registry.
    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200 OK"));
    let parsed = serde_json::from_str(body_of(&health)).expect("valid JSON");
    assert_eq!(parsed["status"].as_str(), Some("ok"));
    assert_eq!(parsed["sessions_recovered"].as_u64(), Some(0));
    assert_eq!(parsed["journal"]["dir_exists"].as_bool(), Some(true));
    assert!(parsed["journal"]["segments"].as_i64().unwrap() >= 3);

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Journal `names` (one session each, ids in submission order) under a new
/// epoch of `dir`, with segments small enough that every session rotates.
fn journal_epoch(dir: &std::path::Path, db: &Arc<Database>, names: &[(&str, &Arc<PhysicalPlan>)]) {
    let journal =
        Journal::open(JournalConfig::new(dir).with_segment_max_bytes(2048)).expect("open journal");
    let service = QueryService::new(Arc::clone(db), 2).with_journal(journal);
    for (name, plan) in names {
        service.submit(QuerySpec::new(*name, Arc::clone(plan)));
    }
    service.wait_all();
    service.shutdown();
}

/// Segment paths of session `(epoch, id)`, ascending.
fn segments_of(dir: &std::path::Path, epoch: u32, id: u64) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            lqs_journal::parse_segment_file_name(&name)
                .is_some_and(|(e, s, _)| e == epoch && s == id)
        })
        .collect();
    out.sort();
    out
}

/// Leave `path` listed but unreadable-as-NotFound — what a scan sees when a
/// retention sweep deletes the file between directory listing and read.
#[cfg(unix)]
fn sweep_after_listing(path: &std::path::Path) {
    std::fs::remove_file(path).unwrap();
    std::os::unix::fs::symlink(path.with_extension("swept"), path).unwrap();
}

/// The route-scoped curve read (list, then read one session, no accuracy
/// replay) must answer exactly what rendering that session out of a full
/// `scan_history` answers — over two epochs, rotated segments, a torn
/// tail, sessions swept mid-scan, both key forms, and time windows.
#[cfg(unix)]
#[test]
fn curve_route_matches_a_full_scan_byte_for_byte() {
    let (db, t) = mixed_db();
    let db = Arc::new(db);
    let plans = mixed_plans(&db, t);
    let dir = tmpdir("curve-equivalence");

    // Epoch 0 runs q0,q1,q2 as ids 0,1,2; epoch 1 runs them rotated, so the
    // same id names sessions with different virtual-time windows.
    journal_epoch(
        &dir,
        &db,
        &[("q0", &plans[0]), ("q1", &plans[1]), ("q2", &plans[2])],
    );
    journal_epoch(
        &dir,
        &db,
        &[("q1", &plans[1]), ("q2", &plans[2]), ("q0", &plans[0])],
    );
    assert!(
        segments_of(&dir, 0, 0).len() > 1,
        "2 KiB segments must rotate"
    );
    // e0-s1: torn tail (the 9-byte sentinel frame gone, the frame before it
    // cut mid-payload).
    let tail = segments_of(&dir, 0, 1).pop().unwrap();
    let bytes = std::fs::read(&tail).unwrap();
    std::fs::write(&tail, &bytes[..bytes.len() - 19]).unwrap();
    // e1-s1: swept before any of it was read; e1-s2: swept after its first
    // segment was.
    for path in segments_of(&dir, 1, 1) {
        sweep_after_listing(&path);
    }
    for path in segments_of(&dir, 1, 2).iter().skip(1) {
        sweep_after_listing(path);
    }

    let catalog: Vec<(String, Arc<PhysicalPlan>)> = plans
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("q{i}"), Arc::clone(p)))
        .collect();
    let resolve: Arc<dyn HistoryResolver + Send + Sync> =
        Arc::new(resolver(Arc::clone(&db), catalog));
    let registry = Arc::new(MetricsRegistry::new());
    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::clone(&registry),
        Arc::new(SessionRegistry::new()),
        ServerConfig {
            history: Some(HistoryEndpoints {
                journal_dir: dir.clone(),
                resolver: Some(Arc::clone(&resolve)),
                store: None,
                metrics: None,
            }),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    let full = scan_history(&dir, None, Some(&*resolve)).expect("full scan");
    assert_eq!(full.sessions_swept, 1, "e1-s1 is gone entirely");
    assert_eq!(full.sessions.len(), 5);
    // Windows cut from the sessions' own virtual times, so each keeps some
    // sessions and drops others.
    let earliest_end = full.sessions.iter().map(|s| s.runtime_ns).min().unwrap();
    let latest_end = full.sessions.iter().map(|s| s.runtime_ns).max().unwrap();
    assert!(earliest_end < latest_end);
    let windows: [(Option<u64>, Option<u64>); 6] = [
        (None, None),
        (Some(0), None),
        (Some(earliest_end + 1), None),
        (Some(latest_end), Some(u64::MAX)),
        (None, Some(0)),
        (Some(latest_end + 1), None),
    ];
    let keys = [
        "e0-s0", "e0-s1", "e0-s2", "e1-s0", "e1-s1", "e1-s2", "0", "1", "2", "e9-s9", "7", "e1",
    ];
    let (mut served, mut windowed_out) = (0, 0);
    for (since, until) in windows {
        let params: Vec<String> = [
            since.map(|v| format!("since={v}")),
            until.map(|v| format!("until={v}")),
        ]
        .into_iter()
        .flatten()
        .collect();
        let query = if params.is_empty() {
            String::new()
        } else {
            format!("?{}", params.join("&"))
        };
        let window = Some((since.unwrap_or(0), until.unwrap_or(u64::MAX)));
        let fleet = scan_history(&dir, window, Some(&*resolve)).expect("full scan");
        for key in keys {
            let path = format!("/history/session/{key}/curve{query}");
            let response = http_get(addr, &path);
            match fleet.session(key) {
                Some(expected) => {
                    assert!(
                        response.starts_with("HTTP/1.1 200 OK"),
                        "{path}: {response}"
                    );
                    assert_eq!(
                        body_of(&response),
                        lqs_server::http::curve_json(expected),
                        "{path}"
                    );
                    served += 1;
                }
                None => {
                    assert!(response.starts_with("HTTP/1.1 404"), "{path}: {response}");
                    if full.session(key).is_some() {
                        windowed_out += 1;
                    }
                }
            }
        }
    }
    assert!(
        served >= 8 * 2,
        "the comparison must have had something to compare"
    );
    assert!(
        windowed_out > 0,
        "a window that excludes the session is a 404"
    );
    // The bare id falls back past the swept newer epoch.
    assert_eq!(full.session("1").unwrap().key(), "e0-s1");
    assert!(full.session("1").unwrap().corrupt_records > 0, "torn tail");

    // The cost shows in the server's own registry: a curve request reads
    // one session's bytes, a fleet request the whole directory's.
    http_get(addr, "/history/sessions");
    let metrics = registry.render();
    let counter = |series: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{series} missing:\n{metrics}"))
    };
    assert_eq!(
        counter("lqs_history_scan_bytes_total{route=\"sessions\"}"),
        full.bytes_scanned
    );
    assert_eq!(
        counter("lqs_history_scan_sessions_total{route=\"sessions\"}"),
        5
    );
    let curve_requests = (windows.len() * (keys.len() - 1)) as u64; // "e1" never reads
    assert!(
        counter("lqs_history_scan_bytes_total{route=\"curve\"}")
            < curve_requests * full.bytes_scanned / 2,
        "curve requests must not pay for the whole directory"
    );
    assert!(metrics.contains("lqs_history_scan_seconds_count{route=\"curve\"}"));

    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
