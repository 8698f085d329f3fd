//! Hardened-ingress contract: a stalled (slow-loris) client costs one
//! worker, never the listener — concurrent scrapes complete promptly
//! (this test fails against a serial accept loop); trickled heads are cut
//! off with 408 at the head deadline; a saturated pool sheds with `503` +
//! `Retry-After`; non-GET methods get a proper `Allow` header; and a
//! panicking request handler costs its own request a 500, never the worker.

use lqs_history::ResolvedPlan;
use lqs_journal::{Journal, JournalConfig, JournalExecMode, SessionMeta};
use lqs_metrics::MetricsRegistry;
use lqs_server::{HistoryEndpoints, IngressConfig, MetricsServer, ServerConfig, SessionRegistry};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(ingress: IngressConfig) -> MetricsServer {
    MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::new(MetricsRegistry::new()),
        Arc::new(SessionRegistry::new()),
        ServerConfig {
            ingress,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// One full GET, returning the raw response (status line + headers + body).
fn raw_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // One write, then shutdown of the write side: a shed connection (503
    // sent before the request was read) must not trigger an EPIPE/RST
    // that would discard the buffered response.
    let _ = write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// Open a connection and send only a partial request head, never the
/// terminating blank line — the slow-loris shape.
fn start_loris(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /metr").expect("partial head");
    stream
}

#[test]
fn concurrent_scrape_completes_while_loris_holds_a_worker() {
    let server = start_server(IngressConfig {
        workers: 2,
        head_deadline: Duration::from_secs(10),
        ..IngressConfig::default()
    });
    let addr = server.addr();

    let _loris = start_loris(addr);
    // Let the acceptor hand the stalled connection to a worker.
    std::thread::sleep(Duration::from_millis(50));

    let started = Instant::now();
    let response = raw_get(addr, "/metrics");
    let elapsed = started.elapsed();
    assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
    // The stalled client has ~10 s of head budget left; a serial accept
    // loop would make this scrape wait behind it. The pool must not.
    assert!(
        elapsed < Duration::from_secs(3),
        "scrape took {elapsed:?} behind a stalled client"
    );
    server.stop();
}

#[test]
fn trickled_head_is_cut_off_with_408_and_counted() {
    let server = start_server(IngressConfig {
        workers: 2,
        head_deadline: Duration::from_millis(100),
        ..IngressConfig::default()
    });
    let addr = server.addr();

    let mut loris = start_loris(addr);
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    loris.read_to_string(&mut response).expect("read 408");
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "expected 408 for a trickled head, got: {response}"
    );

    let metrics = raw_get(addr, "/metrics");
    assert!(
        metrics.contains("lqs_http_head_timeouts_total 1"),
        "timeout not counted:\n{metrics}"
    );
    server.stop();
}

#[test]
fn saturated_pool_sheds_with_503_and_retry_after() {
    let server = start_server(IngressConfig {
        workers: 1,
        backlog: 1,
        head_deadline: Duration::from_secs(1),
    });
    let addr = server.addr();

    // First loris occupies the only worker, second fills the only queue
    // slot; the third connection must be shed inline by the acceptor.
    let _worker_hog = start_loris(addr);
    std::thread::sleep(Duration::from_millis(50));
    let _queue_hog = start_loris(addr);
    std::thread::sleep(Duration::from_millis(50));

    let response = raw_get(addr, "/metrics");
    assert!(
        response.starts_with("HTTP/1.1 503"),
        "expected shed, got: {response}"
    );
    assert!(
        response.contains("Retry-After: 1"),
        "missing Retry-After: {response}"
    );

    // Once the lorises expire (1 s head budget) the pool drains and serves
    // again, with the shed on the books.
    let started = Instant::now();
    let metrics = loop {
        let r = raw_get(addr, "/metrics");
        if r.starts_with("HTTP/1.1 200") {
            break r;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "pool never drained"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(
        metrics.contains("lqs_http_shed_total"),
        "shed not counted:\n{metrics}"
    );
    server.stop();
}

#[test]
fn non_get_method_gets_405_with_allow_header() {
    let server = start_server(IngressConfig::default());
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 405"), "got: {response}");
    assert!(
        response.contains("Allow: GET"),
        "missing Allow header: {response}"
    );

    // Accept-error telemetry is pre-registered so dashboards see an
    // explicit zero rather than a missing family.
    let metrics = raw_get(addr, "/metrics");
    assert!(metrics.contains("lqs_http_accept_errors_total 0"));
    server.stop();
}

#[test]
fn panicking_handler_answers_500_and_the_pool_survives() {
    // One journaled session and a resolver that panics on it: the shape of
    // a hostile journal blowing up an estimator replay under /history/*.
    let dir = std::env::temp_dir().join(format!("lqs-ingress-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(JournalConfig::new(&dir)).expect("open journal");
    let writer = journal
        .writer(SessionMeta {
            session_id: 0,
            name: "q0".into(),
            workload: "w".into(),
            n_nodes: 1,
            plan_fingerprint: 1,
            snapshot_target: 8,
            snapshot_interval_ns: None,
            cost_model: lqs_plan::CostModel::default(),
            exec_mode: JournalExecMode::Unknown,
            estimator: None,
        })
        .expect("open session journal");
    writer.flush();

    const WORKERS: usize = 2;
    let server = MetricsServer::start_with(
        "127.0.0.1:0",
        Arc::new(MetricsRegistry::new()),
        Arc::new(SessionRegistry::new()),
        ServerConfig {
            history: Some(HistoryEndpoints {
                journal_dir: dir.clone(),
                resolver: Some(Arc::new(|_: &SessionMeta| -> Option<ResolvedPlan> {
                    panic!("resolver blew up on a hostile journal")
                })),
                store: None,
                metrics: None,
            }),
            ingress: IngressConfig {
                workers: WORKERS,
                ..IngressConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // One more panicking request than there are workers: were a panic to
    // kill its worker, nobody would be left to serve the scrape below.
    for path in [
        "/history/sessions",
        "/history/percentiles",
        "/history/session/0/curve",
    ] {
        let response = raw_get(addr, path);
        assert!(
            response.starts_with("HTTP/1.1 500"),
            "{path}: expected 500, got: {response}"
        );
    }
    let metrics = raw_get(addr, "/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200"), "got: {metrics}");
    assert!(
        metrics.contains(&format!("lqs_http_handler_panics_total {}", WORKERS + 1)),
        "panics not counted:\n{metrics}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
