//! The scrape endpoint: a minimal HTTP/1.1 server over
//! `std::net::TcpListener` exposing the metrics registry, the session
//! registry, service health, and the journal-backed history layer.
//! Hand-rolled on purpose — the workspace is vendor-only, and a scrape
//! server needs a handful of GET routes, not a framework.
//!
//! Routes:
//! * `GET /metrics` — Prometheus text exposition (0.0.4) of the shared
//!   [`MetricsRegistry`].
//! * `GET /sessions` — JSON array of every registered session's id, name,
//!   workload, lifecycle state, and latest-snapshot position.
//! * `GET /healthz` — liveness + build info: version, uptime, session
//!   counts (running, and registered ones that recovery rebuilt from the
//!   journal), journal-directory status.
//! * `GET /history/sessions[?since=NS&until=NS]` — journaled sessions in
//!   the window, as JSON (scanned fresh from the journal directory).
//! * `GET /history/session/{key}/curve` — one session's progress-over-time
//!   curve and per-node time attribution (`key` is `e{epoch}-s{id}` or a
//!   bare session id). Reads only that session's segments.
//! * `GET /history/percentiles[?workload=W]` — per-workload p50/p90/p99 of
//!   runtime, CPU, logical reads, ErrorAvg, ErrorTime.
//! * `GET /history/predict?fingerprint=F` — predicted CPU/IO/runtime for a
//!   plan fingerprint from the live [`HistoryStore`]; answers an explicit
//!   `no_history` (never a zero estimate) when the store can't help.
//! * `GET /profile/{session}` — a completed session's exact per-operator
//!   time attribution as JSON (self/inclusive virtual ns, collapsed
//!   flamegraph stacks inline); `?format=collapsed` serves the bare
//!   collapsed-stack text for flamegraph tooling. Sessions without a
//!   completed run answer an explicit `available: false`, never a guess.
//! * `GET /alerts` — the live watchdog's current stalled/diverging
//!   classifications as JSON, ordered by session id (requires a
//!   [`crate::Watchdog`] wired via [`ServerConfig::watchdog`]).
//!
//! The three journal-backed routes read the journal directory afresh on
//! every request (the two fleet routes scan all of it, the curve route
//! lists it and reads one session), so they are computed purely from
//! journal bytes: two scrapes over an unchanged directory return
//! byte-for-byte identical bodies. What each request cost is recorded as
//! `lqs_history_scan_seconds`, `lqs_history_scan_bytes_total` and
//! `lqs_history_scan_sessions_total`, labelled by `route`.
//!
//! Ingress is a bounded worker pool, not a serial loop: one acceptor
//! thread hands connections to [`IngressConfig::workers`] service threads
//! over a bounded channel. A slow-loris client burns one worker for at
//! most the head deadline (408), never the acceptor; when every worker and
//! queue slot is busy the acceptor sheds inline with `503` +
//! `Retry-After` instead of queueing unboundedly. A handler that panics
//! (a hostile journal reaching an estimator replay, say) costs its own
//! request a `500`, never the worker (`lqs_http_handler_panics_total`).
//! Accept errors are
//! counted (`lqs_http_accept_errors_total`), not silently dropped, and
//! shutdown drains: queued connections are served before workers exit.

use crate::metrics::state_label;
use crate::registry::SessionRegistry;
use crate::session::{SessionDurability, SessionHandle, SessionId, SessionResult};
use crate::watchdog::Watchdog;
use lqs_history::{
    scan_history, scan_session_curve, FleetHistory, HistoryMetrics, HistoryResolver, HistoryStore,
    Pctls, ResourcePrediction, SessionHistory,
};
use lqs_journal::Journal;
use lqs_metrics::MetricsRegistry;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head accepted; anything longer is rejected with 431.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Per-connection read/write budget once the head has arrived.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Value of the `Retry-After` header on `503` shed responses, seconds.
const RETRY_AFTER_SECS: u32 = 1;

/// Sizing and patience knobs for the hardened HTTP ingress.
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Connection-service threads. Each serves one connection at a time;
    /// a stalled client therefore costs one worker, not the listener.
    pub workers: usize,
    /// Bounded hand-off queue between the acceptor and the workers.
    /// When full, new connections are shed with `503` + `Retry-After`.
    pub backlog: usize,
    /// Total wall-clock budget for the request head to arrive. A client
    /// trickling bytes (slow loris) is cut off with `408` at this bound.
    pub head_deadline: Duration,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            workers: 4,
            backlog: 8,
            head_deadline: Duration::from_secs(2),
        }
    }
}

/// Configuration for the `/history/*` routes.
pub struct HistoryEndpoints {
    /// Journal directory the history routes read, afresh on every request:
    /// `/history/sessions` and `/history/percentiles` scan all of it, the
    /// curve route lists it and reads only the addressed session.
    pub journal_dir: PathBuf,
    /// Plan resolver for estimator-grade analytics (operator names,
    /// ErrorAvg/ErrorTime in percentiles). `None` serves journal-pure
    /// curves and attribution only.
    pub resolver: Option<Arc<dyn HistoryResolver + Send + Sync>>,
    /// The live prediction store behind `/history/predict`. `None` makes
    /// that one route answer 404.
    pub store: Option<Arc<HistoryStore>>,
    /// Prediction telemetry for HTTP-issued predictions and cold misses.
    /// The one server-side handle still optional: the ledger builds this
    /// struct literally, so the field's type rides with ROADMAP item 1.
    pub metrics: Option<HistoryMetrics>,
}

/// Optional server state beyond the two original routes.
#[derive(Default)]
pub struct ServerConfig {
    /// Enables the `/history/*` routes when set.
    pub history: Option<HistoryEndpoints>,
    /// Enables the `/alerts` route when set. The server only *reads* the
    /// watchdog's current alerts; whoever owns the sweep loop shares the
    /// same handle and drives [`Watchdog::sweep`] on its own cadence.
    pub watchdog: Option<Arc<Mutex<Watchdog>>>,
    /// The service's journal, surfaced in `/healthz` as circuit-breaker
    /// state (`state`, `trips`, `recoveries`, `durable`). `None` omits the
    /// `breaker` field.
    pub journal: Option<Arc<Journal>>,
    /// Ingress worker-pool sizing and deadlines.
    pub ingress: IngressConfig,
}

struct ServerState {
    metrics: Arc<MetricsRegistry>,
    sessions: Arc<SessionRegistry>,
    config: ServerConfig,
    started: Instant,
}

/// A background HTTP server exposing `/metrics`, `/sessions`, `/healthz`,
/// and (when configured) `/history/*`.
///
/// Bind to port 0 for an ephemeral port ([`MetricsServer::addr`] reports
/// the one chosen). The server stops — promptly, via a self-connect that
/// unblocks the acceptor — on [`MetricsServer::stop`] or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` and start serving `metrics`, `sessions` and whatever
    /// else `config` enables on background threads.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        metrics: Arc<MetricsRegistry>,
        sessions: Arc<SessionRegistry>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(ServerState {
            metrics,
            sessions,
            config,
            started: Instant::now(),
        });
        // Bounded hand-off: the acceptor never queues more than `backlog`
        // connections ahead of the workers — past that it sheds with 503.
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(state.config.ingress.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..state.config.ingress.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("lqs-http-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &state))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let thread = {
            let stop = Arc::clone(&stop);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("lqs-metrics-http".into())
                .spawn(move || accept_loop(&listener, &stop, &state, &tx))?
        };
        Ok(MetricsServer {
            addr: local,
            stop,
            thread: Some(thread),
            workers,
        })
    }

    /// The bound address (the real port, when started on port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL of the server, e.g. `http://127.0.0.1:43211`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stop serving and join the acceptor thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The acceptor blocks in `accept`; a throwaway connection wakes it
        // so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
        // Graceful drain: joining the acceptor dropped the channel sender,
        // so each worker finishes its in-flight connection, serves whatever
        // was already queued, then sees the disconnect and exits. No
        // accepted connection is abandoned mid-response.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    state: &ServerState,
    tx: &mpsc::SyncSender<TcpStream>,
) {
    let accept_errors = state.metrics.counter(
        "lqs_http_accept_errors_total",
        "Listener accept() failures (transient resource exhaustion, aborted handshakes)",
        &[],
    );
    let shed = state.metrics.counter(
        "lqs_http_shed_total",
        "Connections shed with 503 + Retry-After because every ingress worker and queue slot was busy",
        &[],
    );
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                // Transient accept failures (EMFILE, ECONNABORTED, ...)
                // must not kill the listener — count them and keep
                // accepting. Silent `continue` was the old bug: exhaustion
                // storms were invisible in telemetry.
                accept_errors.inc();
                continue;
            }
        };
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(stream)) => {
                // Backpressure, made visible: answer right here on the
                // acceptor with 503 + Retry-After rather than letting the
                // kernel backlog grow an invisible queue of doomed scrapes.
                shed.inc();
                let _ = reject_busy(stream);
            }
            Err(mpsc::TrySendError::Disconnected(_)) => return,
        }
    }
}

/// One ingress worker: serve queued connections until the acceptor hangs
/// up, then drain and exit.
fn worker_loop(rx: &Mutex<mpsc::Receiver<TcpStream>>, state: &ServerState) {
    let handler_panics = state.metrics.counter(
        "lqs_http_handler_panics_total",
        "Requests answered 500 because their handler panicked (the ingress worker survives)",
        &[],
    );
    loop {
        // Hold the lock only while waiting for a connection, never while
        // serving one — otherwise the pool would be a serial loop in
        // disguise. A receiver has no state of ours to leave half-written,
        // so a lock poisoned by a panicking holder still hands out work.
        let stream = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(mut stream) = stream else { return };
        // A panicking handler must cost its own request, not this worker:
        // `workers` such requests would otherwise leave nobody serving.
        // Handlers build their body before writing any of it, so the
        // connection is still clean for the 500.
        let served = catch_unwind(AssertUnwindSafe(|| serve_connection(&mut stream, state)));
        if served.is_err() {
            handler_panics.inc();
            let _ = respond(&mut stream, 500, "text/plain", "request handler panicked\n");
        }
    }
}

/// Shed one connection with `503` + `Retry-After`. Uses a short write
/// budget of its own: this runs on the acceptor, and a client too slow to
/// take a 60-byte response does not get to stall accept.
fn reject_busy(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_millis(200)))?;
    respond_with(
        &mut stream,
        503,
        "text/plain",
        "all ingress workers busy, retry shortly\n",
        &[("Retry-After", &RETRY_AFTER_SECS.to_string())],
    )
}

fn serve_connection(stream: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = match read_head(stream, state.config.ingress.head_deadline)? {
        HeadOutcome::Head(head) => head,
        HeadOutcome::TooLarge => {
            return respond(stream, 431, "text/plain", "request head too large\n")
        }
        HeadOutcome::TimedOut => {
            // Slow loris: the head trickled in slower than the deadline.
            // Cut the connection loose with 408 and free the worker.
            state
                .metrics
                .counter(
                    "lqs_http_head_timeouts_total",
                    "Connections dropped with 408 because the request head missed its deadline",
                    &[],
                )
                .inc();
            return respond(stream, 408, "text/plain", "request head timed out\n");
        }
    };
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond_with(
            stream,
            405,
            "text/plain",
            "only GET is supported\n",
            &[("Allow", "GET")],
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/metrics" => respond(
            stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &state.metrics.render(),
        ),
        "/sessions" => respond(
            stream,
            200,
            "application/json",
            &sessions_json(&state.sessions),
        ),
        "/healthz" => respond(stream, 200, "application/json", &healthz_json(state)),
        "/alerts" => serve_alerts(stream, state),
        _ if path.starts_with("/history/") => serve_history(stream, state, path, query),
        _ if path.starts_with("/profile/") => serve_profile(stream, state, path, query),
        "/" => respond(
            stream,
            200,
            "text/plain",
            "lqs metrics server\n\
             \x20 GET /metrics                        Prometheus text exposition\n\
             \x20 GET /sessions                       session registry as JSON\n\
             \x20 GET /healthz                        liveness and build info\n\
             \x20 GET /history/sessions               journaled sessions (since=, until=)\n\
             \x20 GET /history/session/{key}/curve    one session's progress curve\n\
             \x20 GET /history/percentiles            per-workload p50/p90/p99 (workload=)\n\
             \x20 GET /history/predict                predicted resources (fingerprint=)\n\
             \x20 GET /profile/{session}              per-operator time attribution (format=collapsed)\n\
             \x20 GET /alerts                         live watchdog alerts as JSON\n",
        ),
        _ => respond(stream, 404, "text/plain", "not found\n"),
    }
}

fn serve_history(
    stream: &mut TcpStream,
    state: &ServerState,
    path: &str,
    query: &str,
) -> std::io::Result<()> {
    let Some(history) = &state.config.history else {
        return respond(stream, 404, "text/plain", "history not configured\n");
    };
    if path == "/history/predict" {
        return serve_predict(stream, history, query);
    }
    // The remaining routes read the journal. Resolve the route and parse
    // the window first so a bad path or parameter fails before any I/O.
    let curve_key = path
        .strip_prefix("/history/session/")
        .and_then(|rest| rest.strip_suffix("/curve"));
    let route = match (path, curve_key) {
        ("/history/sessions", _) => HistoryRoute::Sessions,
        ("/history/percentiles", _) => HistoryRoute::Percentiles,
        (_, Some(key)) => HistoryRoute::Curve(key),
        _ => return respond(stream, 404, "text/plain", "not found\n"),
    };
    let since = match query_u64(query, "since") {
        Ok(v) => v.unwrap_or(0),
        Err(bad) => return bad_param(stream, "since", &bad),
    };
    let until = match query_u64(query, "until") {
        Ok(v) => v.unwrap_or(u64::MAX),
        Err(bad) => return bad_param(stream, "until", &bad),
    };
    let resolver = history
        .resolver
        .as_deref()
        .map(|r| r as &dyn HistoryResolver);
    let window = Some((since, until));
    let started = Instant::now();
    // A fleet route scans the whole directory and renders the fleet.
    let fleet = |render: &dyn Fn(&FleetHistory) -> String| {
        scan_history(&history.journal_dir, window, resolver).map(|fleet| {
            let sessions = fleet.sessions.len() as u64;
            (200, render(&fleet), fleet.bytes_scanned, sessions)
        })
    };
    // (status, body, journal bytes read, sessions materialised)
    let answer = match route {
        HistoryRoute::Sessions => fleet(&history_sessions_json),
        HistoryRoute::Percentiles => {
            let workload = query_param(query, "workload");
            fleet(&|f| percentiles_json(f, workload.as_deref()))
        }
        // One session's curve needs one session's segments: list the
        // directory by name, read only those, skip the accuracy replay the
        // curve body never prints.
        HistoryRoute::Curve(key) => scan_session_curve(&history.journal_dir, key, window, resolver)
            .map(|scan| {
                let (status, body) = match &scan.session {
                    Some(s) => (200, curve_json(s)),
                    None => (404, "no such journaled session\n".to_owned()),
                };
                (status, body, scan.bytes_scanned, scan.sessions_read)
            }),
    };
    let (status, body, bytes, sessions) = match answer {
        Ok(answer) => answer,
        Err(e) => {
            return respond(
                stream,
                500,
                "text/plain",
                &format!("journal scan failed: {e}\n"),
            )
        }
    };
    record_history_scan(
        &state.metrics,
        route.label(),
        started.elapsed(),
        bytes,
        sessions,
    );
    let content_type = if status == 200 {
        "application/json"
    } else {
        "text/plain"
    };
    respond(stream, status, content_type, &body)
}

/// A journal-backed `/history` route.
#[derive(Clone, Copy)]
enum HistoryRoute<'a> {
    Sessions,
    Percentiles,
    /// `/history/session/{key}/curve`, with its `key`.
    Curve(&'a str),
}

impl HistoryRoute<'_> {
    /// The `route` label value on the scan-cost metrics.
    fn label(self) -> &'static str {
        match self {
            HistoryRoute::Sessions => "sessions",
            HistoryRoute::Percentiles => "percentiles",
            HistoryRoute::Curve(_) => "curve",
        }
    }
}

/// Self-observability of the journal-backed routes: what one request's
/// read of the journal directory cost, by route.
fn record_history_scan(
    metrics: &MetricsRegistry,
    route: &str,
    elapsed: Duration,
    bytes: u64,
    sessions: u64,
) {
    let labels = [("route", route)];
    metrics
        .histogram(
            "lqs_history_scan_seconds",
            "Wall time a /history request spent reading journals and building its answer",
            &labels,
        )
        .observe(elapsed.as_secs_f64());
    metrics
        .counter(
            "lqs_history_scan_bytes_total",
            "Journal bytes read by /history requests",
            &labels,
        )
        .add(bytes);
    metrics
        .counter(
            "lqs_history_scan_sessions_total",
            "Journaled sessions materialised by /history requests",
            &labels,
        )
        .add(sessions);
}

fn serve_predict(
    stream: &mut TcpStream,
    history: &HistoryEndpoints,
    query: &str,
) -> std::io::Result<()> {
    let Some(store) = &history.store else {
        return respond(
            stream,
            404,
            "text/plain",
            "prediction store not configured\n",
        );
    };
    let fingerprint = match query_u64(query, "fingerprint") {
        Ok(Some(fp)) => fp,
        Ok(None) => return bad_param(stream, "fingerprint", "missing"),
        Err(bad) => return bad_param(stream, "fingerprint", &bad),
    };
    match store.predict_fingerprint(fingerprint) {
        Some(p) => {
            if let Some(m) = &history.metrics {
                m.prediction_issued(p.basis);
            }
            respond(
                stream,
                200,
                "application/json",
                &(prediction_json(fingerprint, &p).to_json() + "\n"),
            )
        }
        None => {
            // The explicit no-history answer: admission control and
            // clients must fall back to their cold-start policy, not
            // treat the plan as free.
            if let Some(m) = &history.metrics {
                m.cold_miss();
            }
            let body = Value::Object(vec![
                ("fingerprint".into(), Value::String(fingerprint.to_string())),
                ("no_history".into(), Value::Bool(true)),
                ("prediction".into(), Value::Null),
            ]);
            respond(stream, 200, "application/json", &(body.to_json() + "\n"))
        }
    }
}

/// `GET /profile/{session}`: a completed session's exact per-operator
/// time attribution. `{session}` is a bare id or `session-N`. Sessions
/// without a completed, attribution-carrying run answer an explicit
/// `available: false` with the reason — never a partial or guessed
/// profile.
fn serve_profile(
    stream: &mut TcpStream,
    state: &ServerState,
    path: &str,
    query: &str,
) -> std::io::Result<()> {
    let raw = &path["/profile/".len()..];
    let raw = raw.strip_prefix("session-").unwrap_or(raw);
    let Ok(id) = raw.parse::<u64>() else {
        return bad_param(stream, "session", &format!("{raw:?} is not a session id"));
    };
    let Some(handle) = state.sessions.session(SessionId(id)) else {
        return respond(stream, 404, "text/plain", "no such session\n");
    };
    let result = handle.result();
    let report = match &result {
        Some(SessionResult::Completed(run)) => {
            lqs_prof::ProfileReport::from_run(handle.plan(), run)
        }
        _ => None,
    };
    let collapsed_only = query_param(query, "format").as_deref() == Some("collapsed");
    let Some(report) = report else {
        let reason = match result {
            None => "session not terminal yet",
            // A completed run without attribution exists only on the
            // recovery path: journals carry counters, not self-times.
            Some(SessionResult::Completed(_)) => {
                "no attribution recorded (journal-reconstructed run)"
            }
            Some(_) => "no completed run",
        };
        if collapsed_only {
            return respond(stream, 404, "text/plain", &format!("{reason}\n"));
        }
        let body = Value::Object(vec![
            ("session_id".into(), Value::Int(id as i64)),
            ("name".into(), Value::String(handle.name().into())),
            ("available".into(), Value::Bool(false)),
            ("reason".into(), Value::String(reason.into())),
        ]);
        return respond(stream, 200, "application/json", &(body.to_json() + "\n"));
    };
    if collapsed_only {
        respond(stream, 200, "text/plain", &report.collapsed_stacks())
    } else {
        respond(
            stream,
            200,
            "application/json",
            &profile_json(&handle, &report),
        )
    }
}

fn profile_json(handle: &SessionHandle, report: &lqs_prof::ProfileReport) -> String {
    let nodes: Vec<Value> = report
        .nodes
        .iter()
        .map(|n| {
            Value::Object(vec![
                ("node".into(), Value::Int(n.node as i64)),
                ("name".into(), Value::String(n.name.clone())),
                (
                    "parent".into(),
                    n.parent.map_or(Value::Null, |p| Value::Int(p as i64)),
                ),
                ("self_ns".into(), Value::Int(n.self_ns as i64)),
                ("inclusive_ns".into(), Value::Int(n.inclusive_ns as i64)),
                ("rows_output".into(), Value::Int(n.rows_output as i64)),
                ("cpu_ns".into(), Value::Int(n.cpu_ns as i64)),
                ("logical_reads".into(), Value::Int(n.logical_reads as i64)),
                ("executions".into(), Value::Int(n.executions as i64)),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        ("session_id".into(), Value::Int(handle.id().0 as i64)),
        ("name".into(), Value::String(handle.name().into())),
        ("workload".into(), Value::String(handle.workload().into())),
        ("available".into(), Value::Bool(true)),
        ("total_ns".into(), Value::Int(report.total_ns as i64)),
        ("root".into(), Value::Int(report.root as i64)),
        ("nodes".into(), Value::Array(nodes)),
        ("collapsed".into(), Value::String(report.collapsed_stacks())),
    ]);
    body.to_json() + "\n"
}

/// `GET /alerts`: the live watchdog's current classifications. The server
/// never sweeps — it reads whatever the owning sweep loop last computed,
/// so a scrape can't perturb classification determinism.
fn serve_alerts(stream: &mut TcpStream, state: &ServerState) -> std::io::Result<()> {
    let Some(watchdog) = &state.config.watchdog else {
        return respond(stream, 404, "text/plain", "watchdog not configured\n");
    };
    let (sweeps, alerts) = match watchdog.lock() {
        Ok(w) => (w.sweeps(), w.alerts()),
        // A sweep that panicked may have left its bookkeeping half-updated:
        // say so rather than serve it.
        Err(_) => return respond(stream, 500, "text/plain", "watchdog poisoned\n"),
    };
    let rows: Vec<Value> = alerts
        .iter()
        .map(|a| {
            Value::Object(vec![
                ("session_id".into(), Value::Int(a.id.0 as i64)),
                ("name".into(), Value::String(a.name.clone())),
                ("kind".into(), Value::String(a.kind.as_str().into())),
                ("ts_ns".into(), Value::Int(a.ts_ns as i64)),
                ("seq".into(), Value::Int(a.seq as i64)),
                ("detail".into(), Value::String(a.detail.clone())),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        ("sweeps".into(), Value::Int(sweeps as i64)),
        ("alerts".into(), Value::Array(rows)),
    ]);
    respond(stream, 200, "application/json", &(body.to_json() + "\n"))
}

/// What became of reading one request head.
enum HeadOutcome {
    /// Complete head (through `\r\n\r\n`), lossily decoded.
    Head(String),
    /// The head exceeded [`MAX_HEAD_BYTES`].
    TooLarge,
    /// The head did not fully arrive within the deadline (slow loris).
    TimedOut,
}

/// Read up to the end of the request head (`\r\n\r\n`) under a total
/// wall-clock `deadline`. The per-`read` timeout is re-derived from the
/// remaining budget each iteration, so a client dribbling one byte per
/// second cannot stretch the head phase past the deadline.
fn read_head(stream: &mut TcpStream, deadline: Duration) -> std::io::Result<HeadOutcome> {
    let started = Instant::now();
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let remaining = deadline.saturating_sub(started.elapsed());
        if remaining.is_zero() {
            return Ok(HeadOutcome::TimedOut);
        }
        stream.set_read_timeout(Some(remaining))?;
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(HeadOutcome::TimedOut)
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Ok(HeadOutcome::TooLarge);
        }
    }
    Ok(HeadOutcome::Head(
        String::from_utf8_lossy(&head).into_owned(),
    ))
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_with(stream, status, content_type, body, &[])
}

fn respond_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    // One write: the acceptor's `503` shed closes with the request unread,
    // which resets the connection and discards whatever the kernel has not
    // sent yet. A response written in pieces could lose its tail that way.
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(&format!("{name}: {value}\r\n"));
    }
    response.push_str("\r\n");
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

fn bad_param(stream: &mut TcpStream, name: &str, detail: &str) -> std::io::Result<()> {
    respond(
        stream,
        400,
        "text/plain",
        &format!("bad query parameter {name:?}: {detail}\n"),
    )
}

/// First value of `key` in a raw query string (no percent-decoding; the
/// parameters this server takes are numbers and workload labels).
fn query_param(query: &str, key: &str) -> Option<String> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.to_owned())
    })
}

/// `Ok(None)` = absent, `Ok(Some)` = parsed, `Err` = present but invalid.
fn query_u64(query: &str, key: &str) -> Result<Option<u64>, String> {
    match query_param(query, key) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("{raw:?} is not a u64")),
    }
}

/// The session registry as a JSON array, submission order.
fn sessions_json(sessions: &SessionRegistry) -> String {
    let rows: Vec<Value> = sessions
        .sessions()
        .iter()
        .map(|h| {
            // Only the position is listed, so read just the slot header —
            // no counter copy.
            let snapshot_ts = h.latest_snapshot_ts();
            let selection = h.estimator_selection();
            Value::Object(vec![
                ("id".into(), Value::Int(h.id().0 as i64)),
                ("name".into(), Value::String(h.name().into())),
                ("workload".into(), Value::String(h.workload().into())),
                ("state".into(), Value::String(state_label(h.state()).into())),
                ("recovered".into(), Value::Bool(h.recovered())),
                // null = never journaled; false = the breaker dropped at
                // least one of this session's records on the floor.
                (
                    "durable".into(),
                    match h.durability() {
                        SessionDurability::Unjournaled => Value::Null,
                        SessionDurability::Durable => Value::Bool(true),
                        SessionDurability::Lost => Value::Bool(false),
                    },
                ),
                ("published_seq".into(), Value::Int(h.published_seq() as i64)),
                (
                    "snapshot_ts_ns".into(),
                    snapshot_ts.map_or(Value::Null, |ts| Value::Int(ts as i64)),
                ),
                // null = classic single estimator (no ensemble attached).
                (
                    "estimator".into(),
                    selection
                        .as_ref()
                        .map_or(Value::Null, |sel| Value::String(sel.selected.into())),
                ),
                (
                    "weights".into(),
                    selection.as_ref().map_or(Value::Null, |sel| {
                        Value::Object(
                            sel.weights
                                .iter()
                                .map(|(id, w)| ((*id).into(), Value::Float(*w)))
                                .collect(),
                        )
                    }),
                ),
            ])
        })
        .collect();
    let mut out = Value::Array(rows).to_json();
    out.push('\n');
    out
}

/// `/healthz`: liveness plus enough context to triage a sick instance.
fn healthz_json(state: &ServerState) -> String {
    let journal = match &state.config.history {
        Some(h) => {
            let exists = h.journal_dir.is_dir();
            let segments = if exists {
                std::fs::read_dir(&h.journal_dir)
                    .map(|entries| {
                        entries
                            .filter_map(|e| e.ok())
                            .filter(|e| e.path().extension().is_some_and(|x| x == "lqsj"))
                            .count() as i64
                    })
                    .unwrap_or(-1)
            } else {
                -1
            };
            Value::Object(vec![
                (
                    "dir".into(),
                    Value::String(h.journal_dir.display().to_string()),
                ),
                ("dir_exists".into(), Value::Bool(exists)),
                ("segments".into(), Value::Int(segments)),
                ("prediction_store".into(), Value::Bool(h.store.is_some())),
            ])
        }
        None => Value::Null,
    };
    let body = Value::Object(vec![
        ("status".into(), Value::String("ok".into())),
        ("service".into(), Value::String("lqs-server".into())),
        (
            "version".into(),
            Value::String(env!("CARGO_PKG_VERSION").into()),
        ),
        (
            "uptime_seconds".into(),
            Value::Int(state.started.elapsed().as_secs() as i64),
        ),
        ("sessions".into(), Value::Int(state.sessions.len() as i64)),
        (
            "sessions_running".into(),
            Value::Int(state.sessions.running_now() as i64),
        ),
        (
            "sessions_recovered".into(),
            Value::Int(state.sessions.recovered_now() as i64),
        ),
        ("journal".into(), journal),
        (
            "breaker".into(),
            match &state.config.journal {
                Some(j) => {
                    let b = j.breaker();
                    let state = b.state();
                    Value::Object(vec![
                        ("state".into(), Value::String(state.as_str().into())),
                        ("trips".into(), Value::Int(b.trips() as i64)),
                        ("recoveries".into(), Value::Int(b.recoveries() as i64)),
                        (
                            "durable".into(),
                            Value::Bool(state == lqs_journal::BreakerState::Closed),
                        ),
                    ])
                }
                None => Value::Null,
            },
        ),
    ]);
    body.to_json() + "\n"
}

fn pctls_json(p: &Pctls) -> Value {
    Value::Object(vec![
        ("p50".into(), Value::Float(p.p50)),
        ("p90".into(), Value::Float(p.p90)),
        ("p99".into(), Value::Float(p.p99)),
    ])
}

fn opt_float(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

fn session_row(s: &SessionHistory) -> Value {
    Value::Object(vec![
        ("key".into(), Value::String(s.key())),
        ("epoch".into(), Value::Int(s.epoch as i64)),
        ("session_id".into(), Value::Int(s.session_id as i64)),
        ("name".into(), Value::String(s.name.clone())),
        ("workload".into(), Value::String(s.workload.clone())),
        (
            "plan_fingerprint".into(),
            Value::String(s.plan_fingerprint.to_string()),
        ),
        ("outcome".into(), Value::String(s.outcome.into())),
        ("runtime_ns".into(), Value::Int(s.runtime_ns as i64)),
        ("total_cpu_ns".into(), Value::Int(s.total_cpu_ns as i64)),
        (
            "total_logical_reads".into(),
            Value::Int(s.total_logical_reads as i64),
        ),
        ("rows_returned".into(), Value::Int(s.rows_returned as i64)),
        ("snapshots".into(), Value::Int(s.snapshots as i64)),
        (
            "corrupt_records".into(),
            Value::Int(s.corrupt_records as i64),
        ),
        ("error_avg".into(), opt_float(s.error_avg)),
        ("error_time".into(), opt_float(s.error_time)),
        (
            "estimator".into(),
            s.estimator.clone().map_or(Value::Null, Value::String),
        ),
    ])
}

fn history_sessions_json(fleet: &FleetHistory) -> String {
    let body = Value::Object(vec![
        (
            "sessions".into(),
            Value::Array(fleet.sessions.iter().map(session_row).collect()),
        ),
        (
            "corrupt_records".into(),
            Value::Int(fleet.corrupt_records as i64),
        ),
        (
            "sessions_swept".into(),
            Value::Int(fleet.sessions_swept as i64),
        ),
    ]);
    body.to_json() + "\n"
}

/// The `/history/session/{key}/curve` body for one session's history.
pub fn curve_json(s: &SessionHistory) -> String {
    let curve: Vec<Value> = s
        .curve
        .iter()
        .map(|p| {
            Value::Object(vec![
                ("ts_ns".into(), Value::Int(p.ts_ns as i64)),
                ("cpu_ns".into(), Value::Int(p.cpu_ns as i64)),
                ("logical_reads".into(), Value::Int(p.logical_reads as i64)),
                ("progress".into(), Value::Float(p.progress)),
            ])
        })
        .collect();
    let nodes: Vec<Value> = s
        .slowest_nodes()
        .into_iter()
        .map(|n| {
            Value::Object(vec![
                ("node".into(), Value::Int(n.node as i64)),
                ("op".into(), n.op.clone().map_or(Value::Null, Value::String)),
                ("cpu_ns".into(), Value::Int(n.cpu_ns as i64)),
                ("logical_reads".into(), Value::Int(n.logical_reads as i64)),
                ("rows_output".into(), Value::Int(n.rows_output as i64)),
                ("share".into(), Value::Float(n.share)),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        ("key".into(), Value::String(s.key())),
        ("name".into(), Value::String(s.name.clone())),
        ("workload".into(), Value::String(s.workload.clone())),
        ("outcome".into(), Value::String(s.outcome.into())),
        ("curve".into(), Value::Array(curve)),
        ("slowest_nodes".into(), Value::Array(nodes)),
    ]);
    body.to_json() + "\n"
}

fn percentiles_json(fleet: &FleetHistory, workload: Option<&str>) -> String {
    let summaries = match workload {
        Some(w) => vec![fleet.percentiles_for(w)],
        None => fleet.percentiles(),
    };
    let rows: Vec<Value> = summaries
        .iter()
        .map(|w| {
            Value::Object(vec![
                ("workload".into(), Value::String(w.workload.clone())),
                ("sessions".into(), Value::Int(w.sessions as i64)),
                ("succeeded".into(), Value::Int(w.succeeded as i64)),
                ("runtime_ns".into(), pctls_json(&w.runtime_ns)),
                ("cpu_ns".into(), pctls_json(&w.cpu_ns)),
                ("logical_reads".into(), pctls_json(&w.logical_reads)),
                (
                    "error_avg".into(),
                    w.error_avg.as_ref().map_or(Value::Null, pctls_json),
                ),
                (
                    "error_time".into(),
                    w.error_time.as_ref().map_or(Value::Null, pctls_json),
                ),
            ])
        })
        .collect();
    Value::Array(rows).to_json() + "\n"
}

fn prediction_json(fingerprint: u64, p: &ResourcePrediction) -> Value {
    let basis = match p.basis {
        lqs_history::PredictionBasis::Exact => {
            Value::Object(vec![("kind".into(), Value::String("exact".into()))])
        }
        lqs_history::PredictionBasis::Similar {
            fingerprint: nb,
            distance,
        } => Value::Object(vec![
            ("kind".into(), Value::String("similar".into())),
            ("neighbor".into(), Value::String(nb.to_string())),
            ("distance".into(), Value::Float(distance)),
        ]),
    };
    Value::Object(vec![
        ("fingerprint".into(), Value::String(fingerprint.to_string())),
        ("no_history".into(), Value::Bool(false)),
        (
            "prediction".into(),
            Value::Object(vec![
                ("cpu_ns".into(), Value::Float(p.cpu_ns)),
                ("logical_reads".into(), Value::Float(p.logical_reads)),
                ("runtime_ns".into(), Value::Float(p.runtime_ns)),
                ("runs".into(), Value::Int(p.runs as i64)),
            ]),
        ),
        ("basis".into(), basis),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ingress worker that panicked holding the hand-off receiver's lock
    /// must not stop the other workers from taking connections.
    #[test]
    fn a_poisoned_ingress_queue_still_serves() {
        let state = ServerState {
            metrics: Arc::default(),
            sessions: Arc::default(),
            config: ServerConfig::default(),
            started: Instant::now(),
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let (accepted, _) = listener.accept().expect("accept");

        let (tx, rx) = mpsc::sync_channel(1);
        let rx = Mutex::new(rx);
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = rx.lock().unwrap();
                panic!("poison the ingress queue");
            })
            .join()
        });
        assert!(panicked.is_err() && rx.is_poisoned());

        tx.send(accepted).unwrap();
        drop(tx);
        worker_loop(&rx, &state);
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    }
}
