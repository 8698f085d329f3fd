//! The overload soak: storage-fault storms, watchdog remediation, a
//! saturated-and-slow HTTP client storm, and brownout shedding — run
//! against real workloads with deterministic seeds.
//!
//! Four scenes, each with its own invariants:
//!
//! 1. **Journal-fault storm** — every session's journal hits a seeded
//!    window of write failures; the circuit breaker must trip, probe, and
//!    re-attach (at least one full open → half-open → closed cycle), every
//!    session must still land terminal, and no executor may block on the
//!    dead "disk".
//! 2. **Watchdog remediation** — a gated stalled session is cancelled by
//!    the watchdog's remediation policy without consuming its
//!    transient-fault retry budget.
//! 3. **HTTP storm** — many concurrent scrape clients plus slow-loris
//!    clients against the hardened ingress: every honest scrape completes
//!    (503s are retried), every loris is cut off in bounded time (408 at
//!    the head deadline, or 503 when shed by the acceptor),
//!    `/sessions` reports `durable: false` for breaker-suppressed
//!    sessions, and `/healthz` shows the open breaker. Zero hangs.
//! 4. **Brownout** — a zero queue-wait deadline sheds every queued session
//!    with an explicit reason, and sustained overload widens the snapshot
//!    publish interval of admitted sessions.
//!
//! The returned [`SoakReport::summary`] is **deterministic**: it
//! is computed from seeded fault windows, append counts, and virtual-clock
//! outcomes only — wall-clock-dependent figures (how many 503s were shed,
//! how many polls landed) never enter it — so two runs with the same seed
//! produce byte-identical summaries (the CI `soak` job diffs
//! them).

use crate::inject::PageGate;
use crate::soak::{fnv, metric_value, prepare_workloads, SoakReport};
use lqs_exec::{ExecOptions, FaultInjector};
use lqs_journal::{BreakerConfig, BreakerState, Journal, JournalConfig, JournalFaultInjector};
use lqs_metrics::MetricsRegistry;
use lqs_progress::EstimatorConfig;
use lqs_server::{
    BrownoutConfig, IngressConfig, MetricsServer, QueryService, QuerySpec, RemediationPolicy,
    ServerConfig, ServiceMetrics, SessionDurability, SessionState, Watchdog, WatchdogConfig,
};
use lqs_workloads::WorkloadScale;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Size and content of one overload soak run.
#[derive(Clone)]
pub struct OverloadSoakConfig {
    /// Master seed (workload data + journal fault windows).
    pub(crate) seed: u64,
    /// Journal directory (wiped per-scene subdirectories are created
    /// inside it).
    pub(crate) dir: PathBuf,
    /// How many of the standard five workloads to run (≤ 5).
    pub(crate) workloads: usize,
    /// Queries taken from each workload.
    pub(crate) queries_per_workload: usize,
    /// Workload data scale.
    pub(crate) data_scale: f64,
    /// Concurrent HTTP scrape clients in the storm scene (including the
    /// slow ones).
    pub(crate) pollers: usize,
    /// How many of `pollers` are slow-loris clients.
    pub(crate) slow_pollers: usize,
}

impl OverloadSoakConfig {
    /// A fast configuration for tests and CI smoke runs.
    pub fn quick(seed: u64, dir: impl Into<PathBuf>) -> Self {
        OverloadSoakConfig {
            seed,
            dir: dir.into(),
            workloads: 2,
            queries_per_workload: 2,
            data_scale: 0.2,
            pollers: 8,
            slow_pollers: 2,
        }
    }

    /// The full storm: all five workloads, 64 concurrent pollers of which
    /// two are slow-loris clients.
    pub fn full(seed: u64, dir: impl Into<PathBuf>) -> Self {
        OverloadSoakConfig {
            seed,
            dir: dir.into(),
            workloads: 5,
            queries_per_workload: 2,
            data_scale: 0.25,
            pollers: 64,
            slow_pollers: 2,
        }
    }
}

/// Per-session seeded window of journal write failures: appends
/// `[from, from + len)` fail (0-based logical index; index 0 is the meta
/// record, which always succeeds so every session is journaled).
struct SeededFaultWindow {
    seed: u64,
}

impl JournalFaultInjector for SeededFaultWindow {
    fn append_fails(&self, session_key: &str, nth: u64) -> bool {
        let h = fnv(session_key) ^ self.seed;
        let from = 1 + (h % 4);
        let len = 2 + ((h >> 8) % 3);
        nth >= from && nth < from + len
    }
}

/// Every data append fails; only the meta record reaches disk. With
/// `trip_after: 1` and a far-away probe window this keeps the breaker
/// open for the whole scene.
struct DeadDisk;

impl JournalFaultInjector for DeadDisk {
    fn append_fails(&self, _session_key: &str, nth: u64) -> bool {
        nth >= 1
    }
}

/// One full GET against the soak's metrics server, returning the raw
/// response. Single write + write-side shutdown so a shed 503 is read
/// reliably; bounded read timeout so a sick server can never hang the
/// soak.
fn raw_get(addr: SocketAddr, path: &str) -> String {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return String::new();
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = write!(stream, "GET {path} HTTP/1.1\r\nHost: soak\r\n\r\n");
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

/// GET with bounded retry on 503 shed responses (the honest-client
/// protocol the `Retry-After` header asks for).
fn get_with_retry(addr: SocketAddr, path: &str) -> Option<String> {
    for _ in 0..100 {
        let response = raw_get(addr, path);
        if response.starts_with("HTTP/1.1 200") {
            return Some(response);
        }
        if !response.starts_with("HTTP/1.1 503") && !response.is_empty() {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

/// Run the overload soak. See the module docs for the scenes and
/// invariants.
pub fn run_overload_soak(cfg: &OverloadSoakConfig) -> SoakReport {
    let workloads = prepare_workloads(
        WorkloadScale {
            data_scale: cfg.data_scale,
            query_limit: cfg.queries_per_workload,
            seed: cfg.seed,
        },
        cfg.workloads,
    );
    let mut lines = vec![format!(
        "lqs-chaos overload soak seed={} workloads={} queries={} pollers={} slow={}",
        cfg.seed,
        workloads.len(),
        cfg.queries_per_workload,
        cfg.pollers,
        cfg.slow_pollers
    )];
    let mut violations = Vec::new();
    let mut sessions_total = 0usize;

    // Scene 1: journal-fault storm. One worker per service keeps the
    // global append order (and therefore every breaker transition)
    // deterministic; probe_after ZERO makes the breaker's clock the
    // append count itself.
    for (wl_name, db, queries) in &workloads {
        let dir = cfg.dir.join(format!("storm-{wl_name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create storm journal dir");
        let journal = Journal::open(
            JournalConfig::new(&dir)
                .with_write_fault(Arc::new(SeededFaultWindow { seed: cfg.seed }))
                .with_breaker(BreakerConfig {
                    trip_after: 2,
                    probe_after: Duration::ZERO,
                }),
        )
        .expect("open storm journal");
        let service = QueryService::new(Arc::clone(db), 1).with_journal(journal);
        let breaker = Arc::clone(service.journal().expect("journal attached").breaker());
        let handles: Vec<_> = queries
            .iter()
            .map(|(qname, qplan)| {
                (
                    qname.clone(),
                    service.submit(
                        QuerySpec::new(qname.clone(), Arc::clone(qplan))
                            .with_workload(wl_name.clone()),
                    ),
                )
            })
            .collect();
        service.wait_all();
        for (qname, h) in &handles {
            sessions_total += 1;
            if !h.state().is_terminal() {
                violations.push(format!("storm {wl_name}/{qname}: not terminal"));
            }
            lines.push(format!(
                "storm wl={} session={} outcome={:?} durable={}",
                wl_name,
                qname,
                h.state(),
                h.durability() == SessionDurability::Durable
            ));
        }
        let (trips, recoveries, state) = (breaker.trips(), breaker.recoveries(), breaker.state());
        if trips == 0 || recoveries == 0 {
            violations.push(format!(
                "storm {wl_name}: no full breaker cycle (trips={trips} recoveries={recoveries})"
            ));
        }
        if state != BreakerState::Closed {
            violations.push(format!(
                "storm {wl_name}: breaker ended {state:?}, not re-attached"
            ));
        }
        lines.push(format!(
            "storm wl={wl_name} breaker trips={trips} recoveries={recoveries} state={}",
            state.as_str()
        ));
        service.shutdown();
    }

    // Scene 2: watchdog remediation. The gated session stalls; the policy
    // cancels it; the retry budget stays untouched.
    {
        let (_, db, queries) = &workloads[0];
        let (_, qplan) = &queries[0];
        let mreg = Arc::new(MetricsRegistry::new());
        let smetrics = ServiceMetrics::new(Arc::clone(&mreg));
        let service = QueryService::with_metrics(Arc::clone(db), 1, smetrics);
        let mut wd = Watchdog::new(
            Arc::clone(db),
            Arc::clone(service.registry()),
            EstimatorConfig::full(),
            WatchdogConfig {
                stall_sweeps: 1,
                stall_wall: Duration::ZERO,
                remediation: RemediationPolicy::Cancel {
                    after_stalled_sweeps: 2,
                },
                ..WatchdogConfig::default()
            },
        )
        .with_metrics(Arc::clone(&mreg));
        let gate = PageGate::new(8);
        let handle = service.submit(
            QuerySpec::new("remediation-stall", Arc::clone(qplan))
                .with_retry_budget(3)
                .with_fault(Arc::clone(&gate) as Arc<dyn FaultInjector + Send>),
        );
        sessions_total += 1;
        while handle.state() == SessionState::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        for _ in 0..10_000 {
            wd.sweep();
            if wd.remediations() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        gate.open();
        let terminal = handle.wait_terminal();
        let retries = metric_value(&mreg.render(), "lqs_session_retries_total").unwrap_or(0.0);
        if wd.remediations() != 1 || terminal != SessionState::Cancelled || retries != 0.0 {
            violations.push(format!(
                "remediation: fired={} terminal={terminal:?} retries={retries}",
                wd.remediations()
            ));
        }
        lines.push(format!(
            "remediation action=cancel fired={} outcome={terminal:?} retries={retries}",
            wd.remediations()
        ));
        service.wait_all();
    }

    // Scene 3: HTTP storm against the hardened ingress, with a dead disk
    // behind the journal so `/sessions` has real `durable: false` rows and
    // `/healthz` a genuinely open breaker.
    {
        let (wl_name, db, queries) = &workloads[0];
        let dir = cfg.dir.join("http");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create http journal dir");
        let journal = Journal::open(
            JournalConfig::new(&dir)
                .with_write_fault(Arc::new(DeadDisk))
                .with_breaker(BreakerConfig {
                    trip_after: 1,
                    probe_after: Duration::from_secs(3600),
                }),
        )
        .expect("open http journal");
        let mreg = Arc::new(MetricsRegistry::new());
        let smetrics = ServiceMetrics::new(Arc::clone(&mreg));
        let service = QueryService::with_metrics(Arc::clone(db), 2, smetrics).with_journal(journal);
        let journal_arc = Arc::clone(service.journal().expect("journal attached"));
        let handles: Vec<_> = queries
            .iter()
            .map(|(qname, qplan)| {
                service.submit(
                    QuerySpec::new(qname.clone(), Arc::clone(qplan)).with_workload(wl_name.clone()),
                )
            })
            .collect();
        service.wait_all();
        sessions_total += handles.len();
        let all_terminal = handles.iter().all(|h| h.state().is_terminal());
        let any_lost = handles
            .iter()
            .any(|h| h.durability() == SessionDurability::Lost);

        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            Arc::clone(&mreg),
            Arc::clone(service.registry()),
            ServerConfig {
                journal: Some(journal_arc),
                ingress: IngressConfig {
                    workers: 4,
                    backlog: 8,
                    head_deadline: Duration::from_millis(300),
                    ..IngressConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("bind soak metrics server");
        let addr = server.addr();

        let fast = cfg.pollers.saturating_sub(cfg.slow_pollers).max(1);
        let mut threads = Vec::new();
        for i in 0..fast {
            threads.push(std::thread::spawn(move || {
                let mut ok = true;
                let mut durable_false = false;
                let mut breaker_open = false;
                for round in 0..4 {
                    for path in ["/metrics", "/sessions", "/healthz"] {
                        let Some(body) = get_with_retry(addr, path) else {
                            ok = false;
                            continue;
                        };
                        let _ = (i, round);
                        if path == "/sessions" && body.contains("\"durable\":false") {
                            durable_false = true;
                        }
                        if path == "/healthz" && body.contains("\"state\":\"open\"") {
                            breaker_open = true;
                        }
                    }
                }
                (ok, durable_false, breaker_open)
            }));
        }
        let mut loris_threads = Vec::new();
        for _ in 0..cfg.slow_pollers {
            loris_threads.push(std::thread::spawn(move || {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return false;
                };
                let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                let _ = stream.write_all(b"GET /metr");
                let mut out = Vec::new();
                let _ = stream.read_to_end(&mut out);
                // Bounded cut-off either way: 408 from a worker's head
                // deadline, or 503 when the acceptor sheds the connection
                // before a worker ever sees it. A hang (empty read after
                // the timeout) fails the invariant.
                let response = String::from_utf8_lossy(&out);
                response.starts_with("HTTP/1.1 408") || response.starts_with("HTTP/1.1 503")
            }));
        }
        let mut all_ok = true;
        let (mut saw_durable_false, mut saw_breaker_open) = (false, false);
        for t in threads {
            let (ok, durable_false, breaker_open) = t.join().expect("poller thread panicked");
            all_ok &= ok;
            saw_durable_false |= durable_false;
            saw_breaker_open |= breaker_open;
        }
        let mut loris_cut_off = true;
        for t in loris_threads {
            loris_cut_off &= t.join().expect("loris thread panicked");
        }
        server.stop();
        service.shutdown();

        if !all_terminal || !any_lost || !all_ok || !saw_durable_false || !saw_breaker_open {
            violations.push(format!(
                "http: terminal={all_terminal} lost={any_lost} scrapes_ok={all_ok} \
                 durable_false={saw_durable_false} breaker_open={saw_breaker_open}"
            ));
        }
        if !loris_cut_off {
            violations.push("http: a slow-loris client was not cut off with 408".into());
        }
        lines.push(format!(
            "http scrapes_ok={all_ok} sessions_durable_false={saw_durable_false} \
             breaker_open={saw_breaker_open} loris_cut_off={loris_cut_off}"
        ));
    }

    // Scene 4: brownout. Zero queue-wait budget sheds every queued session
    // with a reason; a saturated queue-depth signal widens the snapshot
    // cadence of what is still admitted.
    {
        let (_, db, queries) = &workloads[0];
        let (_, qplan) = &queries[0];
        let mreg = Arc::new(MetricsRegistry::new());
        let smetrics = ServiceMetrics::new(Arc::clone(&mreg));
        let service =
            QueryService::with_metrics(Arc::clone(db), 1, smetrics).with_brownout(BrownoutConfig {
                queue_high: usize::MAX,
                queue_deadline: Some(Duration::ZERO),
                ..BrownoutConfig::default()
            });
        let shed_handles: Vec<_> = (0..3)
            .map(|i| service.submit(QuerySpec::new(format!("shed-{i}"), Arc::clone(qplan))))
            .collect();
        service.wait_all();
        sessions_total += shed_handles.len();
        let shed_ok = shed_handles.iter().all(|h| {
            h.state() == SessionState::Rejected
                && h.reject_reason()
                    .is_some_and(|r| r.contains("queue-wait deadline exceeded"))
        });
        let shed_counter = metric_value(&mreg.render(), "lqs_sessions_shed_total").unwrap_or(-1.0);
        if !shed_ok || shed_counter != 3.0 {
            violations.push(format!(
                "brownout: shed_ok={shed_ok} shed_counter={shed_counter}"
            ));
        }

        let widen_service = QueryService::new(Arc::clone(db), 1).with_brownout(BrownoutConfig {
            queue_high: 0,
            sustain: 1,
            widen_factor: 4,
            queue_deadline: None,
        });
        let opts = ExecOptions {
            snapshot_interval_ns: Some(1_000),
            ..ExecOptions::default()
        };
        let widened_handle = widen_service
            .submit(QuerySpec::new("brownout-widened", Arc::clone(qplan)).with_opts(opts));
        sessions_total += 1;
        let widened = widened_handle.opts().snapshot_interval_ns == Some(4_000);
        widen_service.wait_all();
        if !widened || widened_handle.state() != SessionState::Succeeded {
            violations.push(format!(
                "brownout: widened={widened} outcome={:?}",
                widened_handle.state()
            ));
        }
        lines.push(format!(
            "brownout shed={} shed_counter={shed_counter} reasons_ok={shed_ok} widened={widened}",
            shed_handles.len()
        ));
    }

    lines.push(format!(
        "sessions={} violations={}",
        sessions_total,
        violations.len()
    ));
    let body = lines.join("\n") + "\n";
    let summary = format!("{body}checksum={:016x}\n", fnv(&body));
    SoakReport {
        summary,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::tmpdir;

    #[test]
    fn tiny_overload_soak_passes_and_is_deterministic() {
        let dir = tmpdir("tiny");
        let mut cfg = OverloadSoakConfig::quick(42, &dir);
        cfg.workloads = 1;
        cfg.queries_per_workload = 2;
        cfg.data_scale = 0.1;
        cfg.pollers = 4;
        cfg.slow_pollers = 1;
        let a = run_overload_soak(&cfg);
        assert!(a.passed(), "violations: {:?}", a.violations);
        let b = run_overload_soak(&cfg);
        assert_eq!(
            a.summary, b.summary,
            "same seed must give identical summaries"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
