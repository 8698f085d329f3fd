//! The benchmark's whole view of the program: the only file that names
//! `lqs::` symbols. Everything else drives the system through the plain
//! functions and opaque types here, so a refactor of the facade re-points
//! this one file (the surface is listed in `README.md`).
//!
//! Every call into a layer is wrapped in a [`Tracer`] span named after
//! the layer, so with tracing on the per-layer ledger falls out of the
//! same code that drives the workload.

use crate::trace::{Tracer, NO_ID};
use lqs::exec::{execute, DmvSnapshot, ExecMode, ExecOptions, NodeCounters, QueryRun};
use lqs::history::{history_from_scan, scan_history, HistoryStore, ResolvedPlan};
use lqs::journal::{
    plan_fingerprint, scan_dir, Journal, JournalConfig, JournalExecMode, JournalMetrics,
    JournalScan, SessionMeta, TerminalKind, TerminalRecord,
};
use lqs::metrics::MetricsRegistry;
use lqs::plan::PhysicalPlan;
use lqs::prof::ProfileReport;
use lqs::progress::{error_count, error_time, EnsembleConfig, EnsembleEstimator, EstimatorConfig};
use lqs::server::{
    HistoryEndpoints, MetricsServer, PollerMetrics, QueryService, QuerySpec, RecoveryManager,
    RegistryPoller, ServerConfig, ServiceMetrics, SessionDurability, SessionHandle,
    SessionProgress, SessionRegistry, SessionResult, SessionState, SnapshotSlot, Watchdog,
    WatchdogConfig,
};
use lqs::storage::{Database, TableId};
use lqs::workloads::real::{workload, RealProfile};
use lqs::workloads::WorkloadScale;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Exact percentile of an ascending-sorted sample, linear between ranks.
pub use lqs::metrics::percentile;

/// Which synthetic customer workload the inputs are generated from.
#[derive(Debug, Clone, Copy)]
pub enum Profile {
    Real1,
    Real2,
    Real3,
}

/// Size of one benchmark workload's generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub profile: Profile,
    pub data_scale: f64,
    pub plans: usize,
    /// DMV snapshots the engine aims to publish per query.
    pub snapshot_target: usize,
}

pub struct Plan {
    pub name: String,
    pub nodes: usize,
    pub fingerprint: u64,
    plan: Arc<PhysicalPlan>,
}

/// Generated tables and plans — all the program ever sees of a seed.
pub struct Inputs {
    db: Arc<Database>,
    opts: ExecOptions,
    pub plans: Vec<Plan>,
    pub rows_loaded: u64,
    by_name: HashMap<String, usize>,
}

/// Generate the workload's database and its first `shape.plans` plans.
/// `plans: 0` builds the database alone (the generator draws the schema
/// before any query, so the tables are the same either way).
pub fn build_inputs(shape: &Shape, data_seed: u64) -> Inputs {
    let profile = match shape.profile {
        Profile::Real1 => RealProfile::Real1,
        Profile::Real2 => RealProfile::Real2,
        Profile::Real3 => RealProfile::Real3,
    };
    let w = workload(
        profile,
        WorkloadScale {
            data_scale: shape.data_scale,
            query_limit: shape.plans,
            seed: data_seed,
        },
    );
    let rows_loaded = (0..w.db.table_count())
        .map(|t| w.db.table(TableId(t)).row_count() as u64)
        .sum();
    let plans: Vec<Plan> = w
        .queries
        .into_iter()
        .map(|q| Plan {
            name: q.name,
            nodes: q.plan.len(),
            fingerprint: plan_fingerprint(&q.plan),
            plan: Arc::new(q.plan),
        })
        .collect();
    Inputs {
        db: Arc::new(w.db),
        opts: ExecOptions {
            snapshot_target: shape.snapshot_target,
            ..ExecOptions::default()
        },
        by_name: plans
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect(),
        plans,
        rows_loaded,
    }
}

impl Inputs {
    /// Sessions are named `<plan>#<n>`; journals store only that name and
    /// a fingerprint, so history and recovery resolve plans through it.
    fn plan_of_session(&self, session_name: &str) -> Option<&Plan> {
        let plan_name = session_name.split('#').next()?;
        self.by_name.get(plan_name).map(|&i| &self.plans[i])
    }

    fn spec(&self, plan: usize, n: u64, label: &str) -> QuerySpec {
        let p = &self.plans[plan];
        QuerySpec::new(format!("{}#{n}", p.name), Arc::clone(&p.plan))
            .with_opts(self.opts.clone())
            .with_workload(label)
    }
}

fn history_resolver(
    inputs: &Arc<Inputs>,
) -> impl Fn(&SessionMeta) -> Option<ResolvedPlan> + Send + Sync + 'static {
    let inputs = Arc::clone(inputs);
    move |meta: &SessionMeta| {
        inputs.plan_of_session(&meta.name).map(|p| ResolvedPlan {
            plan: Arc::clone(&p.plan),
            db: Arc::clone(&inputs.db),
        })
    }
}

fn plan_resolver(
    inputs: &Arc<Inputs>,
) -> impl Fn(&SessionMeta) -> Option<Arc<PhysicalPlan>> + 'static {
    let inputs = Arc::clone(inputs);
    move |meta: &SessionMeta| {
        inputs
            .plan_of_session(&meta.name)
            .map(|p| Arc::clone(&p.plan))
    }
}

/// What one bare execution produced, reduced to what the benchmark checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executed {
    pub snapshots: u64,
    /// Rows output summed over every plan node.
    pub rows: u64,
    /// FNV-1a over every final counter: equal on every run of one plan.
    pub checksum: u64,
}

fn fnv(hash: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn counters_checksum(nodes: &[NodeCounters], duration_ns: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, duration_ns);
    for c in nodes {
        for v in [
            c.rows_output,
            c.rows_input,
            c.logical_reads,
            c.segments_processed,
            c.cpu_ns,
            c.open_ns.unwrap_or(u64::MAX),
            c.close_ns.unwrap_or(u64::MAX),
            c.rows_buffered,
            c.rows_processed,
            c.executions,
        ] {
            fnv(&mut h, v);
        }
    }
    h
}

impl Executed {
    fn of(run: &QueryRun) -> Executed {
        Executed {
            snapshots: run.snapshots.len() as u64,
            rows: run.final_counters.iter().map(|c| c.rows_output).sum(),
            checksum: counters_checksum(&run.final_counters, run.duration_ns),
        }
    }
}

/// Run one plan straight through the engine: no service, journal, poller
/// or HTTP — the `bare_real3` control.
pub fn execute_bare(tr: &mut Tracer, inputs: &Inputs, plan: usize) -> Executed {
    let p = &inputs.plans[plan];
    Executed::of(&tr.span("exec.execute", plan as u64, 1, |_| {
        execute(&inputs.db, &p.plan, &inputs.opts)
    }))
}

/// The `exec` layer probe: the production (batch) path, then the tuple
/// loop over the same plan. Returns the batch run.
fn probe_engine(tr: &mut Tracer, inputs: &Inputs, plan: usize) -> QueryRun {
    let (id, p) = (plan as u64, &inputs.plans[plan]);
    let run = tr.span("exec.execute", id, 1, |_| {
        execute(&inputs.db, &p.plan, &inputs.opts)
    });
    let tuple_opts = ExecOptions {
        mode: ExecMode::Tuple,
        ..inputs.opts.clone()
    };
    tr.span("exec.execute_tuple", id, 1, |_| {
        black_box(execute(&inputs.db, &p.plan, &tuple_opts));
    });
    run
}

/// [`LayerProbe::plan`] for a workload with no layer above the engine.
pub fn probe_engine_only(tr: &mut Tracer, inputs: &Inputs, plan: usize) -> Executed {
    tr.span("plan", plan as u64, 1, |tr| {
        Executed::of(&probe_engine(tr, inputs, plan))
    })
}

pub struct StackConfig<'a> {
    pub workers: usize,
    pub journal_dir: &'a Path,
    /// Workload label every session carries into the accuracy families.
    pub label: &'a str,
    /// Serve `/history/*` from the journal directory, with a plan
    /// resolver and a prediction store seeded from what is already there.
    pub history: bool,
    /// Retention budget of the journal directory.
    pub retention_bytes: Option<u64>,
    /// Replay every finished session's recorded trace offline (see
    /// [`Finished::offline_error`]).
    pub replay_offline: bool,
}

/// Lowest final estimate a succeeded session may be handed back with.
/// Not `1 - 1e-9`: on the seed code the ensemble's `safe` and `pmax`
/// members stay below 1 on plans with operators that never close, and
/// when the blend still includes one the composed figure ends at
/// 0.995-0.9999 (which snapshots the live poller happened to see decides).
/// Those sessions are counted in `server.poller.final_below_100`, not
/// failed; anything lower is a report that is not final.
const FINAL_PROGRESS_FLOOR: f64 = 0.99;

struct Live {
    handle: Arc<SessionHandle>,
    plan: usize,
    last_seq: u64,
    root: Option<usize>,
}

/// One session handed back to the driver with its final report.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    pub id: u64,
    pub plan: usize,
    /// `Succeeded`, final report at or above [`FINAL_PROGRESS_FLOOR`],
    /// nothing lost from its journal.
    pub ok: bool,
    /// The final report reads 100 % (to within 1e-9).
    pub at_100: bool,
    /// Age of the terminal publish when the report reached the driver.
    pub lag: Duration,
    /// Snapshots the session published — what its journal must hold.
    pub snapshots: u64,
    pub torn_reads: u64,
    /// ErrorAvg of the composed ensemble from an offline replay of the
    /// session's recorded snapshot trace — what the poller's online
    /// scoring of it must equal, `f64 ==`. Only with `replay_offline`.
    pub offline_error: Option<f64>,
}

#[derive(Debug, Default)]
pub struct PollOutcome {
    /// Wall time of the `RegistryPoller::poll()` call alone.
    pub poll_time: Duration,
    pub finished: Vec<Finished>,
    /// Session polls that estimated from a snapshot not seen before.
    pub live_estimates: u64,
    /// Session polls served from the poller's cache (nothing new).
    pub cached_hits: u64,
    /// Polls whose publish sequence ran backwards. Must stay 0.
    pub seq_regressions: u64,
}

/// The system with everything on: journaled service with metrics,
/// ensemble poller with metrics, watchdog, HTTP server.
pub struct Stack {
    inputs: Arc<Inputs>,
    label: String,
    service: QueryService,
    poller: RegistryPoller,
    watchdog: Arc<Mutex<Watchdog>>,
    server: MetricsServer,
    metrics: Arc<MetricsRegistry>,
    live: HashMap<u64, Live>,
    submitted: u64,
    replay_offline: bool,
}

impl Stack {
    pub fn start(inputs: &Arc<Inputs>, cfg: &StackConfig) -> std::io::Result<Stack> {
        let metrics = Arc::new(MetricsRegistry::new());
        let history = if cfg.history {
            let resolver = history_resolver(inputs);
            let seen = scan_history(cfg.journal_dir, None, Some(&resolver))?;
            Some(HistoryEndpoints {
                journal_dir: cfg.journal_dir.to_owned(),
                resolver: Some(Arc::new(resolver)),
                store: Some(Arc::new(HistoryStore::from_history(&seen))),
                metrics: None,
            })
        } else {
            None
        };
        let mut journal_cfg = JournalConfig::new(cfg.journal_dir);
        if let Some(bytes) = cfg.retention_bytes {
            journal_cfg = journal_cfg.with_retention_max_bytes(bytes);
        }
        let journal =
            Journal::open(journal_cfg)?.with_metrics(JournalMetrics::new(Arc::clone(&metrics)));
        let service = QueryService::with_metrics(
            Arc::clone(&inputs.db),
            cfg.workers,
            ServiceMetrics::new(Arc::clone(&metrics)),
        )
        .with_journal(journal);
        let poller = RegistryPoller::new(
            Arc::clone(&inputs.db),
            Arc::clone(service.registry()),
            EstimatorConfig::full(),
        )
        .with_metrics(PollerMetrics::new(Arc::clone(&metrics)))
        .with_ensemble(EnsembleConfig::default());
        let watchdog = Arc::new(Mutex::new(
            Watchdog::new(
                Arc::clone(&inputs.db),
                Arc::clone(service.registry()),
                EstimatorConfig::full(),
                WatchdogConfig::default(),
            )
            .with_metrics(Arc::clone(&metrics)),
        ));
        let server = MetricsServer::start_with(
            "127.0.0.1:0",
            Arc::clone(&metrics),
            Arc::clone(service.registry()),
            ServerConfig {
                history,
                watchdog: Some(Arc::clone(&watchdog)),
                journal: service.journal().cloned(),
                ..ServerConfig::default()
            },
        )?;
        Ok(Stack {
            inputs: Arc::clone(inputs),
            label: cfg.label.to_owned(),
            service,
            poller,
            watchdog,
            server,
            metrics,
            live: HashMap::new(),
            submitted: 0,
            replay_offline: cfg.replay_offline,
        })
    }

    fn journal(&self) -> &Journal {
        self.service.journal().expect("the stack is journaled")
    }

    /// Journal epoch this incarnation writes under.
    pub fn epoch(&self) -> u32 {
        self.journal().epoch()
    }

    pub fn outstanding(&self) -> usize {
        self.live.len()
    }

    /// Block until every outstanding session is terminal, without polling:
    /// the eviction race (finished after the last `poll()`), forced.
    #[cfg(test)]
    pub fn wait_all_terminal(&self) {
        for live in self.live.values() {
            live.handle.wait_terminal();
        }
    }

    pub fn submit(&mut self, tr: &mut Tracer, plan: usize) -> u64 {
        let n = self.submitted;
        self.submitted += 1;
        let spec = self.inputs.spec(plan, n, &self.label);
        // The closed loop keeps at most six sessions in flight, so eight
        // lanes never show two overlapping roots on one.
        let root = tr.open("session", n, 10 + (n % 8) as u32);
        let service = &self.service;
        let handle = tr.span_under(root, "service.submit", n, |_| service.submit(spec));
        let id = handle.id().0;
        self.live.insert(
            id,
            Live {
                handle,
                plan,
                last_seq: 0,
                root,
            },
        );
        id
    }

    fn finish(
        tr: &mut Tracer,
        live: Live,
        p: &SessionProgress,
        replay: Option<&Inputs>,
    ) -> Finished {
        tr.close(live.root);
        let offline_error = replay.and_then(|inputs| match live.handle.result()? {
            SessionResult::Completed(run) => {
                let ens = EnsembleEstimator::build(
                    live.handle.plan(),
                    &inputs.db,
                    &run.cost_model,
                    EnsembleConfig::default(),
                );
                Some(error_count(&run, &ens.replay(&run.snapshots).estimates))
            }
            _ => None,
        });
        let progress = p.report.as_ref().map_or(0.0, |r| r.query_progress);
        Finished {
            id: p.id.0,
            plan: live.plan,
            ok: p.state == SessionState::Succeeded
                && progress >= FINAL_PROGRESS_FLOOR
                && live.handle.durability() == SessionDurability::Durable,
            at_100: progress >= 1.0 - 1e-9,
            lag: live.handle.snapshot_age().unwrap_or_default(),
            snapshots: live.handle.published_seq(),
            torn_reads: live.handle.snapshot_contention().0,
            offline_error,
        }
    }

    /// One `RegistryPoller::poll()` round. A session is handed back once a
    /// poll sees it terminal *and* estimated from its last publish.
    pub fn poll(&mut self, tr: &mut Tracer) -> PollOutcome {
        let poller = &mut self.poller;
        let started = Instant::now();
        let progress = tr.span("poller.poll", NO_ID, 1, |_| poller.poll());
        let mut out = PollOutcome {
            poll_time: started.elapsed(),
            ..PollOutcome::default()
        };
        let replay = self.replay_offline.then_some(&*self.inputs);
        for p in progress {
            let Some(live) = self.live.get_mut(&p.id.0) else {
                continue;
            };
            if p.seq < live.last_seq {
                out.seq_regressions += 1;
            } else if p.report.is_some() {
                if p.seq > live.last_seq {
                    out.live_estimates += 1;
                } else {
                    out.cached_hits += 1;
                }
            }
            live.last_seq = live.last_seq.max(p.seq);
            if p.state.is_terminal() && p.seq == live.handle.published_seq() {
                let live = self.live.remove(&p.id.0).expect("present above");
                out.finished.push(Self::finish(tr, live, &p, replay));
            }
        }
        out
    }

    /// Evict terminal sessions. `evict_terminal()` also returns sessions
    /// that finished after the last `poll()`; each evicted handle gets one
    /// `poll_session` first — it scores and reports those, and is a cache
    /// hit for the rest — or the poller would never see them again.
    pub fn evict(&mut self, tr: &mut Tracer) -> Vec<Finished> {
        let (service, poller, live) = (&self.service, &mut self.poller, &mut self.live);
        let replay = self.replay_offline.then_some(&*self.inputs);
        tr.span("poller.evict", NO_ID, 1, |tr| {
            let mut finished = Vec::new();
            for handle in service.registry().evict_terminal() {
                let p = poller.poll_session(&handle);
                if let Some(l) = live.remove(&handle.id().0) {
                    finished.push(Self::finish(tr, l, &p, replay));
                }
            }
            poller.evict_finished();
            finished
        })
    }

    /// One watchdog sweep.
    pub fn sweep(&mut self, tr: &mut Tracer) {
        let watchdog = &self.watchdog;
        tr.span("watchdog.sweep", NO_ID, 1, |_| {
            watchdog.lock().expect("watchdog poisoned").sweep();
        });
    }

    /// Enforce the journal's retention budget (oldest prior-epoch sessions
    /// go first).
    pub fn sweep_retention(&self, tr: &mut Tracer) -> std::io::Result<()> {
        let journal = self.journal();
        tr.span("journal.retention", NO_ID, 1, |_| journal.sweep_retention())
            .map(drop)
    }

    /// GET `path` from the stack's HTTP server over a fresh TCP connection.
    pub fn get(
        &self,
        tr: &mut Tracer,
        span: &'static str,
        path: &str,
    ) -> std::io::Result<(u16, String)> {
        let addr = self.server.addr();
        tr.span(span, NO_ID, 1, |_| http_get(addr, path))
    }

    /// Time the exposition render and the HTTP floor on this stack's
    /// registry as it stands; returns `(render bytes, metric families)`.
    pub fn probe_endpoints(&self, tr: &mut Tracer) -> std::io::Result<(u64, u64)> {
        const CALLS: u64 = 16;
        let metrics = &self.metrics;
        let bytes = tr.span("metrics.render", NO_ID, CALLS, |_| {
            (0..CALLS).map(|_| metrics.render().len()).max()
        });
        for _ in 0..CALLS {
            let (status, _) = self.get(tr, "http.healthz", "/healthz")?;
            if status != 200 {
                return Err(std::io::Error::other(format!("/healthz answered {status}")));
            }
        }
        Ok((bytes.unwrap_or(0) as u64, metrics.family_count() as u64))
    }

    /// Orderly shutdown: stop HTTP, drain and join the workers, stamp the
    /// clean-shutdown sentinels. Acknowledged sessions are durable after.
    pub fn shutdown(self, tr: &mut Tracer) {
        let Stack {
            service, server, ..
        } = self;
        tr.span("server.stop", NO_ID, 1, |_| server.stop());
        tr.span("service.shutdown", NO_ID, 1, |_| service.shutdown());
    }
}

/// Minimal HTTP/1.1 GET; returns `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed status line for {path}")))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

/// `scan_dir` under a span whose units are the bytes it read.
fn traced_scan(tr: &mut Tracer, dir: &Path) -> std::io::Result<JournalScan> {
    tr.span_with("journal.scan", NO_ID, |_| {
        let scan = scan_dir(dir);
        let bytes = scan.as_ref().map_or(0, |s| s.bytes_scanned);
        (scan, bytes)
    })
}

/// What a journal directory holds, checked against what the run
/// acknowledged.
#[derive(Debug)]
pub struct JournalCheck {
    pub bytes: u64,
    pub corrupt_records: u64,
    /// One line per acknowledged session the journal does not back.
    pub problems: Vec<String>,
}

/// Scan `dir` and check that every session of `epoch` in `expected`
/// (session id → snapshots published) has a terminal record and exactly
/// that many snapshots: acknowledged ⇒ durable.
pub fn verify_journal(
    tr: &mut Tracer,
    dir: &Path,
    epoch: u32,
    expected: &HashMap<u64, u64>,
) -> std::io::Result<JournalCheck> {
    let scan = traced_scan(tr, dir)?;
    let mut check = JournalCheck {
        bytes: scan.bytes_scanned,
        corrupt_records: scan.corrupt_records,
        problems: Vec::new(),
    };
    let found: HashMap<u64, _> = scan
        .sessions
        .iter()
        .filter(|s| s.epoch == epoch)
        .map(|s| (s.session_id, s))
        .collect();
    for (id, want) in expected {
        match found.get(id) {
            None => check.problems.push(format!("session {id} has no journal")),
            Some(s) if s.terminal.is_none() => check
                .problems
                .push(format!("session {id} has no terminal record")),
            Some(s) if s.snapshots.len() as u64 != *want => check.problems.push(format!(
                "session {id} journaled {} snapshots, published {want}",
                s.snapshots.len()
            )),
            Some(_) => {}
        }
    }
    Ok(check)
}

/// `RecoveryManager::recover` of `dir` into a fresh registry; returns
/// `(sessions restored, sessions unrecovered)`.
pub fn recover(tr: &mut Tracer, inputs: &Arc<Inputs>, dir: &Path) -> std::io::Result<(u64, u64)> {
    let manager = RecoveryManager::new(plan_resolver(inputs));
    let registry = SessionRegistry::new();
    let report = tr.span("recovery.recover_dir", NO_ID, 1, |_| {
        manager.recover(dir, &registry)
    })?;
    Ok((
        (report.restored() + report.orphaned()) as u64,
        report.unrecovered() as u64,
    ))
}

/// Span names of the six ensemble members, in ensemble order.
const MEMBER_SPANS: [(&str, &str); 6] = [
    ("lqs", "progress.lqs"),
    ("dne", "progress.dne"),
    ("tgn", "progress.tgn"),
    ("norefine", "progress.norefine"),
    ("pmax", "progress.pmax"),
    ("safe", "progress.safe"),
];

/// Exact figures of one plan's layer replay (the timings are in spans).
#[derive(Debug, Clone, Copy)]
pub struct PlanProbe {
    pub executed: Executed,
    pub journal_snapshot_bytes: u64,
}

/// Replays plans one at a time through the public functions of the layers
/// that, in the live run, execute inside service threads where the
/// benchmark cannot span them.
pub struct LayerProbe {
    inputs: Arc<Inputs>,
    journal: Journal,
    service: QueryService,
    poller: RegistryPoller,
}

impl LayerProbe {
    pub fn start(inputs: &Arc<Inputs>, journal_dir: &Path) -> std::io::Result<LayerProbe> {
        let service = QueryService::new(Arc::clone(&inputs.db), 1);
        let poller = RegistryPoller::new(
            Arc::clone(&inputs.db),
            Arc::clone(service.registry()),
            EstimatorConfig::full(),
        )
        .with_metrics(PollerMetrics::new(Arc::new(MetricsRegistry::new())))
        .with_ensemble(EnsembleConfig::default());
        Ok(LayerProbe {
            inputs: Arc::clone(inputs),
            journal: Journal::open(JournalConfig::new(journal_dir))?,
            service,
            poller,
        })
    }

    pub fn plan(&mut self, tr: &mut Tracer, plan: usize) -> std::io::Result<PlanProbe> {
        tr.span("plan", plan as u64, 1, |tr| self.plan_inner(tr, plan))
    }

    fn plan_inner(&mut self, tr: &mut Tracer, plan: usize) -> std::io::Result<PlanProbe> {
        /// Calls per span of the nanosecond-scale registry and cache paths.
        const CALLS: u64 = 64;
        let id = plan as u64;
        let inputs = Arc::clone(&self.inputs);
        let (db, p, opts) = (&inputs.db, &inputs.plans[plan], &inputs.opts);

        let run = probe_engine(tr, &inputs, plan);
        let snaps = &run.snapshots;
        let n = snaps.len() as u64;

        // server.seqslot: what a worker's publish and a poller's read cost.
        let slot = SnapshotSlot::new(p.nodes);
        tr.span("seqslot.publish", id, n, |_| {
            for s in snaps {
                slot.publish(s);
            }
        });
        let mut buf = DmvSnapshot {
            ts_ns: 0,
            nodes: Vec::new(),
        };
        tr.span("seqslot.read", id, n, |_| {
            for _ in 0..n {
                black_box(slot.read_into(&mut buf));
            }
        });

        // journal: the appends that sit on the worker's critical path.
        let meta = SessionMeta {
            session_id: id,
            name: format!("{}#{id}", p.name),
            workload: "probe".to_owned(),
            n_nodes: p.nodes as u32,
            plan_fingerprint: p.fingerprint,
            snapshot_target: opts.snapshot_target as u64,
            snapshot_interval_ns: opts.snapshot_interval_ns,
            cost_model: opts.cost_model.clone(),
            exec_mode: JournalExecMode::Batch,
            estimator: None,
        };
        let journal = &self.journal;
        let writer = tr.span("journal.open", id, 1, |_| journal.writer(meta))?;
        let before = writer.bytes_written();
        tr.span("journal.append", id, n, |_| {
            for s in snaps {
                writer.append_snapshot(s);
            }
        });
        let journal_snapshot_bytes = writer.bytes_written() - before;
        tr.span("journal.terminal", id, 1, |_| {
            writer.append_terminal(&TerminalRecord {
                kind: TerminalKind::Succeeded,
                at_ns: run.duration_ns,
                rows_returned: run.rows_returned,
                message: String::new(),
            });
        });
        if writer.write_errors() + writer.lost_records() > 0 {
            return Err(std::io::Error::other("journal probe lost records"));
        }

        // progress: each member alone, the composed ensemble, the
        // terminal replay and scoring.
        let mut ens = tr.span("progress.build", id, 1, |_| {
            EnsembleEstimator::build(&p.plan, db, &run.cost_model, EnsembleConfig::default())
        });
        for (member, (member_id, span)) in ens.members().zip(MEMBER_SPANS) {
            assert_eq!(member.id(), member_id, "ensemble member order changed");
            tr.span(span, id, n, |_| {
                for s in snaps {
                    black_box(member.estimate(s));
                }
            });
        }
        tr.span("progress.ensemble_observe", id, n, |_| {
            for s in snaps {
                black_box(ens.observe(s, false));
            }
        });
        tr.span("progress.replay", id, n, |_| {
            let replay = ens.replay(snaps);
            black_box((
                error_count(&run, &replay.estimates),
                error_time(&run, &replay.estimates),
            ));
        });
        tr.span("prof.from_run", id, 1, |_| {
            black_box(ProfileReport::from_run(&p.plan, &run));
        });

        // server.registry + server.poller, through an un-journaled,
        // un-metered service: `submit` is the public path to `register`.
        // The timed submit is the second of two, so the worker is already
        // busy and the span does not include the scheduler handing the
        // core to a freshly woken thread.
        let (service, poller) = (&self.service, &mut self.poller);
        let first = service.submit(inputs.spec(plan, 2 * id, "probe"));
        let spec = inputs.spec(plan, 2 * id + 1, "probe");
        let handle = tr.span("registry.register", id, 1, |_| service.submit(spec));
        first.wait_terminal();
        handle.wait_terminal();
        black_box(poller.poll_session(&first));
        tr.span("poller.score", id, 1, |_| {
            black_box(poller.poll_session(&handle));
        });
        tr.span("poller.idle", id, CALLS, |_| {
            for _ in 0..CALLS {
                black_box(poller.poll_session(&handle));
            }
        });
        tr.span("registry.sessions", id, CALLS, |_| {
            for _ in 0..CALLS {
                black_box(service.registry().sessions());
            }
        });
        tr.span("registry.evict", id, 2, |_| {
            black_box(service.registry().evict_terminal());
        });
        poller.evict_finished();

        Ok(PlanProbe {
            executed: Executed::of(&run),
            journal_snapshot_bytes,
        })
    }

    /// The read side over a journal directory a workload left behind:
    /// scan, history materialisation with and without the resolver's
    /// accuracy replays, the prediction store, recovery. Returns
    /// `(sessions, unrecovered)`.
    pub fn directory(&self, tr: &mut Tracer, dir: &Path) -> std::io::Result<(u64, u64)> {
        let inputs = &self.inputs;
        tr.root("drive", NO_ID, |tr| {
            let scan = traced_scan(tr, dir)?;
            let sessions = scan.sessions.len() as u64;
            let resolver = history_resolver(inputs);
            let fleet = tr.span("history.materialize", NO_ID, sessions, |_| {
                history_from_scan(&scan, Some(&resolver))
            });
            tr.span("history.materialize_pure", NO_ID, sessions, |_| {
                black_box(history_from_scan(&scan, None));
            });
            let store = tr.span("history.store_build", NO_ID, 1, |_| {
                HistoryStore::from_history(&fleet)
            });
            tr.span("history.predict", NO_ID, inputs.plans.len() as u64, |_| {
                for p in &inputs.plans {
                    black_box(store.predict_fingerprint(p.fingerprint));
                }
            });
            let manager = RecoveryManager::new(plan_resolver(inputs));
            let registry = SessionRegistry::new();
            let report = tr.span("recovery.recover", NO_ID, sessions, |_| {
                manager.recover_scan(&scan, &registry)
            });
            Ok((sessions, report.unrecovered() as u64))
        })
    }

    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

#[cfg(test)]
mod tests {
    /// The promise at the top of this file, kept by the build.
    #[test]
    fn no_other_file_names_the_facade() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "stack.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let naming: Vec<&str> = text
                .lines()
                .filter(|l| !l.trim_start().starts_with("//") && l.contains("lqs::"))
                .collect();
            assert!(naming.is_empty(), "{}: {naming:?}", path.display());
        }
    }
}
