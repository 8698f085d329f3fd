//! Crash-point chaos: deterministic process-death and tail corruption for
//! the snapshot journal, plus the kill/recover soak.
//!
//! Two fault sources compose here:
//!
//! * `SeededCrashPoint` — a [`lqs_journal::WriteCrashPoint`] that
//!   "kills" a seeded subset of sessions' journal writers at a chosen byte
//!   offset. The frame crossing the offset is torn mid-write and every
//!   later append (terminal record, clean-shutdown sentinel) is silently
//!   lost — exactly the on-disk state a real process death leaves.
//! * `corrupt_tails` — seeded post-mortem disk damage: truncate a few
//!   bytes off, or flip a bit in, the tail of already-written segment
//!   files. Models a torn kernel writeback or a decaying sector.
//!
//! [`run_crash_soak`] drives K service incarnations over one journal
//! directory: each cycle first **recovers** everything the previous
//! incarnations journaled (checking that every session comes back either
//! with its faithful terminal state or as `Orphaned` — never unrecovered),
//! then runs a fresh batch of sessions with seeded crash points, shuts
//! down, and corrupts tails. A final full recovery asserts all K×Q
//! sessions are accounted for and that every `Succeeded` session recovered
//! from the journal replays through a fresh estimator **bit-identically**
//! to an uninterrupted re-execution of the same plan. The soak then scans
//! the same hostile directory through `lqs-history` twice, checking the
//! analytics invariants (bounded curves, attribution totals, accuracy
//! replays on every surviving `Succeeded` session) and that both scans
//! render identical summaries.
//!
//! Everything keys off the config seed, virtual-clock counters, and
//! session names — never wall-clock state — so [`SoakReport::summary`]
//! is byte-for-byte reproducible (the CI `soak` job diffs two runs
//! per seed).

use crate::soak::{fnv, in_bounds, prepare_workloads, SoakReport};
use lqs_exec::{DmvSnapshot, ExecOptions, QueryRun};
use lqs_history::{scan_history, HistoryResolver, ResolvedPlan};
use lqs_journal::{Journal, JournalConfig, JournalMetrics, SessionMeta, WriteCrashPoint};
use lqs_metrics::MetricsRegistry;
use lqs_plan::PhysicalPlan;
use lqs_progress::{
    EnsembleEstimator, EstimateQuality, EstimatorConfig, GuardedEstimator, ProgressEstimator,
};
use lqs_server::{
    PollerMetrics, QueryService, QuerySpec, RecoveredOutcome, RecoveryManager, RecoveryReport,
    RegistryPoller, ServiceMetrics, SessionRegistry, SessionResult, SessionState,
};
use lqs_storage::Database;
use lqs_workloads::WorkloadScale;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// splitmix64 finalizer — decorrelates the FNV hash from the seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded process-death plan: a deterministic fraction of sessions lose
/// their journal writer at a deterministic byte offset.
///
/// The offset window starts past the start of the journal (default
/// 512 bytes) so the session-meta frame — written first and a few hundred
/// bytes at most — always survives; a crash soak asserting *zero
/// unrecovered sessions* needs every journal to at least identify itself.
#[derive(Debug, Clone)]
pub(crate) struct SeededCrashPoint {
    seed: u64,
    crash_one_in: u64,
    min_offset: u64,
    span: u64,
}

impl SeededCrashPoint {
    /// Crash roughly one in `crash_one_in` sessions (keyed by session
    /// name), somewhere in the default offset window `[512, 512+4096)`.
    pub(crate) fn new(seed: u64, crash_one_in: u64) -> Self {
        SeededCrashPoint {
            seed,
            crash_one_in: crash_one_in.max(1),
            min_offset: 512,
            span: 4096,
        }
    }
}

impl WriteCrashPoint for SeededCrashPoint {
    fn crash_after_bytes(&self, session_key: &str) -> Option<u64> {
        let h = mix(fnv(session_key) ^ self.seed);
        if !h.is_multiple_of(self.crash_one_in) {
            return None;
        }
        Some(self.min_offset + ((h >> 16) % self.span))
    }
}

/// What [`corrupt_tails`] did to a journal directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TailCorruption {
    /// Segment files large enough to be corruption candidates.
    pub(crate) eligible: usize,
    /// Files whose last bytes were chopped off.
    pub(crate) truncated: usize,
    /// Files that had one bit flipped near the tail.
    pub(crate) bit_flipped: usize,
}

/// Deterministically damage the tails of journal segment files: for a
/// seeded subset of `.lqsj` files larger than 600 bytes, either truncate
/// 1–8 bytes (a torn writeback) or flip one bit within the last 16 bytes
/// (a decayed sector). Damage never reaches the session-meta frame at the
/// start of a segment, so the reader's truncate-to-last-valid-record
/// recovery always leaves an attributable session behind.
pub(crate) fn corrupt_tails(dir: &Path, seed: u64) -> std::io::Result<TailCorruption> {
    use std::io::{Read, Seek, SeekFrom, Write};

    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".lqsj"))
        .collect();
    names.sort();

    let mut out = TailCorruption::default();
    for name in names {
        let path = dir.join(&name);
        let len = std::fs::metadata(&path)?.len();
        if len <= 600 {
            continue;
        }
        out.eligible += 1;
        let h = mix(fnv(&name) ^ seed);
        if !h.is_multiple_of(3) {
            continue;
        }
        if (h >> 8).is_multiple_of(2) {
            let chop = 1 + ((h >> 16) % 8);
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(len - chop)?;
            out.truncated += 1;
        } else {
            let pos = len - 1 - ((h >> 16) % 16);
            let bit = ((h >> 24) % 8) as u8;
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)?;
            f.seek(SeekFrom::Start(pos))?;
            let mut byte = [0u8; 1];
            f.read_exact(&mut byte)?;
            byte[0] ^= 1 << bit;
            f.seek(SeekFrom::Start(pos))?;
            f.write_all(&byte)?;
            out.bit_flipped += 1;
        }
    }
    Ok(out)
}

/// Size and content of one crash soak.
#[derive(Clone)]
pub struct CrashSoakConfig {
    /// Master seed (workload data, crash points, tail corruption).
    pub(crate) seed: u64,
    /// Service incarnations: each is started, recovered, run, and killed.
    pub(crate) cycles: usize,
    /// Sessions submitted per incarnation.
    pub(crate) queries_per_cycle: usize,
    /// Workload data scale.
    pub(crate) data_scale: f64,
    /// Worker threads per incarnation.
    pub(crate) workers: usize,
    /// Crash roughly one in this many sessions' journal writers.
    pub(crate) crash_one_in: u64,
    /// Journal directory shared by every incarnation.
    pub(crate) dir: PathBuf,
}

impl CrashSoakConfig {
    /// A fast configuration for tests and CI smoke runs: three
    /// kill/recover cycles, two sessions each, half of them crashing.
    pub fn quick(seed: u64, dir: impl Into<PathBuf>) -> Self {
        CrashSoakConfig {
            seed,
            cycles: 3,
            queries_per_cycle: 2,
            data_scale: 0.15,
            workers: 2,
            crash_one_in: 2,
            dir: dir.into(),
        }
    }
}

/// Progress bit-patterns of a run's full snapshot trace (terminal
/// snapshot included) through a fresh guarded estimator.
fn progress_bits(db: &Database, plan: &PhysicalPlan, run: &QueryRun) -> Vec<u64> {
    let est =
        ProgressEstimator::with_cost_model(plan, db, EstimatorConfig::full(), &run.cost_model);
    let mut guarded = GuardedEstimator::new(EnsembleEstimator::single(est));
    let mut bits = Vec::with_capacity(run.snapshots.len() + 1);
    for s in &run.snapshots {
        bits.push(guarded.observe(s).query_progress.to_bits());
    }
    let final_snap = DmvSnapshot {
        ts_ns: run.duration_ns,
        nodes: run.final_counters.clone(),
    };
    bits.push(guarded.observe(&final_snap).query_progress.to_bits());
    bits
}

/// A journal-recovered `Succeeded` run must be indistinguishable from an
/// uninterrupted re-execution: identical snapshot trace, final counters,
/// virtual duration and row count, and — the acceptance criterion —
/// bit-identical progress reports when replayed through a fresh estimator.
fn bit_identical_replay(
    db: &Database,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
    recovered: &QueryRun,
) -> bool {
    let direct = lqs_exec::execute(db, plan, opts);
    direct.snapshots == recovered.snapshots
        && direct.final_counters == recovered.final_counters
        && direct.duration_ns == recovered.duration_ns
        && direct.rows_returned == recovered.rows_returned
        && progress_bits(db, plan, &direct) == progress_bits(db, plan, recovered)
}

type NamedPlans = Vec<(String, Arc<PhysicalPlan>)>;

/// Recovery/replay checks shared by the per-cycle and final passes.
/// Returns `(restored, orphaned, unrecovered, bitmatch, eligible)`.
fn check_recovery(
    tag: &str,
    report: &RecoveryReport,
    registry: &SessionRegistry,
    db: &Database,
    violations: &mut Vec<String>,
) -> (usize, usize, usize, u32, u32) {
    let (mut bitmatch, mut eligible) = (0u32, 0u32);
    for s in &report.sessions {
        let key = format!("{tag} e{}-s{}", s.original_epoch, s.original_id);
        let Some(id) = s.id else {
            violations.push(format!("{key} ({}): unrecovered ({:?})", s.name, s.outcome));
            continue;
        };
        let Some(handle) = registry.session(id) else {
            violations.push(format!("{key}: recovered id not in registry"));
            continue;
        };
        if !handle.recovered() {
            violations.push(format!("{key}: restored handle not flagged recovered"));
        }
        if s.outcome == RecoveredOutcome::Restored(SessionState::Succeeded) {
            eligible += 1;
            match handle.result() {
                Some(SessionResult::Completed(run)) => {
                    if bit_identical_replay(db, handle.plan(), handle.opts(), &run) {
                        bitmatch += 1;
                    } else {
                        violations.push(format!(
                            "{key} ({}): recovered run is not bit-identical to re-execution",
                            s.name
                        ));
                    }
                }
                other => violations.push(format!(
                    "{key}: Succeeded recovery without a Completed result ({other:?})"
                )),
            }
        }
    }
    (
        report.restored(),
        report.orphaned(),
        report.unrecovered(),
        bitmatch,
        eligible,
    )
}

/// Poll every recovered session once and check what it serves: bounded
/// progress everywhere, `Degraded` quality on `Orphaned` sessions.
fn poll_recovered(
    tag: &str,
    report: &RecoveryReport,
    registry: &SessionRegistry,
    poller: &mut RegistryPoller,
    violations: &mut Vec<String>,
) {
    for s in &report.sessions {
        let Some(handle) = s.id.and_then(|id| registry.session(id)) else {
            continue;
        };
        let p = poller.poll_session(&handle);
        if let Some(r) = &p.report {
            if !in_bounds(r.query_progress) {
                violations.push(format!(
                    "{tag} {}: recovered progress {} out of [0,1]",
                    s.name, r.query_progress
                ));
            }
            if s.outcome == RecoveredOutcome::Orphaned && r.quality != EstimateQuality::Degraded {
                violations.push(format!(
                    "{tag} {}: orphaned session served {:?}, want Degraded",
                    s.name, r.quality
                ));
            }
        } else if s.outcome == RecoveredOutcome::Orphaned && s.snapshots > 0 {
            violations.push(format!(
                "{tag} {}: orphaned session with journaled snapshots served no report",
                s.name
            ));
        }
    }
}

/// The resolver a crash soak hands [`RecoveryManager`]: session names are
/// `c{cycle}-{query}`, so strip the cycle prefix and rebuild the workload
/// query by name.
fn soak_resolver(queries: NamedPlans) -> impl Fn(&SessionMeta) -> Option<Arc<PhysicalPlan>> {
    move |meta: &SessionMeta| {
        let qname = meta
            .name
            .split_once('-')
            .map(|(_, q)| q)
            .unwrap_or(meta.name.as_str());
        queries
            .iter()
            .find(|(n, _)| n == qname)
            .map(|(_, p)| Arc::clone(p))
    }
}

/// The [`HistoryResolver`] twin of [`soak_resolver`]: same name-based plan
/// lookup, paired with the workload database so history analytics can run
/// accuracy replays.
fn history_resolver(
    db: Arc<Database>,
    queries: NamedPlans,
) -> impl Fn(&SessionMeta) -> Option<ResolvedPlan> {
    let resolve = soak_resolver(queries);
    move |meta: &SessionMeta| {
        resolve(meta).map(|plan| ResolvedPlan {
            plan,
            db: Arc::clone(&db),
        })
    }
}

/// Scan the soaked directory through `lqs-history` and check its
/// invariants on hostile (torn, bit-flipped, multi-epoch) input: curves
/// stay bounded, per-node attribution totals match the session totals, and
/// every session whose terminal record survived gets an accuracy replay.
/// Returns a deterministic one-line summary for the report.
fn check_history(
    dir: &Path,
    resolver: &dyn HistoryResolver,
    violations: &mut Vec<String>,
) -> String {
    let fleet = match scan_history(dir, None, Some(resolver)) {
        Ok(f) => f,
        Err(e) => {
            violations.push(format!("history scan failed: {e}"));
            return "history: scan failed".to_string();
        }
    };
    let (mut succeeded, mut scored) = (0usize, 0usize);
    for s in &fleet.sessions {
        for p in &s.curve {
            if !in_bounds(p.progress) {
                violations.push(format!(
                    "history {}: curve progress {} out of [0,1]",
                    s.key(),
                    p.progress
                ));
            }
        }
        let node_cpu: u64 = s.nodes.iter().map(|n| n.cpu_ns).sum();
        if node_cpu != s.total_cpu_ns {
            violations.push(format!(
                "history {}: node attribution {} != session total {}",
                s.key(),
                node_cpu,
                s.total_cpu_ns
            ));
        }
        if s.succeeded() {
            succeeded += 1;
            if s.error_avg.is_some() && s.error_time.is_some() {
                scored += 1;
            } else {
                violations.push(format!(
                    "history {} ({}): succeeded session without an accuracy replay",
                    s.key(),
                    s.name
                ));
            }
        }
    }
    format!(
        "history: sessions={} succeeded={succeeded} scored={scored} corrupt={} workloads={}",
        fleet.sessions.len(),
        fleet.corrupt_records,
        fleet.percentiles().len(),
    )
}

/// Run the kill/recover soak. See the module docs for the invariants.
pub fn run_crash_soak(cfg: &CrashSoakConfig) -> SoakReport {
    let scale = WorkloadScale {
        data_scale: cfg.data_scale,
        query_limit: cfg.queries_per_cycle,
        seed: cfg.seed,
    };
    let (wl_name, db, queries) = prepare_workloads(scale, 1)
        .pop()
        .expect("prepare_workloads returns at least one");
    let crash: Arc<dyn WriteCrashPoint> =
        Arc::new(SeededCrashPoint::new(cfg.seed, cfg.crash_one_in));
    let mut lines = vec![format!(
        "lqs-chaos crash soak seed={} cycles={} queries={} scale={} crash_one_in={}",
        cfg.seed, cfg.cycles, cfg.queries_per_cycle, cfg.data_scale, cfg.crash_one_in
    )];
    let mut violations = Vec::new();
    let mut sessions_total = 0usize;

    for cycle in 0..cfg.cycles.max(1) {
        let mreg = Arc::new(MetricsRegistry::new());
        let jmetrics = JournalMetrics::new(Arc::clone(&mreg));
        let journal =
            match Journal::open(JournalConfig::new(&cfg.dir).with_crash(Arc::clone(&crash))) {
                Ok(j) => j.with_metrics(jmetrics.clone()),
                Err(e) => {
                    violations.push(format!("cycle={cycle}: journal open failed: {e}"));
                    break;
                }
            };
        let service = QueryService::with_metrics(
            Arc::clone(&db),
            cfg.workers,
            ServiceMetrics::new(Arc::clone(&mreg)),
        )
        .with_journal(journal);
        let mut poller = RegistryPoller::new(
            Arc::clone(&db),
            Arc::clone(service.registry()),
            EstimatorConfig::full(),
        )
        .with_metrics(PollerMetrics::new(Arc::clone(&mreg)));

        // Recover everything earlier incarnations journaled — including
        // journals torn by crash points and tails damaged between cycles.
        let recovery =
            RecoveryManager::new(soak_resolver(queries.clone())).with_metrics(jmetrics.clone());
        let report = match recovery.recover(&cfg.dir, service.registry()) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("cycle={cycle}: recovery scan failed: {e}"));
                break;
            }
        };
        let tag = format!("cycle={cycle}");
        let (restored, orphaned, unrecovered, bitmatch, eligible) =
            check_recovery(&tag, &report, service.registry(), &db, &mut violations);
        poll_recovered(
            &tag,
            &report,
            service.registry(),
            &mut poller,
            &mut violations,
        );

        // Fresh batch of sessions, journaled under this incarnation's
        // epoch; the seeded crash point tears a subset of the journals
        // (execution itself runs to completion — only durability dies).
        let mut handles = Vec::new();
        for (qname, qplan) in &queries {
            let spec = QuerySpec::new(format!("c{cycle}-{qname}"), Arc::clone(qplan))
                .with_workload(wl_name.clone());
            handles.push(service.submit(spec));
        }
        service.wait_all();
        let mut ok = 0u32;
        for h in &handles {
            sessions_total += 1;
            let p = poller.poll_session(h);
            match h.state() {
                SessionState::Succeeded => {
                    ok += 1;
                    match &p.report {
                        Some(r) if r.query_progress >= 1.0 - 1e-9 => {}
                        Some(r) => violations.push(format!(
                            "cycle={cycle} {}: succeeded but final progress {}",
                            h.name(),
                            r.query_progress
                        )),
                        None => violations.push(format!(
                            "cycle={cycle} {}: succeeded without a report",
                            h.name()
                        )),
                    }
                }
                s => violations.push(format!(
                    "cycle={cycle} {}: expected Succeeded, got {s:?}",
                    h.name()
                )),
            }
        }

        // Orderly shutdown: sentinels land only in journals whose writer
        // didn't "die" — crashed ones stay torn, for the next recovery.
        service.shutdown();

        // Post-mortem disk damage before the next incarnation looks.
        let tails = match corrupt_tails(&cfg.dir, mix(cfg.seed ^ cycle as u64)) {
            Ok(t) => t,
            Err(e) => {
                violations.push(format!("cycle={cycle}: tail corruption failed: {e}"));
                TailCorruption::default()
            }
        };
        lines.push(format!(
            "cycle={cycle} recovery: sessions={} restored={restored} orphaned={orphaned} \
             unrecovered={unrecovered} corrupt={} bitmatch={bitmatch}/{eligible} | \
             live ok={ok}/{} | tails eligible={} truncated={} flipped={}",
            report.sessions.len(),
            report.corrupt_records,
            handles.len(),
            tails.eligible,
            tails.truncated,
            tails.bit_flipped,
        ));
    }

    // Final full recovery into a standalone registry: every session ever
    // submitted must be accounted for, none unrecovered.
    let registry = Arc::new(SessionRegistry::new());
    let recovery = RecoveryManager::new(soak_resolver(queries.clone()));
    match recovery.recover(&cfg.dir, &registry) {
        Ok(report) => {
            let (restored, orphaned, unrecovered, bitmatch, eligible) =
                check_recovery("final", &report, &registry, &db, &mut violations);
            let mut poller = RegistryPoller::new(
                Arc::clone(&db),
                Arc::clone(&registry),
                EstimatorConfig::full(),
            );
            poll_recovered("final", &report, &registry, &mut poller, &mut violations);
            if report.sessions.len() != sessions_total {
                violations.push(format!(
                    "final recovery: {} journaled sessions, {} submitted",
                    report.sessions.len(),
                    sessions_total
                ));
            }
            lines.push(format!(
                "final recovery: sessions={} restored={restored} orphaned={orphaned} \
                 unrecovered={unrecovered} corrupt={} bitmatch={bitmatch}/{eligible}",
                report.sessions.len(),
                report.corrupt_records,
            ));
        }
        Err(e) => violations.push(format!("final recovery scan failed: {e}")),
    }

    // History analytics over the same hostile directory: invariants must
    // hold, and two scans of the now-unchanged journals must render the
    // exact same summary (the history layer is a pure function of the
    // bytes on disk).
    let resolver = history_resolver(Arc::clone(&db), queries.clone());
    let h1 = check_history(&cfg.dir, &resolver, &mut violations);
    let h2 = check_history(&cfg.dir, &resolver, &mut violations);
    if h1 != h2 {
        violations.push(format!(
            "history scans of an unchanged soak dir differ: {h1:?} vs {h2:?}"
        ));
    }
    lines.push(h1);

    lines.push(format!(
        "sessions={} violations={}",
        sessions_total,
        violations.len()
    ));
    SoakReport {
        summary: lines.join("\n") + "\n",
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::tmpdir;

    #[test]
    fn seeded_crash_point_is_deterministic_and_past_min_offset() {
        let p = SeededCrashPoint::new(7, 2);
        let mut crashed = 0;
        for i in 0..64 {
            let key = format!("c0-q{i}");
            let a = p.crash_after_bytes(&key);
            assert_eq!(a, p.crash_after_bytes(&key));
            if let Some(off) = a {
                assert!((512..512 + 4096).contains(&off));
                crashed += 1;
            }
        }
        assert!(crashed > 8, "one-in-two plan crashed only {crashed}/64");
        assert!(crashed < 56, "one-in-two plan crashed {crashed}/64");
    }

    #[test]
    fn quick_crash_soak_passes_and_is_deterministic() {
        let da = tmpdir("a");
        let a = run_crash_soak(&CrashSoakConfig::quick(42, &da));
        assert!(a.passed(), "violations: {:?}", a.violations);

        let db = tmpdir("b");
        let b = run_crash_soak(&CrashSoakConfig::quick(42, &db));
        assert_eq!(
            a.summary, b.summary,
            "same seed must give identical summaries"
        );

        let dc = tmpdir("c");
        let c = run_crash_soak(&CrashSoakConfig::quick(43, &dc));
        assert!(c.passed(), "violations: {:?}", c.violations);

        for d in [da, db, dc] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    /// One worker and six sessions per cycle keep sessions queued, so group
    /// commit holds frames while they wait and the seeded crash points can
    /// fall inside a batch, which `quick`'s two sessions on two workers
    /// almost never allow.
    #[test]
    fn queued_crash_soak_passes_and_is_deterministic() {
        for seed in [42, 43] {
            let queued = |dir: &PathBuf| CrashSoakConfig {
                workers: 1,
                queries_per_cycle: 6,
                ..CrashSoakConfig::quick(seed, dir)
            };
            let da = tmpdir("queued-a");
            let a = run_crash_soak(&queued(&da));
            assert!(a.passed(), "seed {seed} violations: {:?}", a.violations);
            let db = tmpdir("queued-b");
            let b = run_crash_soak(&queued(&db));
            assert_eq!(
                a.summary, b.summary,
                "seed {seed}: same seed must give identical summaries"
            );
            for d in [da, db] {
                let _ = std::fs::remove_dir_all(&d);
            }
        }
    }
}
