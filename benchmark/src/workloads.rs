//! The four workloads and the closed loop that drives them.
//!
//! Load shape (all service workloads): one driver thread submits, polls,
//! sweeps, scrapes and evicts; `workers` service threads execute; at most
//! `workers + 3` sessions are outstanding; polls run on a 1 ms tick, the
//! watchdog sweeps every 50 ms and a `/metrics` + `/sessions` scrape pair
//! goes out every 250 ms of wall clock, one HTTP connection at a time.
//!
//! Work comes in whole laps of the plan list, so the plan mix — and with
//! it every per-session average — is the same however many laps fit in
//! the measuring time. The tables and plans are generated from
//! `ledger::DATA_SEED`; `--seed` picks the plan a lap starts with, so two
//! seeds do the same total work (README, "Seed").

use crate::ledger::{self, Workload};
use crate::promtext;
use crate::stack::{
    self, percentile, Executed, Finished, Inputs, LayerProbe, Profile, Shape, Stack, StackConfig,
};
use crate::stats::{median, sorted, tail_quantile};
use crate::trace::{Tracer, NO_ID, ROOT_NAMES};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TICK: Duration = Duration::from_millis(1);
const SWEEP_EVERY: Duration = Duration::from_millis(50);
const SCRAPE_EVERY: Duration = Duration::from_millis(250);
/// `setup_s` is the median of at least this many set-ups ...
const MIN_SETUPS: usize = 3;
/// ... and of as many more as fit in this long, so that a set-up of a few
/// milliseconds is a median over hundreds of samples. The driver holds
/// `setup_s` to its bound between sets of runs, and one set-up per run
/// moved by 40 % from run to run here.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Pieces a lap's wall time is cut into (see [`lap_rate`]).
const SEGMENTS: usize = 8;

const STEADY: Shape = Shape {
    profile: Profile::Real3,
    data_scale: 1.0,
    plans: 40,
    snapshot_target: 192,
};
const DENSE: Shape = Shape {
    profile: Profile::Real2,
    data_scale: 0.05,
    plans: 64,
    snapshot_target: 384,
};
const HISTORY: Shape = Shape {
    profile: Profile::Real1,
    data_scale: 0.25,
    plans: 48,
    snapshot_target: 192,
};

pub struct Params {
    pub workload: &'static Workload,
    /// Picks the plan a lap starts with.
    pub seed: u64,
    pub seconds: f64,
    /// Where the traced run writes its Chrome trace; `None` = tracing off.
    pub trace: Option<PathBuf>,
    /// Private directory for journals, removed by the caller on exit.
    pub scratch: PathBuf,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are not correct, one line each.
    pub problems: Vec<String>,
    /// Only what the workload measured: a figure it has no layer for is
    /// absent, not 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and tail percentiles, for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Median of a timing sample and, when the sample supports it (at
    /// least ten samples beyond it), the named tail; plus a note with the
    /// sample count and the highest percentile the count does support.
    fn set_timing(
        &mut self,
        p50: &'static str,
        tail: Option<(&'static str, f64)>,
        samples: &[f64],
    ) {
        if samples.is_empty() {
            self.problems.push(format!("no samples for {p50}"));
            return;
        }
        let s = sorted(samples);
        self.set(p50, percentile(&s, 0.5));
        let supported = tail_quantile(s.len());
        if let Some((name, q)) = tail {
            if supported.is_some_and(|top| top >= q) {
                self.set(name, percentile(&s, q));
            } else {
                self.notes.push(format!(
                    "{name}: not reported, {} samples do not reach p{}",
                    s.len(),
                    q * 100.0
                ));
            }
        }
        let top = supported.map_or("none".to_owned(), |q| {
            format!("p{} = {:.4}", q * 100.0, percentile(&s, q))
        });
        self.notes.push(format!(
            "{p50}: {} samples, highest percentile with >= 10 beyond it: {top}",
            s.len()
        ));
    }

    /// `sessions_per_s` from the laps' segment times (see [`lap_rate`]),
    /// with a note on how the whole laps of this run went.
    fn set_rate(&mut self, laps: &[Vec<f64>], sessions_per_lap: f64) {
        if laps.is_empty() {
            self.problems.push("no whole lap was measured".into());
            return;
        }
        self.set("sessions_per_s", lap_rate(laps, sessions_per_lap));
        let whole = sorted(
            &laps
                .iter()
                .map(|lap| sessions_per_lap / lap.iter().sum::<f64>())
                .collect::<Vec<_>>(),
        );
        self.notes.push(format!(
            "sessions_per_s: {} laps of {} segments; whole laps ran at {:.3} (slowest), {:.3} (median), {:.3} (fastest)",
            laps.len(),
            laps[0].len(),
            whole[0],
            percentile(&whole, 0.5),
            whole[whole.len() - 1]
        ));
    }

    fn absorb(&mut self, d: &mut Drive) {
        self.attempted += d.sessions + d.requests;
        self.failed += d.failed;
        self.problems.append(&mut d.problems);
    }
}

/// Sessions per second of a lap of `sessions_per_lap`, from what each
/// segment of the lap took in every lap measured (`laps[k][j]` is the
/// seconds segment `j`, the same sessions every lap, took in lap `k`): the
/// lap's sessions over the sum of every segment's fastest time. The machine
/// this runs on slows down for a second or two at a time, about as long as
/// a lap, so no whole lap is undisturbed but every segment is in some lap;
/// interference only ever adds time, which makes the fastest time the
/// repeatable one. Between ten runs of one commit this figure spread half
/// as far as the median over whole laps did (README, "Steadiness").
fn lap_rate(laps: &[Vec<f64>], sessions_per_lap: f64) -> f64 {
    let lap_s: f64 = (0..laps[0].len())
        .map(|j| laps.iter().map(|lap| lap[j]).fold(f64::INFINITY, f64::min))
        .sum();
    sessions_per_lap / lap_s
}

pub fn workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc.saturating_sub(1).clamp(1, 3)
}

pub fn run(p: &Params) -> std::io::Result<Outcome> {
    let mut tr = Tracer::new(p.trace.is_some());
    let mut out = match p.workload.name {
        "steady_real3" => run_sessions(p, &mut tr, &STEADY)?,
        "dense_real2" => run_sessions(p, &mut tr, &DENSE)?,
        "history_real1" => run_history(p, &mut tr)?,
        "bare_real3" => run_bare(p, &mut tr)?,
        other => unreachable!("unknown workload {other}"),
    };
    out.set("peak_rss_mb", peak_rss_mb()?);
    for (workload, metric, recorded) in ledger::RECORDED {
        let Some(&seen) = out.metrics.get(metric) else {
            continue;
        };
        if workload != p.workload.name || seen == recorded {
            continue;
        }
        if seen > recorded {
            out.problems.push(format!(
                "exact metric {metric} reads {seen:?}, worse than the recorded {recorded:?}"
            ));
        } else {
            out.notes.push(format!(
                "{metric} reads {seen:?}, better than the recorded {recorded:?}: re-record it"
            ));
        }
    }
    if let Some(path) = &p.trace {
        // The shape the trace file promises its reader.
        let orphans = tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && !ROOT_NAMES.contains(&s.name))
            .count();
        if orphans > 0 {
            out.problems.push(format!(
                "{orphans} spans have neither a parent nor a root name"
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, tr.to_chrome_json())?;
        out.notes.push(format!(
            "trace: {} spans in {}",
            tr.spans().len(),
            path.display()
        ));
    }
    Ok(out)
}

fn peak_rss_mb() -> std::io::Result<f64> {
    std::fs::read_to_string("/proc/self/status")?
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}

/// The plans of one lap in submission order: plan order, starting with
/// plan `seed % n`.
fn lap_order(seed: u64, n: usize) -> Vec<usize> {
    let first = (seed % n as u64) as usize;
    (0..n).map(|i| (first + i) % n).collect()
}

/// Generate the inputs repeatedly (see [`MIN_SETUPS`]); returns the last
/// set, what `extra` made of it, and every set-up's wall time. `extra`
/// runs inside the timed region (the history workload pre-loads its
/// journal there).
fn set_up<T>(
    shape: &Shape,
    mut extra: impl FnMut(&Arc<Inputs>) -> std::io::Result<T>,
) -> std::io::Result<(Arc<Inputs>, T, Vec<f64>)> {
    let begun = Instant::now();
    let mut times = Vec::new();
    loop {
        let started = Instant::now();
        let inputs = Arc::new(stack::build_inputs(shape, ledger::DATA_SEED));
        let extra = extra(&inputs)?;
        times.push(started.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && begun.elapsed() >= SETUP_BUDGET {
            return Ok((inputs, extra, times));
        }
    }
}

/// What the driver saw over one or more rounds.
#[derive(Default)]
struct Drive {
    sessions: u64,
    requests: u64,
    failed: u64,
    wall: Duration,
    /// Seconds per segment of every lap-sized unit of work (a round's
    /// [`SEGMENTS`] pieces, a history cycle's steps): see [`lap_rate`].
    laps: Vec<Vec<f64>>,
    /// When the watchdog last swept and the last scrape pair went out;
    /// they keep their wall-clock cadence across `drive` calls.
    last_sweep: Option<Instant>,
    last_scrape: Option<Instant>,
    poll_us: Vec<f64>,
    lag_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    live_estimates: u64,
    cached_hits: u64,
    torn_reads: u64,
    final_below_100: u64,
    /// Sum, in hand-back order, of the offline-replay ErrorAvg of every
    /// session of a sequential round.
    offline_error_sum: f64,
    journal_write_errors: u64,
    journal_lost_records: u64,
    http_shed: u64,
    http_head_timeouts: u64,
    queue_wait_p50_ms: f64,
    /// `/metrics` render `(bytes, families)` of the last traced round.
    render: (u64, u64),
    problems: Vec<String>,
}

impl Drive {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn finished(&mut self, f: Finished, acked: &mut HashMap<u64, u64>) {
        self.sessions += 1;
        if !f.ok {
            self.fail(format!(
                "session {} (plan {}) did not end Succeeded, fully estimated and durable",
                f.id, f.plan
            ));
        }
        self.lag_ms.push(f.lag.as_secs_f64() * 1e3);
        self.final_below_100 += u64::from(!f.at_100);
        self.offline_error_sum += f.offline_error.unwrap_or(0.0);
        self.torn_reads += f.torn_reads;
        acked.insert(f.id, f.snapshots);
    }

    /// One checked GET: a non-200 or (for JSON routes) unparsable answer
    /// is a failed operation.
    fn get(
        &mut self,
        stack: &Stack,
        tr: &mut Tracer,
        span: &'static str,
        path: &str,
    ) -> std::io::Result<String> {
        let (status, body) = stack.get(tr, span, path)?;
        self.requests += 1;
        let json = path != "/metrics";
        if status != 200 || body.is_empty() || (json && serde_json::from_str(&body).is_err()) {
            self.fail(format!(
                "GET {path} answered {status} with an unusable body"
            ));
        }
        Ok(body)
    }

    /// GET `/metrics` + GET `/sessions`, timed as one scrape.
    fn scrape(&mut self, stack: &Stack, tr: &mut Tracer) -> std::io::Result<()> {
        let started = Instant::now();
        tr.span("scrape", NO_ID, 1, |tr| {
            self.get(stack, tr, "http.metrics", "/metrics")?;
            self.get(stack, tr, "http.sessions", "/sessions")
        })?;
        self.scrape_ms.push(started.elapsed().as_secs_f64() * 1e3);
        self.last_scrape = Some(Instant::now());
        Ok(())
    }

    /// Submit `order` through the closed loop and hand every session
    /// back; returns the seconds each of the [`SEGMENTS`] pieces of
    /// `order` took (piece `j` ends when `(j + 1) / SEGMENTS` of the
    /// sessions are handed back). `sequential` runs one session at a time
    /// and sweeps only while nothing runs, so the journal bytes and the
    /// scoring order of the round repeat exactly.
    fn drive(
        &mut self,
        stack: &mut Stack,
        tr: &mut Tracer,
        order: &[usize],
        sequential: bool,
        acked: &mut HashMap<u64, u64>,
    ) -> std::io::Result<Vec<f64>> {
        let max_outstanding = if sequential { 1 } else { workers() + 3 };
        let started = Instant::now();
        let mut ends = Vec::with_capacity(SEGMENTS);
        tr.root("drive", NO_ID, |tr| {
            let mut tick = started;
            let (mut next, mut done) = (0, 0);
            while done < order.len() {
                while next < order.len() && stack.outstanding() < max_outstanding {
                    stack.submit(tr, order[next]);
                    next += 1;
                }
                let polled = stack.poll(tr);
                self.poll_us.push(polled.poll_time.as_secs_f64() * 1e6);
                self.live_estimates += polled.live_estimates;
                self.cached_hits += polled.cached_hits;
                if polled.seq_regressions > 0 {
                    self.fail("a session's publish sequence ran backwards".into());
                }
                for f in polled.finished.into_iter().chain(stack.evict(tr)) {
                    self.finished(f, acked);
                    done += 1;
                }
                while ends.len() < done * SEGMENTS / order.len() {
                    ends.push(started.elapsed().as_secs_f64());
                }
                if sequential {
                    if stack.outstanding() == 0 {
                        stack.sweep(tr);
                    }
                } else {
                    if self.last_sweep.get_or_insert(started).elapsed() >= SWEEP_EVERY {
                        stack.sweep(tr);
                        self.last_sweep = Some(Instant::now());
                    }
                    if self.last_scrape.get_or_insert(started).elapsed() >= SCRAPE_EVERY {
                        self.scrape(stack, tr)?;
                    }
                }
                tick += TICK;
                match tick.checked_duration_since(Instant::now()) {
                    Some(wait) => std::thread::sleep(wait),
                    None => tick = Instant::now(), // a long poll overran the tick
                }
            }
            std::io::Result::Ok(())
        })?;
        self.wall += started.elapsed();
        let mut begun = 0.0;
        Ok(ends
            .into_iter()
            .map(|end| end - std::mem::replace(&mut begun, end))
            .collect())
    }

    /// Quiesced end-of-round checks, read from the stack's own `/metrics`
    /// (the exposition an operator scrapes, not handles into the
    /// registry): every session scored exactly once, nothing lost by the
    /// journal, two identical GETs byte-identical. Returns the body.
    fn settle(
        &mut self,
        stack: &Stack,
        tr: &mut Tracer,
        sessions: u64,
        quiesced: &[&str],
    ) -> std::io::Result<String> {
        let body = tr.root("drive", NO_ID, |tr| {
            for path in quiesced {
                let first = self.get(stack, tr, "http.quiesced", path)?;
                if first != self.get(stack, tr, "http.quiesced", path)? {
                    self.fail(format!("two GETs of quiesced {path} differ"));
                }
            }
            self.get(stack, tr, "http.metrics", "/metrics")
        })?;
        for (what, seen) in [
            (
                "lqs_accuracy_sessions_total",
                promtext::counter(&body, "lqs_accuracy_sessions_total"),
            ),
            (
                "lqs_sessions_finished_total{outcome=\"succeeded\"}",
                promtext::sum_where(
                    &body,
                    "lqs_sessions_finished_total",
                    "outcome=\"succeeded\"",
                ) as u64,
            ),
        ] {
            if seen != sessions {
                self.fail(format!("{what} is {seen} after {sessions} sessions"));
            }
        }
        let write_errors = promtext::counter(&body, "lqs_journal_write_errors_total");
        let lost = promtext::counter(&body, "lqs_journal_records_suppressed_total");
        if write_errors + lost > 0 {
            self.fail(format!(
                "journal reported {write_errors} write errors, {lost} suppressed records"
            ));
        }
        self.journal_write_errors += write_errors;
        self.journal_lost_records += lost;
        self.http_shed += promtext::counter(&body, "lqs_http_shed_total");
        self.http_head_timeouts += promtext::counter(&body, "lqs_http_head_timeouts_total");
        self.queue_wait_p50_ms =
            promtext::histogram_quantile(&body, "lqs_session_queue_wait_seconds", 0.5)
                .unwrap_or(0.0)
                * 1e3;
        Ok(body)
    }

    /// After a sequential round: the poller scored the sessions online in
    /// the order they were handed back, so the `_sum` of the composed
    /// ensemble's ErrorAvg histogram must equal the offline replays' sum
    /// bit for bit (online accuracy `f64 ==` offline replay, for every
    /// session of the round at once). Returns that sum.
    fn online_error_sum(&mut self, body: &str, label: &str) -> f64 {
        let series =
            format!("lqs_estimator_error_count_sum{{estimator=\"ensemble\",workload=\"{label}\"}}");
        let online = promtext::value(body, &series);
        if online != Some(self.offline_error_sum) {
            self.fail(format!(
                "online ensemble ErrorAvg sum {online:?} != offline replays' {}",
                self.offline_error_sum
            ));
        }
        self.offline_error_sum
    }

    /// Shut the stack down, then hold the journal to what was
    /// acknowledged. Returns the directory's bytes.
    fn close(
        &mut self,
        stack: Stack,
        tr: &mut Tracer,
        dir: &Path,
        acked: &HashMap<u64, u64>,
    ) -> std::io::Result<u64> {
        let epoch = stack.epoch();
        let check = tr.root("drive", NO_ID, |tr| {
            stack.shutdown(tr);
            stack::verify_journal(tr, dir, epoch, acked)
        })?;
        for problem in check.problems {
            self.fail(problem);
        }
        if check.corrupt_records > 0 {
            self.fail(format!("{} corrupt journal records", check.corrupt_records));
        }
        Ok(check.bytes)
    }
}

/// A workload's generated inputs plus where and how it runs.
struct Bench<'a> {
    p: &'a Params,
    inputs: Arc<Inputs>,
}

impl Bench<'_> {
    fn stack(
        &self,
        dir: &Path,
        history: bool,
        retention_bytes: Option<u64>,
        replay_offline: bool,
    ) -> std::io::Result<Stack> {
        Stack::start(
            &self.inputs,
            &StackConfig {
                workers: workers(),
                journal_dir: dir,
                label: self.p.workload.name,
                history,
                retention_bytes,
                replay_offline,
            },
        )
    }

    /// One round on a fresh stack and a fresh journal directory `name`:
    /// drive `order`, settle, shut down, verify. The caller removes the
    /// directory. Returns `(journal bytes, last /metrics body)`.
    fn round(
        &self,
        tr: &mut Tracer,
        name: &str,
        order: &[usize],
        sequential: bool,
        d: &mut Drive,
    ) -> std::io::Result<(u64, String)> {
        let dir = self.p.scratch.join(name);
        let mut stack = self.stack(&dir, false, None, sequential)?;
        let mut acked = HashMap::new();
        let segments = d.drive(&mut stack, tr, order, sequential, &mut acked)?;
        d.laps.push(segments);
        let body = d.settle(&stack, tr, order.len() as u64, &["/metrics", "/sessions"])?;
        if tr.enabled() {
            let (bytes, families) = tr.root("drive", NO_ID, |tr| stack.probe_endpoints(tr))?;
            d.render = (bytes, families);
        }
        let bytes = d.close(stack, tr, &dir, &acked)?;
        Ok((bytes, body))
    }

    /// Rounds of one lap each, journals deleted between rounds outside
    /// the timed region, until `seconds` of driven time.
    fn timed_rounds(&self, tr: &mut Tracer, seconds: f64) -> std::io::Result<Drive> {
        let order = lap_order(self.p.seed, self.inputs.plans.len());
        let mut d = Drive::default();
        while d.wall.as_secs_f64() < seconds {
            self.round(tr, "round", &order, false, &mut d)?;
            std::fs::remove_dir_all(self.p.scratch.join("round"))?;
        }
        Ok(d)
    }

    /// With tracing on, the measured half and the traced half split the
    /// measuring time.
    fn phase_seconds(&self) -> f64 {
        if self.p.trace.is_some() {
            self.p.seconds / 2.0
        } else {
            self.p.seconds
        }
    }
}

/// `steady_real3` and `dense_real2`: sessions through the full stack.
fn run_sessions(p: &Params, tr: &mut Tracer, shape: &Shape) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let quiet = &mut Tracer::new(false);
    let (inputs, (), setups) = set_up(shape, |_| Ok(()))?;
    out.set("setup_s", median(&setups));
    let bench = Bench { p, inputs };
    let plans = bench.inputs.plans.len();

    // Warm-up lap, one session at a time in plan order. Its journal bytes
    // and its scoring order repeat exactly, so the exact metrics are read
    // here; it also fills caches before anything is timed.
    let in_order: Vec<usize> = (0..plans).collect();
    let mut d = Drive::default();
    let (bytes, body) = bench.round(quiet, "warmup", &in_order, true, &mut d)?;
    out.set(
        "journal_kb_per_session",
        bytes as f64 / plans as f64 / 1024.0,
    );
    out.set(
        "ensemble_error_avg",
        d.online_error_sum(&body, p.workload.name) / plans as f64,
    );
    out.absorb(&mut d);

    // The measured run, tracing off.
    let mut d = bench.timed_rounds(quiet, bench.phase_seconds())?;
    out.absorb(&mut d);
    out.set_rate(&d.laps, plans as f64);
    out.set_timing("poll_p50_us", Some(("poll_p99_us", 0.99)), &d.poll_us);
    out.set_timing("report_lag_p50_ms", None, &d.lag_ms);
    out.set_timing("scrape_p50_ms", None, &d.scrape_ms);

    if tr.enabled() {
        // The same rounds again with spans on, then every distinct plan
        // once through the layers that run inside service threads.
        let mut traced = bench.timed_rounds(tr, bench.phase_seconds())?;
        out.absorb(&mut traced);
        // The tail of the report lag needs every sample the run has.
        traced.lag_ms.extend(&d.lag_ms);
        let warmup = p.scratch.join("warmup");
        let probes = replay_layers(&bench, tr, Some(&warmup), &mut out)?;
        layer_metrics(&mut out, tr, shape, &bench, &probes, Some(&traced));
        out.set(
            "trace.overhead_frac",
            lap_rate(&d.laps, 1.0) / lap_rate(&traced.laps, 1.0) - 1.0,
        );
    }
    std::fs::remove_dir_all(p.scratch.join("warmup"))?;
    Ok(out)
}

/// `history_real1`: the read side of the journal while sessions and
/// retention sweeps keep changing the directory underneath it.
fn run_history(p: &Params, tr: &mut Tracer) -> std::io::Result<Outcome> {
    /// Share of the measuring time spent in cycles; recovery has the rest.
    const CYCLE_SHARE: f64 = 0.85;
    const SCRAPES_PER_CYCLE: usize = 20;
    const RECOVERIES: usize = 5;

    let mut out = Outcome::default();
    let quiet = &mut Tracer::new(false);
    let dir = p.scratch.join("history");

    // Set-up: generate REAL-1, then journal the pre-load (every plan once)
    // through a full stack, one session at a time in plan order so its
    // bytes repeat.
    let preload: Vec<usize> = (0..HISTORY.plans).collect();
    let mut d = Drive::default();
    let (inputs, preload_bytes, setups) = set_up(&HISTORY, |inputs| {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let bench = Bench {
            p,
            inputs: Arc::clone(inputs),
        };
        let mut stack = bench.stack(&dir, false, None, true)?;
        let mut acked = HashMap::new();
        d.offline_error_sum = 0.0;
        d.drive(&mut stack, quiet, &preload, true, &mut acked)?;
        let body = d.settle(&stack, quiet, preload.len() as u64, &[])?;
        d.online_error_sum(&body, p.workload.name);
        d.close(stack, quiet, &dir, &acked)
    })?;
    let bench = Bench { p, inputs };
    out.set("setup_s", median(&setups));
    out.set(
        "journal_kb_per_session",
        preload_bytes as f64 / preload.len() as f64 / 1024.0,
    );
    out.absorb(&mut d);

    // The measured incarnation: a new epoch over the pre-loaded directory,
    // history routes on, retention budget = the pre-load's size. A cycle
    // journals one session and sweeps; the sweep retires about as many
    // bytes of the previous epoch as the session added, so the directory —
    // and with it the cost of a scan — stays level from cycle to cycle.
    // Retention never deletes the running epoch, so the cycles stop when
    // the pre-load is used up, however much measuring time is left.
    let mut stack = bench.stack(&dir, true, Some(preload_bytes), false)?;
    let order = lap_order(p.seed, bench.inputs.plans.len());
    let predict = format!(
        "/history/predict?fingerprint={}",
        bench.inputs.plans[order[0]].fingerprint
    );
    let mut plans = order.into_iter();
    let mut d = Drive::default();
    let mut acked = HashMap::new();
    let mut history_ms = Vec::new();
    let mut untraced_cycle_s = 0.0;
    for traced in [false, true] {
        if traced && !tr.enabled() {
            break;
        }
        let tr: &mut Tracer = if traced { &mut *tr } else { &mut *quiet };
        let (started, cycles_before) = (Instant::now(), d.laps.len());
        while started.elapsed().as_secs_f64() < bench.phase_seconds() * CYCLE_SHARE {
            let Some(session) = plans.next() else {
                out.notes.push(format!(
                    "cycles stopped after {:.1} s: the pre-load's {} sessions are used up",
                    started.elapsed().as_secs_f64(),
                    HISTORY.plans
                ));
                break;
            };
            // The cycle's pieces — session, sweep, four requests, scrapes —
            // are its segments: `marks` holds where each one ended.
            let mut marks = vec![Instant::now()];
            d.drive(&mut stack, tr, &[session], false, &mut acked)?;
            marks.push(Instant::now());
            tr.root("drive", NO_ID, |tr| {
                stack.sweep_retention(tr)?;
                marks.push(Instant::now());
                let mut get = |d: &mut Drive, path: &str| {
                    let started = Instant::now();
                    let body = d.get(&stack, tr, "history.request", path);
                    history_ms.push(started.elapsed().as_secs_f64() * 1e3);
                    marks.push(Instant::now());
                    body
                };
                // The oldest session still on disk; a later sweep may
                // retire it, so the key is read afresh every cycle.
                let listed = get(&mut d, "/history/sessions")?;
                get(&mut d, "/history/percentiles")?;
                match first_session_key(&listed) {
                    Some(key) => {
                        get(&mut d, &format!("/history/session/{key}/curve"))?;
                    }
                    None => d.fail("/history/sessions lists no session".into()),
                }
                if !get(&mut d, &predict)?.contains("\"no_history\":false") {
                    d.fail("a journaled fingerprint answered no_history".into());
                }
                for _ in 0..SCRAPES_PER_CYCLE {
                    d.scrape(&stack, tr)?;
                }
                marks.push(Instant::now());
                std::io::Result::Ok(())
            })?;
            // A cycle that lost a request has failed the run already.
            if marks.len() == 8 {
                d.laps.push(
                    marks
                        .windows(2)
                        .map(|w| (w[1] - w[0]).as_secs_f64())
                        .collect(),
                );
            }
        }
        let cycles = &d.laps[cycles_before..];
        if cycles.is_empty() {
            out.problems.push("no history cycle was measured".into());
        } else if traced {
            out.set(
                "trace.overhead_frac",
                lap_rate(cycles, 1.0).recip() / untraced_cycle_s - 1.0,
            );
            d.render = tr.root("drive", NO_ID, |tr| stack.probe_endpoints(tr))?;
        } else {
            untraced_cycle_s = lap_rate(cycles, 1.0).recip();
            out.set_rate(cycles, 1.0);
            out.set_timing(
                "history_req_p50_ms",
                Some(("history_req_p90_ms", 0.9)),
                &history_ms,
            );
            out.set_timing("scrape_p50_ms", None, &d.scrape_ms);
        }
    }
    let sessions = d.sessions;
    d.settle(&stack, tr, sessions, &["/history/sessions", "/sessions"])?;
    d.close(stack, tr, &dir, &acked)?;

    // Crash-restart: rebuild fresh registries from what the run left.
    let (mut restored, mut recover_s) = (0, 0.0);
    for _ in 0..RECOVERIES {
        let started = Instant::now();
        let (sessions, unrecovered) =
            tr.root("drive", NO_ID, |tr| stack::recover(tr, &bench.inputs, &dir))?;
        recover_s += started.elapsed().as_secs_f64();
        restored += sessions;
        d.requests += 1;
        if unrecovered > 0 {
            d.fail(format!("recovery left {unrecovered} sessions unrecovered"));
        }
    }
    out.set("recover_sessions_per_s", restored as f64 / recover_s);
    out.absorb(&mut d);

    if tr.enabled() {
        let probes = replay_layers(&bench, tr, Some(&dir), &mut out)?;
        layer_metrics(&mut out, tr, &HISTORY, &bench, &probes, Some(&d));
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(out)
}

fn first_session_key(body: &str) -> Option<String> {
    serde_json::from_str(body)
        .ok()?
        .get("sessions")?
        .get_index(0)?
        .get("key")?
        .as_str()
        .map(str::to_owned)
}

/// `bare_real3`: the `steady_real3` plans straight through the engine on
/// `workers` plain threads.
fn run_bare(p: &Params, tr: &mut Tracer) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let (inputs, (), setups) = set_up(&STEADY, |_| Ok(()))?;
    out.set("setup_s", median(&setups));
    let bench = Bench { p, inputs };
    let inputs = &*bench.inputs;
    let plans = inputs.plans.len();

    // Warm-up lap: what every later execution of each plan must produce
    // (counters and virtual clock are deterministic).
    let quiet = &mut Tracer::new(false);
    let expected: Vec<Executed> = (0..plans)
        .map(|plan| stack::execute_bare(quiet, inputs, plan))
        .collect();
    let lap = lap_order(p.seed, plans);

    // Threads pull the next position of the endless lap sequence; the one
    // that would start a lap after time is up keeps everyone out of that
    // lap. Returns the whole laps' seconds per execution (a lap's segments
    // are its plans), the executions made and how many went wrong.
    let phase = |tr: &mut Tracer| {
        let (next, last_lap, wrong) = (
            AtomicUsize::new(0),
            AtomicUsize::new(usize::MAX),
            AtomicU64::new(0),
        );
        let started = Instant::now();
        let seconds = bench.phase_seconds();
        let threads: Vec<(Tracer, Vec<(usize, f64)>)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..workers())
                .map(|w| {
                    let mut tr = tr.for_thread(2 + w as u32);
                    let (next, last_lap, wrong) = (&next, &last_lap, &wrong);
                    let (lap, expected) = (&lap, &expected);
                    s.spawn(move || {
                        let mut executed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i % plans == 0 && started.elapsed().as_secs_f64() >= seconds {
                                last_lap.fetch_min(i / plans, Ordering::Relaxed);
                            }
                            if i / plans >= last_lap.load(Ordering::Relaxed) {
                                return (tr, executed);
                            }
                            let plan = lap[i % plans];
                            let began = Instant::now();
                            let got = tr.root("session", i as u64, |tr| {
                                stack::execute_bare(tr, inputs, plan)
                            });
                            executed.push((i, began.elapsed().as_secs_f64()));
                            if got != expected[plan] {
                                wrong.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("bare worker panicked"))
                .collect()
        });
        let mut laps: Vec<Vec<f64>> = Vec::new();
        let mut executions = 0;
        for (thread_tr, executed) in threads {
            tr.absorb(thread_tr);
            executions += executed.len() as u64;
            for (i, seconds) in executed {
                if laps.len() <= i / plans {
                    laps.resize(i / plans + 1, vec![f64::NAN; plans]);
                }
                laps[i / plans][i % plans] = seconds;
            }
        }
        // A thread may have slipped into the lap after the last.
        laps.retain(|lap| lap.iter().all(|s| !s.is_nan()));
        (laps, executions, wrong.into_inner())
    };

    // Every thread executes back to back, so `workers` laps' worth of
    // executions complete in the time one thread needs for a lap.
    let per_lap = (workers() * plans) as f64;
    let (laps, executions, wrong) = phase(quiet);
    out.attempted += executions;
    out.failed += wrong;
    out.set_rate(&laps, per_lap);
    if tr.enabled() {
        let (traced_laps, executions, wrong) = phase(tr);
        out.attempted += executions;
        out.failed += wrong;
        let probes = replay_layers(&bench, tr, None, &mut out)?;
        layer_metrics(&mut out, tr, &STEADY, &bench, &probes, None);
        if !(laps.is_empty() || traced_laps.is_empty()) {
            out.set(
                "trace.overhead_frac",
                lap_rate(&laps, 1.0) / lap_rate(&traced_laps, 1.0) - 1.0,
            );
        }
    }
    if out.failed > 0 {
        out.problems.push(format!(
            "{} executions produced other counters than the warm-up lap",
            out.failed
        ));
    }
    Ok(out)
}

/// Exact totals of the layer replay over every plan.
#[derive(Default)]
struct Probes {
    snapshots: u64,
    rows: u64,
    checksum: u64,
    journal_snapshot_bytes: u64,
}

/// Every distinct plan once through the layers' public functions, then
/// the read side over the journal directory the workload left.
fn replay_layers(
    bench: &Bench,
    tr: &mut Tracer,
    journal_dir: Option<&Path>,
    out: &mut Outcome,
) -> std::io::Result<Probes> {
    let mut totals = Probes::default();
    let mut add = |executed: Executed, journal_snapshot_bytes: u64| {
        totals.snapshots += executed.snapshots;
        totals.rows += executed.rows;
        totals.checksum = totals.checksum.rotate_left(1) ^ executed.checksum;
        totals.journal_snapshot_bytes += journal_snapshot_bytes;
    };
    let plans = 0..bench.inputs.plans.len();
    let Some(dir) = journal_dir else {
        // bare_real3 has no layer above the engine.
        for plan in plans {
            add(stack::probe_engine_only(tr, &bench.inputs, plan), 0);
        }
        return Ok(totals);
    };
    let probe_dir = bench.p.scratch.join("probe");
    let mut probe = LayerProbe::start(&bench.inputs, &probe_dir)?;
    for plan in plans {
        let one = probe.plan(tr, plan)?;
        add(one.executed, one.journal_snapshot_bytes);
    }
    let (sessions, unrecovered) = probe.directory(tr, dir)?;
    out.attempted += sessions;
    if unrecovered > 0 {
        out.failed += unrecovered;
        out.problems.push(format!(
            "recovery left {unrecovered} of {sessions} sessions unrecovered"
        ));
    }
    probe.shutdown();
    std::fs::remove_dir_all(&probe_dir)?;
    Ok(totals)
}

/// Compute every per-layer metric from the spans (self time = span −
/// children) and the traced run's counts. A metric whose layer the
/// workload does not touch is not set.
fn layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    shape: &Shape,
    bench: &Bench,
    probes: &Probes,
    traced: Option<&Drive>,
) {
    let inputs = &bench.inputs;
    let plans = inputs.plans.len() as f64;

    // workloads / storage / plan: the database alone, then with plans.
    let started = Instant::now();
    drop(stack::build_inputs(
        &Shape { plans: 0, ..*shape },
        ledger::DATA_SEED,
    ));
    let db_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    drop(stack::build_inputs(shape, ledger::DATA_SEED));
    let both_s = started.elapsed().as_secs_f64();
    out.set("workloads.build_db_s", db_s);
    out.set("workloads.build_plans_s", (both_s - db_s).max(0.0));
    out.set("storage.rows_loaded", inputs.rows_loaded as f64);
    out.set(
        "plan.nodes_per_plan",
        inputs.plans.iter().map(|p| p.nodes).sum::<usize>() as f64 / plans,
    );

    let agg = tr.by_name();
    let of = |name: &str| agg.get(name).copied().unwrap_or_default();
    // Mean self time of one call / of one unit of work, in nanoseconds.
    let per_call = |name: &str| {
        let a = of(name);
        a.self_ns as f64 / a.count.max(1) as f64
    };
    let per_unit = |name: &str| of(name).ns_per_unit();

    let exec = of("exec.execute");
    out.set("exec.ms_per_session", per_call("exec.execute") / 1e6);
    out.set(
        "exec.mrows_per_s",
        exec.count as f64 * (probes.rows as f64 / plans) / (exec.self_ns as f64 / 1e9) / 1e6,
    );
    out.set(
        "exec.snapshots_per_session",
        probes.snapshots as f64 / plans,
    );
    out.set(
        "exec.tuple_over_batch",
        per_call("exec.execute_tuple") / per_call("exec.execute"),
    );
    // Below 2^53 the checksum is an exactly representable JSON number.
    out.set(
        "exec.counter_checksum",
        (probes.checksum % (1 << 53)) as f64,
    );
    let Some(traced) = traced else {
        return; // bare_real3 has no layer above the engine
    };

    out.set("server.seqslot.publish_ns", per_unit("seqslot.publish"));
    out.set("server.seqslot.read_ns", per_unit("seqslot.read"));
    out.set("server.seqslot.torn_reads", traced.torn_reads as f64);

    out.set("journal.open_us", per_call("journal.open") / 1e3);
    out.set(
        "journal.append_us_per_snapshot",
        per_unit("journal.append") / 1e3,
    );
    out.set(
        "journal.terminal_fsync_ms",
        per_call("journal.terminal") / 1e6,
    );
    out.set(
        "journal.bytes_per_snapshot",
        probes.journal_snapshot_bytes as f64 / probes.snapshots as f64,
    );
    out.set("journal.write_errors", traced.journal_write_errors as f64);
    out.set("journal.lost_records", traced.journal_lost_records as f64);
    // The units of a scan span are the bytes it read.
    let scan = of("journal.scan");
    out.set(
        "journal.scan_mb_per_s",
        scan.units as f64 / 1e6 / (scan.self_ns as f64 / 1e9),
    );

    out.set("progress.build_us", per_call("progress.build") / 1e3);
    for (metric, span) in [
        ("progress.lqs_ns_per_snapshot", "progress.lqs"),
        ("progress.dne_ns_per_snapshot", "progress.dne"),
        ("progress.tgn_ns_per_snapshot", "progress.tgn"),
        ("progress.norefine_ns_per_snapshot", "progress.norefine"),
        ("progress.pmax_ns_per_snapshot", "progress.pmax"),
        ("progress.safe_ns_per_snapshot", "progress.safe"),
        (
            "progress.ensemble_observe_ns_per_snapshot",
            "progress.ensemble_observe",
        ),
    ] {
        out.set(metric, per_unit(span));
    }
    out.set(
        "progress.ensemble_over_lqs",
        per_unit("progress.ensemble_observe") / per_unit("progress.lqs"),
    );
    out.set(
        "progress.replay_us_per_snapshot",
        per_unit("progress.replay") / 1e3,
    );

    let session_polls = (traced.live_estimates + traced.cached_hits).max(1);
    out.set("server.poller.live_estimates", traced.live_estimates as f64);
    out.set("server.poller.cached_hits", traced.cached_hits as f64);
    out.set(
        "server.poller.useful_frac",
        traced.live_estimates as f64 / session_polls as f64,
    );
    out.set("server.poller.idle_ns_per_session", per_unit("poller.idle"));
    out.set(
        "server.poller.score_ms_per_session",
        per_call("poller.score") / 1e6,
    );
    if tail_quantile(traced.lag_ms.len()).is_some_and(|top| top >= 0.99) {
        out.set(
            "server.poller.report_lag_p99_ms",
            percentile(&sorted(&traced.lag_ms), 0.99),
        );
    }
    out.set("server.poller.evict_us", per_call("poller.evict") / 1e3);
    out.set(
        "server.poller.final_below_100",
        traced.final_below_100 as f64,
    );

    // What one session costs its worker end to end, in milliseconds
    // (history_real1's rate counts cycles, so it has no such figure).
    let worker_ms_per_session = (bench.p.workload.name != "history_real1")
        .then(|| out.metrics.get("sessions_per_s"))
        .flatten()
        .map(|per_s| workers() as f64 / per_s * 1e3);
    out.set("server.service.submit_us", per_call("service.submit") / 1e3);
    out.set("server.service.queue_wait_p50_ms", traced.queue_wait_p50_ms);
    out.set(
        "server.service.shutdown_ms",
        per_call("service.shutdown") / 1e6,
    );
    if let Some(worker_ms) = worker_ms_per_session {
        out.set(
            "server.service.stack_overhead_frac",
            1.0 - per_call("exec.execute") / 1e6 / worker_ms,
        );
        // The worker's critical path per session, as the replay explains it.
        let snapshots = probes.snapshots as f64 / plans;
        let explained_ms = (per_call("exec.execute")
            + snapshots * (per_unit("seqslot.publish") + per_unit("journal.append"))
            + per_call("journal.open")
            + per_call("journal.terminal"))
            / 1e6;
        out.set("ledger.coverage", explained_ms / worker_ms);
    }
    out.set("server.registry.register_ns", per_call("registry.register"));
    out.set("server.registry.sessions_ns", per_unit("registry.sessions"));
    out.set("server.registry.evict_ns", per_unit("registry.evict"));
    out.set("server.watchdog.sweep_us", per_call("watchdog.sweep") / 1e3);

    out.set("metrics.render_us", per_unit("metrics.render") / 1e3);
    out.set("metrics.render_bytes", traced.render.0 as f64);
    out.set("metrics.families", traced.render.1 as f64);
    out.set("server.http.floor_us", per_call("http.healthz") / 1e3);
    out.set("server.http.metrics_get_us", per_call("http.metrics") / 1e3);
    out.set(
        "server.http.sessions_get_us",
        per_call("http.sessions") / 1e3,
    );
    out.set("server.http.shed_total", traced.http_shed as f64);
    out.set(
        "server.http.head_timeouts_total",
        traced.http_head_timeouts as f64,
    );

    out.set(
        "history.materialize_ms_per_session",
        per_unit("history.materialize") / 1e6,
    );
    out.set(
        "history.materialize_pure_ms_per_session",
        per_unit("history.materialize_pure") / 1e6,
    );
    out.set(
        "history.store_build_ms",
        per_call("history.store_build") / 1e6,
    );
    out.set("history.predict_us", per_unit("history.predict") / 1e3);
    out.set(
        "server.recovery.recover_ms_per_session",
        per_unit("recovery.recover") / 1e6,
    );
    out.set("prof.from_run_us", per_call("prof.from_run") / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny sessions (a few rows, 8 snapshots) so that 500 of them churn
    /// through submit → publish → poll → score → evict in about a second.
    const TINY: Shape = Shape {
        profile: Profile::Real2,
        data_scale: 0.01,
        plans: 10,
        snapshot_target: 8,
    };

    fn params(scratch: &str) -> Params {
        Params {
            workload: &ledger::WORKLOADS[1],
            seed: 1,
            seconds: 1.0,
            trace: None,
            scratch: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target/test-scratch")
                .join(scratch),
        }
    }

    #[test]
    fn churn_accounts_for_every_session_across_the_eviction_race() {
        let p = params("churn");
        let _ = std::fs::remove_dir_all(&p.scratch);
        let bench = Bench {
            p: &p,
            inputs: Arc::new(stack::build_inputs(&TINY, ledger::DATA_SEED)),
        };
        let tr = &mut Tracer::new(false);
        let dir = p.scratch.join("journal");
        let mut stack = bench.stack(&dir, false, None, false).unwrap();
        let (mut d, mut acked) = (Drive::default(), HashMap::new());

        // 400 through the closed loop, wherever poll and evict happen to
        // catch them ...
        let order: Vec<usize> = (0..400).map(|i| i % TINY.plans).collect();
        d.drive(&mut stack, tr, &order, false, &mut acked).unwrap();
        assert_eq!((d.sessions, d.failed), (400, 0), "{:?}", d.problems);

        // ... and 100 that all finish after the last poll(): no poll ever
        // sees them terminal, so evict() alone must score and report them.
        for i in 0..100 {
            stack.submit(tr, i % TINY.plans);
        }
        stack.wait_all_terminal();
        let evicted = stack.evict(tr);
        assert_eq!(evicted.len(), 100);
        assert_eq!(stack.outstanding(), 0);
        for f in evicted {
            d.finished(f, &mut acked);
        }
        assert_eq!((d.sessions, d.failed), (500, 0), "{:?}", d.problems);
        assert_eq!(acked.len(), 500);

        // Every one scored exactly once, and every one durable.
        d.settle(&stack, tr, 500, &["/sessions"]).unwrap();
        d.close(stack, tr, &dir, &acked).unwrap();
        assert_eq!(d.failed, 0, "{:?}", d.problems);
        std::fs::remove_dir_all(&p.scratch).unwrap();
    }

    #[test]
    fn lap_rate_takes_each_segment_at_its_fastest() {
        // Two laps of two segments; a slow spell hit segment 0 of the
        // first lap and segment 1 of the second.
        let laps = [vec![4.0, 1.0], vec![1.0, 5.0]];
        assert_eq!(lap_rate(&laps, 10.0), 5.0);
        assert_eq!(lap_order(42, 4), vec![2, 3, 0, 1]);
    }
}
