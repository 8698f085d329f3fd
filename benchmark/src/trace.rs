//! The benchmark's own span recorder. Spans wrap every call the benchmark
//! makes into a layer of the program; they stay in memory, become a
//! Chrome-trace file at exit, and the per-layer metrics are computed from
//! their self times (a span's duration minus what its children cover).
//! With tracing off, [`Tracer::span`] is one branch around the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `Span::id` of a span that belongs to no single session or plan.
pub const NO_ID: u64 = u64::MAX;

/// Names a span may carry without a parent: one root per session (submit
/// to final report), one per plan of the layer replay, and one per round
/// for the driver calls that serve every outstanding session at once.
pub const ROOT_NAMES: [&str; 3] = ["session", "plan", "drive"];

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Session id or plan index shared by the spans of one request.
    pub id: u64,
    /// Units of work the interval covers (snapshots appended, bytes
    /// scanned, calls made) — the denominator of a per-unit figure.
    pub units: u64,
    /// Chrome-trace lane.
    pub tid: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time, total time, calls and units of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub self_ns: u64,
    pub total_ns: u64,
    pub count: u64,
    pub units: u64,
}

impl Agg {
    /// Self nanoseconds per unit of work (0 when no unit was recorded).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.units as f64
        }
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the top.
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            tid: 1,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn for_thread(&self, tid: u32) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, id: u64, tid: u32, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
            units: 1,
            tid,
        });
        self.spans.len() - 1
    }

    /// Open a parentless span that outlives the call opening it (a
    /// session's root, the round's driver root). Children name it through
    /// [`Tracer::span_under`].
    pub fn open(&mut self, name: &'static str, id: u64, tid: u32) -> Option<usize> {
        self.enabled.then(|| self.push(name, id, tid, None))
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Make `span` the parent of everything recorded until [`Tracer::leave`].
    fn enter(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.stack.push(i);
        }
    }

    fn leave(&mut self, span: Option<usize>) {
        if span.is_some() {
            self.stack.pop();
        }
    }

    /// Time `f` as a child of the innermost open span, covering `units`
    /// units of work. `f` receives the tracer back so it can nest.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        units: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.span_with(name, id, |tr| (f(tr), units))
    }

    /// [`Tracer::span`] for work whose unit count is only known once it
    /// is done (bytes a scan read): `f` returns it beside its result.
    pub fn span_with<R>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let parent = self.stack.last().copied();
        let i = self.push(name, id, self.tid, parent);
        self.stack.push(i);
        let (out, units) = f(self);
        self.stack.pop();
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].units = units;
        out
    }

    /// [`Tracer::span`] as a child of `parent` instead of the innermost
    /// open span.
    pub fn span_under<R>(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.enter(parent);
        let out = self.span(name, id, 1, f);
        self.leave(parent);
        out
    }

    /// Run `f` under a fresh parentless span (see [`ROOT_NAMES`]).
    pub fn root<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let root = self.open(name, id, self.tid);
        self.enter(root);
        let out = f(self);
        self.leave(root);
        self.close(root);
        out
    }

    /// Take over another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn by_name(&self) -> BTreeMap<&'static str, Agg> {
        by_name(&self.spans)
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
    /// complete events in microseconds, parent/id/units/self time in args.
    pub fn to_chrome_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let id = if s.id == NO_ID {
                "null".to_owned()
            } else {
                s.id.to_string()
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{id},\"units\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.units,
                selfs[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the durations of the spans
/// naming it as parent (never below zero — a session root's children run
/// inside driver spans and may overlap it only partly).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.dur_ns());
        }
    }
    selfs
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.self_ns += self_ns;
        a.total_ns += s.dur_ns();
        a.count += 1;
        a.units += s.units;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, units: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: NO_ID,
            units,
            tid: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("plan", 0, 100, None, 1),
            span("exec", 10, 40, Some(0), 1),
            span("journal.append", 40, 90, Some(0), 5),
            span("fsync", 60, 80, Some(2), 1),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
        let agg = by_name(&spans);
        assert_eq!(agg["plan"].self_ns, 20);
        assert_eq!(agg["journal.append"].total_ns, 50);
        assert_eq!(agg["journal.append"].ns_per_unit(), 6.0);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(agg.values().map(|a| a.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn self_time_saturates_when_children_overhang() {
        let spans = vec![
            span("session", 0, 10, None, 1),
            span("submit", 5, 30, Some(0), 1),
        ];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn nesting_assigns_parents_and_roots_stay_detached() {
        let mut tr = Tracer::new(true);
        let root = tr.open("session", 7, 2);
        tr.span("drive", NO_ID, 1, |tr| {
            tr.span("poller.poll", NO_ID, 1, |_| ());
            tr.span_under(root, "service.submit", 7, |_| ());
        });
        tr.close(root);
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("session", None),
                ("drive", None),
                ("poller.poll", Some(1)),
                ("service.submit", Some(0)),
            ]
        );
        let json = tr.to_chrome_json();
        assert!(json.contains("\"name\":\"service.submit\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let root = tr.open("session", 1, 2);
        assert_eq!(tr.span("exec", 1, 1, |_| 42), 42);
        tr.close(root);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut main = Tracer::new(true);
        main.span("drive", NO_ID, 1, |_| ());
        let mut worker = main.for_thread(3);
        worker.span("plan", 0, 1, |tr| tr.span("exec.execute", 0, 1, |_| ()));
        main.absorb(worker);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].tid, 3);
    }
}
