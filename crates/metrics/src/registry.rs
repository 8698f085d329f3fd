//! The [`MetricsRegistry`]: named metric families with label dimensions,
//! plus the Prometheus text-format exposition writer.
//!
//! Registration (name + label values → handle) takes one mutex and is meant
//! for setup paths and low-frequency label resolution (e.g. once per
//! operator per query at close time). The returned `Arc` handles are the
//! hot path: callers keep them and touch only atomics afterwards.

use crate::primitives::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Kind of a metric family, fixed at first registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous signed value.
    Gauge,
    /// Log-bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Sorted `(label, value)` pairs identifying one child within a family.
type LabelSet = Vec<(String, String)>;

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Family {
    kind: MetricKind,
    help: String,
    children: BTreeMap<LabelSet, Metric>,
}

/// A process-wide collection of metric families, rendered on demand in the
/// Prometheus text exposition format (version 0.0.4).
///
/// Handles are get-or-create: asking twice for the same `(name, labels)`
/// returns the same underlying metric, so independent subsystems can share
/// a family without coordination.
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn validate_name(name: &str) {
    let ok = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    assert!(ok, "invalid metric name {name:?}");
}

fn validate_label(name: &str) {
    let ok = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    assert!(ok, "invalid label name {name:?}");
    assert_ne!(name, "le", "label \"le\" is reserved for histogram buckets");
}

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut out: LabelSet = labels
        .iter()
        .map(|(k, v)| {
            validate_label(k);
            ((*k).to_owned(), (*v).to_owned())
        })
        .collect();
    out.sort();
    out
}

/// Escape a label value per the exposition format: backslash, quote, LF.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(out: &mut String, labels: &LabelSet, extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

/// Render an `f64` the exposition format accepts (`+Inf`/`-Inf`/`NaN`
/// spellings included).
fn render_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else if v.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The family map, poisoned or not. A child goes in or out whole and its
    /// value is an atomic, so the map is valid at every step; and `child`
    /// itself panics under the lock on a kind mismatch, which must not turn
    /// every later scrape and registration into a panic of its own.
    fn families(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn child<T, F, G>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: F,
        cast: G,
    ) -> Arc<T>
    where
        F: FnOnce() -> Metric,
        G: FnOnce(&Metric) -> Option<Arc<T>>,
    {
        validate_name(name);
        let key = label_set(labels);
        let mut families = self.families();
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            kind,
            help: help.to_owned(),
            children: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name:?} already registered as a {:?}",
            family.kind
        );
        let metric = family.children.entry(key).or_insert_with(make);
        cast(metric).expect("kind checked above")
    }

    /// Get or create a counter in family `name` with the given labels.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.child(
            name,
            help,
            labels,
            MetricKind::Counter,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get or create a gauge in family `name` with the given labels.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.child(
            name,
            help,
            labels,
            MetricKind::Gauge,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Get or create a histogram in family `name` with the given labels.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.child(
            name,
            help,
            labels,
            MetricKind::Histogram,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Remove one child (the metric with exactly these labels) from family
    /// `name`. Returns `true` if it existed. Outstanding `Arc` handles stay
    /// valid but the metric no longer renders — this is how per-session
    /// gauges are retired on eviction instead of lingering at their last
    /// value forever. An emptied family keeps its name and kind (re-adding
    /// a child later must not change type).
    pub fn remove(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let key = label_set(labels);
        self.families()
            .get_mut(name)
            .is_some_and(|f| f.children.remove(&key).is_some())
    }

    /// Number of registered families.
    pub fn family_count(&self) -> usize {
        self.families().len()
    }

    /// Render every family in the Prometheus text exposition format,
    /// families sorted by name, children by label set. Histograms render
    /// cumulative `_bucket{le=...}` lines for non-empty buckets plus the
    /// mandatory `+Inf` bucket, `_sum`, and `_count`.
    pub fn render(&self) -> String {
        let families = self.families();
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.exposition_name());
            for (labels, metric) in &family.children {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(name);
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", c.get());
                    }
                    Metric::Gauge(g) => {
                        out.push_str(name);
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", g.get());
                    }
                    Metric::Histogram(h) => {
                        for (bound, cum) in h.cumulative_buckets() {
                            if bound == f64::INFINITY {
                                continue; // the +Inf line below covers it
                            }
                            let _ = write!(out, "{name}_bucket");
                            render_labels(&mut out, labels, Some(("le", &render_f64(bound))));
                            let _ = writeln!(out, " {cum}");
                        }
                        let _ = write!(out, "{name}_bucket");
                        render_labels(&mut out, labels, Some(("le", "+Inf")));
                        let _ = writeln!(out, " {}", h.count());
                        let _ = write!(out, "{name}_sum");
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", render_f64(h.sum()));
                        let _ = write!(out, "{name}_count");
                        render_labels(&mut out, labels, None);
                        let _ = writeln!(out, " {}", h.count());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("lqs_test_total", "help", &[("op", "scan")]);
        let b = r.counter("lqs_test_total", "help", &[("op", "scan")]);
        a.inc();
        assert_eq!(b.get(), 1);
        // Different labels → different child, same family.
        let c = r.counter("lqs_test_total", "help", &[("op", "sort")]);
        assert_eq!(c.get(), 0);
        assert_eq!(r.family_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("lqs_test_total", "help", &[]);
        r.gauge("lqs_test_total", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        MetricsRegistry::new().counter("9bad", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn le_label_reserved() {
        MetricsRegistry::new().histogram("lqs_h", "help", &[("le", "x")]);
    }

    #[test]
    fn render_counter_gauge_format() {
        let r = MetricsRegistry::new();
        r.counter("b_total", "counts b", &[("q", "tpch-q01")])
            .add(3);
        r.gauge("a_now", "gauges a", &[]).set(-2);
        let text = r.render();
        // Families sorted by name; label values quoted.
        let expected = "# HELP a_now gauges a\n# TYPE a_now gauge\na_now -2\n\
                        # HELP b_total counts b\n# TYPE b_total counter\nb_total{q=\"tpch-q01\"} 3\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn render_histogram_cumulative_and_exact() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat", "latency", &[("kind", "poll")]);
        h.observe(1.0);
        h.observe(2.0);
        h.observe(1e13); // beyond the ladder: lands in the overflow bucket
        let text = r.render();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{kind=\"poll\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum{kind=\"poll\"} 10000000000003"));
        assert!(text.contains("lat_count{kind=\"poll\"} 3"));
        // Cumulative: the bucket holding 2.0 must count 1.0 as well.
        let two_line = text
            .lines()
            .filter(|l| l.starts_with("lat_bucket") && !l.contains("+Inf"))
            .nth(1)
            .expect("two finite buckets");
        assert!(two_line.ends_with(" 2"), "line: {two_line}");
    }

    #[test]
    fn remove_retires_child_from_exposition() {
        let r = MetricsRegistry::new();
        let g = r.gauge("lqs_session_progress", "h", &[("session", "s1")]);
        g.set(42);
        r.gauge("lqs_session_progress", "h", &[("session", "s2")])
            .set(7);
        assert!(r.render().contains("session=\"s1\"} 42"));
        assert!(r.remove("lqs_session_progress", &[("session", "s1")]));
        let text = r.render();
        assert!(!text.contains("s1"), "evicted gauge still rendered: {text}");
        assert!(text.contains("session=\"s2\"} 7"));
        // Idempotent; unknown families are a no-op.
        assert!(!r.remove("lqs_session_progress", &[("session", "s1")]));
        assert!(!r.remove("no_such_family", &[]));
        // The old handle stays usable (writes just go nowhere visible).
        g.set(1);
    }

    #[test]
    fn kind_mismatch_panic_does_not_take_the_registry_down() {
        let r = MetricsRegistry::new();
        let c = r.counter("x", "h", &[]);
        // The mis-typed registration panics while holding the lock.
        let mistyped = std::thread::scope(|s| s.spawn(|| r.gauge("x", "h", &[])).join());
        assert!(mistyped.is_err());
        r.counter("x", "h", &[]).inc();
        assert_eq!(c.get(), 1);
        assert_eq!(r.family_count(), 1);
        assert!(r.render().contains("x 1"));
        assert!(r.remove("x", &[]));
        assert!(!r.render().contains("x 1"));
    }

    #[test]
    fn exposition_never_contains_nan() {
        let r = MetricsRegistry::new();
        // The NaN hazards: an empty histogram's quantiles, and gauges
        // derived from them. quantile_or_zero is the guarded path.
        let h = r.histogram("lqs_poll_latency_ns", "h", &[]);
        assert!(h.quantile(0.99).is_nan()); // the unguarded value IS NaN...
        assert_eq!(h.quantile_or_zero(0.99), 0.0); // ...the guarded one is 0
        let g = r.gauge("lqs_poll_latency_ns_p99", "h", &[]);
        g.set(h.quantile_or_zero(0.99) as i64);
        let text = r.render();
        assert!(!text.contains("NaN"), "exposition contains NaN: {text}");
        // Still NaN-free once the histogram has data.
        h.observe(123.0);
        r.gauge("lqs_poll_latency_ns_p99", "h", &[])
            .set(h.quantile_or_zero(0.99) as i64);
        assert!(!r.render().contains("NaN"));
    }

    #[test]
    fn label_values_escaped() {
        let r = MetricsRegistry::new();
        r.counter("c_total", "h", &[("q", "a\"b\\c\nd")]).inc();
        let text = r.render();
        assert!(text.contains("c_total{q=\"a\\\"b\\\\c\\nd\"} 1"));
    }
}
