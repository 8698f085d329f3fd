//! Plan-fingerprint-keyed resource prediction from journaled history.
//!
//! Li et al. ("Robust Estimation of Resource Consumption for SQL Queries
//! using Statistical Techniques", VLDB 2012) observe that the best
//! predictor of a query's resource consumption is *prior runs of similar
//! plans*, not the optimizer's cost formulas. [`HistoryStore`] implements
//! the lightweight analogue over `lqs-journal` data:
//!
//! * **Exact hit** — the incoming plan's structural fingerprint matches
//!   journaled runs: predict the per-resource **medians** of those runs
//!   (robust to the odd outlier run).
//! * **Near miss** — no fingerprint match: find the nearest journaled
//!   plan in log-space feature distance and scale its observed per
//!   operator-class resources by the ratio of optimizer estimates
//!   (incoming / neighbor) class by class, so an identical join over 10×
//!   the rows predicts ~10× the join CPU rather than the neighbor's raw
//!   numbers.
//! * **Cold store** — no history at all (or nothing comparable): the
//!   answer is [`None`], never a fabricated zero. Callers (admission
//!   control, `/history/predict`) must surface "no history" explicitly
//!   and fall back to their cold-start policy.

use lqs_plan::PhysicalPlan;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Optimizer-estimate totals for one operator class (display-name bucket)
/// of a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct ClassFeatures {
    /// Number of plan nodes of this class.
    pub(crate) count: usize,
    /// Summed optimizer CPU estimate, nanoseconds.
    pub(crate) est_cpu_ns: f64,
    /// Summed optimizer I/O estimate, pages.
    pub(crate) est_io_pages: f64,
    /// Summed estimated total rows (rows/exec × executions).
    pub(crate) est_rows: f64,
}

/// The feature vector the similarity search runs on: per-operator-class
/// optimizer estimates plus each node's class, so observed per-node
/// counters can be folded into per-class totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanFeatures {
    /// Per-class estimate totals, keyed by operator display name
    /// (`BTreeMap` for deterministic iteration).
    pub(crate) classes: BTreeMap<String, ClassFeatures>,
    /// Operator class of each plan node, arena order.
    pub(crate) node_class: Vec<String>,
    /// Whole-plan optimizer CPU estimate, nanoseconds.
    pub(crate) est_cpu_ns: f64,
    /// Whole-plan optimizer I/O estimate, pages.
    pub(crate) est_io_pages: f64,
}

/// Extract [`PlanFeatures`] from a physical plan.
pub fn plan_features(plan: &PhysicalPlan) -> PlanFeatures {
    let mut f = PlanFeatures::default();
    for node in plan.nodes() {
        let class = node.op.display_name().to_owned();
        let c = f.classes.entry(class.clone()).or_default();
        c.count += 1;
        c.est_cpu_ns += node.est_cpu_ns;
        c.est_io_pages += node.est_io_pages;
        c.est_rows += node.est_total_rows();
        f.node_class.push(class);
        f.est_cpu_ns += node.est_cpu_ns;
        f.est_io_pages += node.est_io_pages;
    }
    f
}

/// Observed resource totals of one completed run, as journaled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservedRun {
    /// Virtual runtime, nanoseconds.
    pub runtime_ns: f64,
    /// Total virtual CPU across all nodes, nanoseconds.
    pub cpu_ns: f64,
    /// Total logical page reads across all nodes.
    pub logical_reads: f64,
    /// Observed CPU folded per operator class, nanoseconds.
    pub(crate) per_class_cpu: BTreeMap<String, f64>,
    /// Observed logical reads folded per operator class.
    pub(crate) per_class_reads: BTreeMap<String, f64>,
}

impl ObservedRun {
    /// Fold per-node observed counters into per-class totals using the
    /// node→class map of `features`. Nodes beyond the feature vector
    /// (fingerprint-mismatched data) are dropped — the caller should have
    /// refused such runs already.
    pub fn from_totals(
        features: &PlanFeatures,
        runtime_ns: u64,
        node_cpu_ns: &[u64],
        node_reads: &[u64],
    ) -> ObservedRun {
        let mut run = ObservedRun {
            runtime_ns: runtime_ns as f64,
            ..ObservedRun::default()
        };
        for (i, class) in features.node_class.iter().enumerate() {
            let cpu = node_cpu_ns.get(i).copied().unwrap_or(0) as f64;
            let reads = node_reads.get(i).copied().unwrap_or(0) as f64;
            run.cpu_ns += cpu;
            run.logical_reads += reads;
            *run.per_class_cpu.entry(class.clone()).or_default() += cpu;
            *run.per_class_reads.entry(class.clone()).or_default() += reads;
        }
        run
    }
}

/// How a prediction was derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictionBasis {
    /// Exact plan-fingerprint match: medians of observed runs.
    Exact,
    /// Nearest neighbor in plan-feature space with per-class scaling.
    Similar {
        /// Fingerprint of the neighbor plan used.
        fingerprint: u64,
        /// Log-space feature distance to the neighbor (0 = identical
        /// features).
        distance: f64,
    },
}

impl PredictionBasis {
    /// Stable label for metrics and JSON (`"exact"` / `"similar"`).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            PredictionBasis::Exact => "exact",
            PredictionBasis::Similar { .. } => "similar",
        }
    }
}

/// A resource prediction for an incoming plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourcePrediction {
    /// Predicted total virtual CPU, nanoseconds.
    pub cpu_ns: f64,
    /// Predicted total logical page reads.
    pub logical_reads: f64,
    /// Predicted virtual runtime, nanoseconds.
    pub runtime_ns: f64,
    /// Observed runs the prediction is based on.
    pub runs: usize,
    /// How the prediction was derived.
    pub basis: PredictionBasis,
}

#[derive(Debug, Clone, Default)]
struct FingerprintEntry {
    features: PlanFeatures,
    runs: Vec<ObservedRun>,
}

/// Fingerprint-keyed history of observed runs with similarity-based
/// prediction. Interior-mutable (`&self` throughout) so the server can
/// share one store between the admission path and `/history/predict`.
#[derive(Debug, Default)]
pub struct HistoryStore {
    inner: Mutex<BTreeMap<u64, FingerprintEntry>>,
}

impl HistoryStore {
    /// An empty (cold) store.
    pub fn new() -> HistoryStore {
        HistoryStore::default()
    }

    /// The history. Every critical section only reads it or adds one
    /// whole run, so a guard poisoned by a panicking holder still guards a
    /// valid history.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, FingerprintEntry>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one completed run of the plan with the given fingerprint.
    /// `features` must come from the *same* plan (the caller verified the
    /// fingerprint); the first observation fixes the feature vector.
    pub fn observe(&self, fingerprint: u64, features: &PlanFeatures, run: ObservedRun) {
        let mut inner = self.lock();
        let entry = inner.entry(fingerprint).or_default();
        if entry.runs.is_empty() {
            entry.features = features.clone();
        }
        entry.runs.push(run);
    }

    /// Number of distinct plan fingerprints with history.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no runs have been observed.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total observed runs across all fingerprints.
    pub fn total_runs(&self) -> usize {
        self.lock().values().map(|e| e.runs.len()).sum()
    }

    /// Predict resources for an incoming plan given its fingerprint and
    /// features. `None` means **no history** — the store is cold or holds
    /// nothing comparable; callers must not treat that as "zero cost".
    pub(crate) fn predict(
        &self,
        fingerprint: u64,
        features: &PlanFeatures,
    ) -> Option<ResourcePrediction> {
        let inner = self.lock();
        if let Some(entry) = inner.get(&fingerprint) {
            if !entry.runs.is_empty() {
                return Some(ResourcePrediction {
                    cpu_ns: median(entry.runs.iter().map(|r| r.cpu_ns)),
                    logical_reads: median(entry.runs.iter().map(|r| r.logical_reads)),
                    runtime_ns: median(entry.runs.iter().map(|r| r.runtime_ns)),
                    runs: entry.runs.len(),
                    basis: PredictionBasis::Exact,
                });
            }
        }
        // Nearest neighbor by log-space feature distance; ties break on
        // fingerprint (BTreeMap order) for determinism.
        let (nb_fp, nb) = inner
            .iter()
            .filter(|(_, e)| !e.runs.is_empty())
            .map(|(fp, e)| (*fp, e, feature_distance(features, &e.features)))
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(fp, e, _)| (fp, e))?;
        let distance = feature_distance(features, &nb.features);

        // Median observed per-class resources of the neighbor, scaled
        // class-by-class by the optimizer-estimate ratio incoming/neighbor.
        // Classes only the incoming plan has fall back to their raw
        // optimizer estimate — better than pretending they are free.
        let mut cpu = 0.0;
        let mut reads = 0.0;
        for (class, cf) in &features.classes {
            match nb.features.classes.get(class) {
                Some(nf) => {
                    let obs_cpu = median(
                        nb.runs
                            .iter()
                            .map(|r| r.per_class_cpu.get(class).copied().unwrap_or(0.0)),
                    );
                    let obs_reads = median(
                        nb.runs
                            .iter()
                            .map(|r| r.per_class_reads.get(class).copied().unwrap_or(0.0)),
                    );
                    cpu += obs_cpu * scale_ratio(cf.est_cpu_ns, nf.est_cpu_ns);
                    reads += obs_reads * scale_ratio(cf.est_io_pages, nf.est_io_pages);
                }
                None => {
                    cpu += cf.est_cpu_ns;
                    reads += cf.est_io_pages;
                }
            }
        }
        // Runtime has no per-class decomposition; scale the neighbor's
        // median runtime by the whole-plan CPU-estimate ratio.
        let runtime = median(nb.runs.iter().map(|r| r.runtime_ns))
            * scale_ratio(features.est_cpu_ns, nb.features.est_cpu_ns);
        Some(ResourcePrediction {
            cpu_ns: cpu,
            logical_reads: reads,
            runtime_ns: runtime,
            runs: nb.runs.len(),
            basis: PredictionBasis::Similar {
                fingerprint: nb_fp,
                distance,
            },
        })
    }

    /// Convenience: fingerprint + featurize + predict in one call.
    pub fn predict_plan(&self, plan: &PhysicalPlan) -> Option<ResourcePrediction> {
        self.predict(lqs_journal::plan_fingerprint(plan), &plan_features(plan))
    }

    /// Predict from a fingerprint alone (the HTTP path, where the caller
    /// has no plan to featurize). Only exact history can answer — a
    /// fingerprint the store has never seen is an explicit no-history
    /// `None`, never a fabricated estimate.
    pub fn predict_fingerprint(&self, fingerprint: u64) -> Option<ResourcePrediction> {
        let features = {
            let inner = self.lock();
            inner.get(&fingerprint).map(|e| e.features.clone())
        }?;
        self.predict(fingerprint, &features)
    }

    /// Seed a store from a scanned [`crate::FleetHistory`]: every
    /// **succeeded** session whose plan was resolved (so features exist)
    /// becomes one observation.
    pub fn from_history(history: &crate::FleetHistory) -> HistoryStore {
        let store = HistoryStore::new();
        for s in &history.sessions {
            let Some(features) = &s.features else {
                continue;
            };
            if !s.succeeded() {
                continue;
            }
            let cpu: Vec<u64> = s.nodes.iter().map(|n| n.cpu_ns).collect();
            let reads: Vec<u64> = s.nodes.iter().map(|n| n.logical_reads).collect();
            store.observe(
                s.plan_fingerprint,
                features,
                ObservedRun::from_totals(features, s.runtime_ns, &cpu, &reads),
            );
        }
        store
    }
}

/// Median of a sample stream (0.0 when empty). Uses the same exact
/// interpolation as `lqs_metrics::percentile` at q = 0.5.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    lqs_metrics::percentile(&v, 0.5)
}

/// Ratio `incoming / neighbor` with both sides floored at 1.0 so
/// zero-estimate classes neither explode nor zero out the scaled value.
fn scale_ratio(incoming: f64, neighbor: f64) -> f64 {
    incoming.max(1.0) / neighbor.max(1.0)
}

/// Log-space distance between two plans' feature vectors: per class (union
/// of both plans' classes), sum of |ln(1+a) − ln(1+b)| over the class's
/// count, CPU, I/O and row estimates. Log space makes "10× the rows" a
/// constant offset instead of drowning out structural differences.
fn feature_distance(a: &PlanFeatures, b: &PlanFeatures) -> f64 {
    let lg = |x: f64| (1.0 + x.max(0.0)).ln();
    let mut d = 0.0;
    let classes = a.classes.keys().chain(b.classes.keys());
    let mut seen: Vec<&String> = Vec::new();
    for class in classes {
        if seen.contains(&class) {
            continue;
        }
        seen.push(class);
        let ca = a.classes.get(class).copied().unwrap_or_default();
        let cb = b.classes.get(class).copied().unwrap_or_default();
        d += (lg(ca.count as f64) - lg(cb.count as f64)).abs()
            + (lg(ca.est_cpu_ns) - lg(cb.est_cpu_ns)).abs()
            + (lg(ca.est_io_pages) - lg(cb.est_io_pages)).abs()
            + (lg(ca.est_rows) - lg(cb.est_rows)).abs();
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(classes: &[(&str, usize, f64, f64, f64)]) -> PlanFeatures {
        let mut f = PlanFeatures::default();
        for &(name, count, cpu, io, rows) in classes {
            f.classes.insert(
                name.to_owned(),
                ClassFeatures {
                    count,
                    est_cpu_ns: cpu,
                    est_io_pages: io,
                    est_rows: rows,
                },
            );
            for _ in 0..count {
                f.node_class.push(name.to_owned());
            }
            f.est_cpu_ns += cpu;
            f.est_io_pages += io;
        }
        f
    }

    fn run(cpu: f64, reads: f64, runtime: f64, per_class: &[(&str, f64, f64)]) -> ObservedRun {
        ObservedRun {
            runtime_ns: runtime,
            cpu_ns: cpu,
            logical_reads: reads,
            per_class_cpu: per_class
                .iter()
                .map(|&(c, v, _)| (c.to_owned(), v))
                .collect(),
            per_class_reads: per_class
                .iter()
                .map(|&(c, _, v)| (c.to_owned(), v))
                .collect(),
        }
    }

    /// A thread that panicked holding the store (a caller's bug between
    /// admission and `/history/predict`) must not turn every later
    /// prediction into a panic.
    #[test]
    fn a_poisoned_store_still_answers() {
        let store = HistoryStore::new();
        let f = features(&[("Table Scan", 1, 100.0, 10.0, 1000.0)]);
        store.observe(
            7,
            &f,
            run(100.0, 10.0, 200.0, &[("Table Scan", 100.0, 10.0)]),
        );
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = store.inner.lock().unwrap();
                panic!("poison the history store");
            })
            .join()
        });
        assert!(panicked.is_err() && store.inner.is_poisoned());

        store.observe(
            7,
            &f,
            run(300.0, 30.0, 600.0, &[("Table Scan", 300.0, 30.0)]),
        );
        assert_eq!((store.len(), store.total_runs()), (1, 2));
        assert_eq!(store.predict_fingerprint(7).map(|p| p.cpu_ns), Some(200.0));
        assert!(store.predict(8, &f).is_some());
    }

    #[test]
    fn cold_store_returns_none() {
        let store = HistoryStore::new();
        let f = features(&[("Table Scan", 1, 100.0, 10.0, 1000.0)]);
        assert!(store.predict(42, &f).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn exact_match_predicts_medians() {
        let store = HistoryStore::new();
        let f = features(&[("Table Scan", 1, 100.0, 10.0, 1000.0)]);
        for cpu in [100.0, 300.0, 200.0] {
            store.observe(
                7,
                &f,
                run(
                    cpu,
                    cpu / 10.0,
                    cpu * 2.0,
                    &[("Table Scan", cpu, cpu / 10.0)],
                ),
            );
        }
        let p = store.predict(7, &f).expect("exact history");
        assert_eq!(p.basis, PredictionBasis::Exact);
        assert_eq!(p.runs, 3);
        assert_eq!(p.cpu_ns, 200.0);
        assert_eq!(p.logical_reads, 20.0);
        assert_eq!(p.runtime_ns, 400.0);
    }

    #[test]
    fn near_miss_scales_by_class_estimates() {
        let store = HistoryStore::new();
        // Neighbor: one scan class estimated at 100 CPU, observed 150.
        let nb = features(&[("Table Scan", 1, 100.0, 10.0, 1000.0)]);
        store.observe(
            7,
            &nb,
            run(150.0, 12.0, 300.0, &[("Table Scan", 150.0, 12.0)]),
        );
        // Incoming: same shape, 10x the estimates — expect ~10x observed.
        let inc = features(&[("Table Scan", 1, 1000.0, 100.0, 10000.0)]);
        let p = store.predict(99, &inc).expect("similar history");
        match p.basis {
            PredictionBasis::Similar {
                fingerprint,
                distance,
            } => {
                assert_eq!(fingerprint, 7);
                assert!(distance > 0.0);
            }
            other => panic!("expected similar basis, got {other:?}"),
        }
        assert!((p.cpu_ns - 1500.0).abs() < 1e-9, "cpu {}", p.cpu_ns);
        assert!((p.logical_reads - 120.0).abs() < 1e-9);
        assert!((p.runtime_ns - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn incoming_only_classes_use_raw_estimates() {
        let store = HistoryStore::new();
        let nb = features(&[("Table Scan", 1, 100.0, 10.0, 1000.0)]);
        store.observe(
            7,
            &nb,
            run(100.0, 10.0, 200.0, &[("Table Scan", 100.0, 10.0)]),
        );
        let inc = features(&[
            ("Table Scan", 1, 100.0, 10.0, 1000.0),
            ("Hash Match", 1, 500.0, 0.0, 1000.0),
        ]);
        let p = store.predict(99, &inc).expect("similar history");
        // Scan observed 100 (scale 1.0) + raw 500 estimate for the join.
        assert!((p.cpu_ns - 600.0).abs() < 1e-9, "cpu {}", p.cpu_ns);
    }
}
