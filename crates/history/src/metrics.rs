//! Online prediction-accuracy telemetry for the history layer.
//!
//! The same discipline `lqs-metrics` applies to progress estimates —
//! score every estimate against ground truth once the truth is known —
//! applied to resource predictions: when a predicted session completes,
//! its observed CPU/IO/runtime are compared with what [`crate::HistoryStore`]
//! predicted at admission time, and the **relative error**
//! `|observed − predicted| / max(observed, 1)` is folded into
//! `lqs_history_prediction_error{resource=...}` histograms. A `/metrics`
//! scrape then answers "how well does history predict the fleet?"
//! continuously.

use crate::store::PredictionBasis;
use lqs_metrics::MetricsRegistry;
use std::sync::Arc;

/// Records history-layer events into a shared [`MetricsRegistry`].
#[derive(Clone)]
pub struct HistoryMetrics {
    registry: Arc<MetricsRegistry>,
}

impl HistoryMetrics {
    /// Wrap a shared registry.
    pub fn new(registry: Arc<MetricsRegistry>) -> HistoryMetrics {
        HistoryMetrics { registry }
    }

    /// A prediction was issued, on the given basis.
    pub fn prediction_issued(&self, basis: PredictionBasis) {
        self.registry
            .counter(
                "lqs_history_predictions_total",
                "Resource predictions issued, by derivation basis.",
                &[("basis", basis.label())],
            )
            .inc();
    }

    /// A prediction was requested but the store had no comparable history.
    pub fn cold_miss(&self) {
        self.registry
            .counter(
                "lqs_history_cold_misses_total",
                "Prediction requests answered with explicit no-history.",
                &[],
            )
            .inc();
    }

    /// Admission control rejected a session because its predicted cost did
    /// not fit the pool.
    pub fn cost_rejection(&self) {
        self.registry
            .counter(
                "lqs_history_cost_rejections_total",
                "Sessions rejected by predicted-cost admission control.",
                &[],
            )
            .inc();
    }

    /// Score one resource prediction against its now-known observation.
    /// `resource` is one of `cpu_ns` / `logical_reads` / `runtime_ns`.
    pub(crate) fn observe_error(&self, resource: &str, predicted: f64, observed: f64) {
        let err = (observed - predicted).abs() / observed.max(1.0);
        self.registry
            .histogram(
                "lqs_history_prediction_error",
                "Relative error |observed-predicted|/observed of resource \
                 predictions, scored when the predicted session completes.",
                &[("resource", resource)],
            )
            .observe(err);
    }

    /// Score all three resources of a prediction at once.
    pub fn observe_prediction(
        &self,
        prediction: &crate::ResourcePrediction,
        observed_cpu_ns: f64,
        observed_reads: f64,
        observed_runtime_ns: f64,
    ) {
        self.observe_error("cpu_ns", prediction.cpu_ns, observed_cpu_ns);
        self.observe_error("logical_reads", prediction.logical_reads, observed_reads);
        self.observe_error("runtime_ns", prediction.runtime_ns, observed_runtime_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ResourcePrediction;

    #[test]
    fn errors_land_in_labeled_histograms() {
        let registry = Arc::new(MetricsRegistry::new());
        let m = HistoryMetrics::new(registry.clone());
        m.prediction_issued(PredictionBasis::Exact);
        m.cold_miss();
        m.observe_prediction(
            &ResourcePrediction {
                cpu_ns: 100.0,
                logical_reads: 10.0,
                runtime_ns: 200.0,
                runs: 1,
                basis: PredictionBasis::Exact,
            },
            110.0,
            10.0,
            180.0,
        );
        let text = registry.render();
        assert!(text.contains("lqs_history_predictions_total{basis=\"exact\"} 1"));
        assert!(text.contains("lqs_history_cold_misses_total 1"));
        assert!(text.contains("lqs_history_prediction_error_count{resource=\"cpu_ns\"} 1"));
        assert!(text.contains("lqs_history_prediction_error_count{resource=\"runtime_ns\"} 1"));
    }
}
