//! Reads figures back out of a `GET /metrics` body, so the benchmark's
//! counts and production histograms come from the same exposition an
//! operator scrapes, not from handles into the registry.

/// Value of the series written exactly as `series` (family name plus its
/// rendered label set, e.g. `lqs_http_shed_total` or
/// `x_sum{estimator="ensemble",workload="w"}`). `None` when absent —
/// lazily registered counters do not exist until their first event.
pub fn value(body: &str, series: &str) -> Option<f64> {
    body.lines().find_map(|line| {
        line.strip_prefix(series)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

/// [`value`] of a counter that may not have fired yet.
pub fn counter(body: &str, series: &str) -> u64 {
    value(body, series).unwrap_or(0.0) as u64
}

/// Sum of every series of `family` whose label set contains `label`
/// (written as rendered, e.g. `outcome="succeeded"`).
pub fn sum_where(body: &str, family: &str, label: &str) -> f64 {
    body.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(family)?.strip_prefix('{')?;
            let (labels, value) = rest.split_once("} ")?;
            labels
                .split(',')
                .any(|l| l == label)
                .then(|| value.trim().parse::<f64>().ok())?
        })
        .sum()
}

/// The `q`-quantile of an unlabeled histogram family: the upper edge of
/// the first cumulative bucket reaching `q` of the count (the same answer
/// the program's own `Histogram::quantile` gives). `None` when empty.
pub fn histogram_quantile(body: &str, family: &str, q: f64) -> Option<f64> {
    let total = value(body, &format!("{family}_count"))?;
    if total == 0.0 {
        return None;
    }
    let rank = (q * total).ceil().max(1.0);
    let prefix = format!("{family}_bucket{{le=\"");
    body.lines().find_map(|line| {
        let (le, cum) = line.strip_prefix(&prefix)?.split_once("\"} ")?;
        (cum.trim().parse::<f64>().ok()? >= rank).then(|| le.parse().ok())?
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = "\
# HELP lqs_accuracy_sessions_total scored
# TYPE lqs_accuracy_sessions_total counter
lqs_accuracy_sessions_total 12
lqs_accuracy_sessions_total_shadow 99
lqs_sessions_finished_total{outcome=\"failed\"} 1
lqs_sessions_finished_total{outcome=\"succeeded\"} 11
lqs_estimator_error_count_sum{estimator=\"ensemble\",workload=\"w\"} 0.30000000000000004
lqs_estimator_error_count_sum{estimator=\"lqs\",workload=\"w\"} 0.5
lqs_wait_seconds_bucket{le=\"0.001\"} 2
lqs_wait_seconds_bucket{le=\"0.002\"} 5
lqs_wait_seconds_bucket{le=\"+Inf\"} 6
lqs_wait_seconds_sum 0.01
lqs_wait_seconds_count 6
";

    #[test]
    fn reads_exact_series_only() {
        assert_eq!(value(BODY, "lqs_accuracy_sessions_total"), Some(12.0));
        assert_eq!(counter(BODY, "lqs_http_shed_total"), 0);
        assert_eq!(
            value(
                BODY,
                "lqs_estimator_error_count_sum{estimator=\"ensemble\",workload=\"w\"}"
            ),
            Some(0.1 + 0.2)
        );
        assert_eq!(
            sum_where(BODY, "lqs_sessions_finished_total", "outcome=\"succeeded\""),
            11.0
        );
    }

    #[test]
    fn quantile_is_first_bucket_reaching_rank() {
        assert_eq!(
            histogram_quantile(BODY, "lqs_wait_seconds", 0.5),
            Some(0.002)
        );
        assert_eq!(
            histogram_quantile(BODY, "lqs_wait_seconds", 0.2),
            Some(0.001)
        );
        assert_eq!(
            histogram_quantile(BODY, "lqs_wait_seconds", 1.0),
            Some(f64::INFINITY)
        );
        assert_eq!(histogram_quantile(BODY, "lqs_absent", 0.5), None);
    }
}
