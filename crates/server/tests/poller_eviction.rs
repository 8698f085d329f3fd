//! Regression: a long-lived poller over a churning service must not grow
//! without bound — `evict_finished` has to drop the estimator, cached
//! report, backoff, and accuracy bookkeeping of every evicted session.

use lqs_metrics::MetricsRegistry;
use lqs_plan::PhysicalPlan;
use lqs_progress::{EstimateQuality, EstimatorConfig};
use lqs_server::{
    PollFaultInjector, PollerMetrics, QueryService, QuerySpec, RegistryPoller, ServiceMetrics,
    SessionId, SessionProgress,
};
use lqs_storage::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::{mixed_db, mixed_plans};

/// [`mixed_db`] and the scan → hash-aggregate plan over it.
fn fixture() -> (Arc<Database>, Arc<PhysicalPlan>) {
    let (db, t) = mixed_db();
    let agg = mixed_plans(&db, t).swap_remove(1);
    (Arc::new(db), agg)
}

#[test]
fn poller_caches_stay_bounded_under_session_churn() {
    let (db, plan) = fixture();

    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::with_metrics(
        Arc::clone(&db),
        2,
        ServiceMetrics::new(Arc::clone(&registry)),
    );
    // Metrics attached so the accuracy bookkeeping (one entry per scored
    // session) is part of what churn exercises.
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    )
    .with_metrics(PollerMetrics::new(Arc::clone(&registry)));

    const ROUNDS: usize = 25;
    const BATCH: usize = 4;
    for round in 0..ROUNDS {
        let handles: Vec<_> = (0..BATCH)
            .map(|i| {
                service.submit(
                    QuerySpec::new(format!("r{round}-q{i}"), Arc::clone(&plan))
                        .with_workload("churn"),
                )
            })
            .collect();
        for handle in &handles {
            handle.wait_terminal();
        }
        poller.poll();
        // The cache never exceeds the sessions currently registered: if
        // eviction leaked, round 2 would already show 2×BATCH estimators.
        assert!(
            poller.cached_estimators() <= BATCH,
            "round {round}: {} cached estimators for {BATCH} live sessions",
            poller.cached_estimators()
        );
        let evicted = service.registry().evict_terminal();
        assert_eq!(evicted.len(), BATCH);
        poller.evict_finished();
        assert_eq!(
            poller.cached_estimators(),
            0,
            "round {round}: cache not emptied"
        );
        assert_eq!(service.registry().len(), 0);
    }

    // Every round's sessions were scored exactly once despite the churn.
    assert_eq!(
        registry
            .counter("lqs_accuracy_sessions_total", "", &[])
            .get(),
        (ROUNDS * BATCH) as u64
    );
    assert_eq!(
        registry
            .histogram(
                "lqs_estimator_error_count",
                "",
                &[("estimator", "lqs"), ("workload", "churn")],
            )
            .count(),
        (ROUNDS * BATCH) as u64
    );
}

/// Regression for the stale-gauge satellite: per-session gauges must leave
/// the exposition with their session — before the fix they lingered at
/// their last value forever, so a dashboard kept "seeing" progress for
/// sessions evicted hours earlier.
#[test]
fn evicted_sessions_take_their_gauges_with_them() {
    let (db, plan) = fixture();

    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::with_metrics(
        Arc::clone(&db),
        2,
        ServiceMetrics::new(Arc::clone(&registry)),
    );
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    )
    .with_metrics(PollerMetrics::new(Arc::clone(&registry)));

    let handles: Vec<_> = (0..3)
        .map(|i| service.submit(QuerySpec::new(format!("g{i}"), Arc::clone(&plan))))
        .collect();
    for h in &handles {
        h.wait_terminal();
    }
    poller.poll();

    let text = registry.render();
    for h in &handles {
        let label = format!("session=\"{}\"", h.id());
        assert!(
            text.contains(&label),
            "per-session gauges missing for live session {}",
            h.id()
        );
    }
    assert!(!text.contains("NaN"), "exposition contains NaN:\n{text}");

    service.registry().evict_terminal();
    poller.evict_finished();

    let text = registry.render();
    for h in &handles {
        let label = format!("session=\"{}\"", h.id());
        assert!(
            !text.contains(&label),
            "stale gauge for evicted session {} still exposed",
            h.id()
        );
    }
    // The gauge *families* and quantile gauges survive eviction, NaN-free.
    assert!(text.contains("lqs_poll_latency_us"));
    assert!(!text.contains("NaN"), "exposition contains NaN:\n{text}");
}

/// Fails every poll while the shared switch is on.
struct FailWhileOn(Arc<AtomicBool>);

impl PollFaultInjector for FailWhileOn {
    fn poll_fails(&self, _session: SessionId, _round: u64) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One `evict_finished()` drops everything the poller holds for a session
/// together: estimator, cached report, backoff, and the scored flag.
#[test]
fn eviction_drops_the_whole_poll_record() {
    let (db, plan) = fixture();
    let registry = Arc::new(MetricsRegistry::new());
    let service = QueryService::new(Arc::clone(&db), 2);
    let failing = Arc::new(AtomicBool::new(false));
    let mut poller = RegistryPoller::new(
        Arc::clone(&db),
        Arc::clone(service.registry()),
        EstimatorConfig::full(),
    )
    .with_metrics(PollerMetrics::new(Arc::clone(&registry)))
    .with_poll_fault(Box::new(FailWhileOn(Arc::clone(&failing))));
    let scored = || {
        registry
            .counter("lqs_accuracy_sessions_total", "", &[])
            .get()
    };
    let quality = |p: &SessionProgress| p.report.as_ref().map(|r| r.quality);

    let a = service.submit(QuerySpec::new("a", Arc::clone(&plan)));
    let b = service.submit(QuerySpec::new("b", Arc::clone(&plan)));
    a.wait_terminal();
    b.wait_terminal();

    // Round 1 scores and estimates both; a failed round 2 puts both into
    // backoff until round 4, so round 3 serves the cached reports as Stale
    // without the injector being asked.
    poller.poll();
    assert_eq!((scored(), poller.cached_estimators()), (2, 2));
    failing.store(true, Ordering::Relaxed);
    poller.poll();
    failing.store(false, Ordering::Relaxed);
    for p in poller.poll() {
        assert_eq!(quality(&p), Some(EstimateQuality::Stale), "{}", p.name);
    }

    assert_eq!(service.registry().evict_terminal().len(), 2);
    poller.evict_finished();
    assert_eq!(poller.cached_estimators(), 0);

    // Still round 3. `a`: no backoff left, so this is a real poll with a
    // fresh estimate, and the dropped scored flag has it scored again.
    assert_eq!(
        quality(&poller.poll_session(&a)),
        Some(EstimateQuality::Fresh)
    );
    assert_eq!(scored(), 3);
    // `b`: a failing poll has no cached report left to fall back on.
    failing.store(true, Ordering::Relaxed);
    assert!(poller.poll_session(&b).report.is_none());
}
