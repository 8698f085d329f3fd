//! The [`FaultPlan`] DSL: a declarative, seeded description of every fault
//! a chaos run injects.
//!
//! A plan is pure data — building one does nothing. Materialize it per
//! session with [`FaultPlan::injector`] (engine faults),
//! [`FaultPlan::filter`] (telemetry-channel faults), and once per poller
//! with [`FaultPlan::poll_fault`] (client-side poll faults). Every decision
//! downstream derives from the plan's thresholds and its seed, never from
//! wall-clock state, so a run under a given plan is reproducible
//! byte-for-byte.

use crate::channel::ChannelFaultFilter;
use crate::inject::PlanFaultInjector;
use crate::poll::SeededPollFault;
use lqs_plan::NodeId;
use std::sync::Arc;

/// Storage-layer faults, keyed off a node's cumulative logical-read
/// counter (the deterministic I/O axis of the virtual clock).
#[derive(Debug, Clone, Default)]
pub struct StorageFaults {
    /// Inject a slow read roughly every this many pages (a contended or
    /// degraded device). `None` disables.
    pub slow_every_pages: Option<u64>,
    /// Extra virtual nanoseconds each slow read costs.
    pub slow_extra_ns: u64,
    /// Fail a read once a node's cumulative logical reads reach this.
    /// `None` disables.
    pub error_at_pages: Option<u64>,
    /// Whether the injected I/O error is transient (retry may succeed).
    pub error_transient: bool,
    /// How many times the error fires (across retries of the same
    /// session) before going quiet. A transient error with `times == 1`
    /// and a retry budget ≥ 1 models a hiccup the retry absorbs.
    pub error_times: u32,
}

impl StorageFaults {
    /// Whether this spec injects nothing.
    pub fn is_noop(&self) -> bool {
        self.slow_every_pages.is_none() && self.error_at_pages.is_none()
    }
}

/// What an [`OperatorTrigger`] does when it fires.
#[derive(Debug, Clone)]
pub enum OpFaultKind {
    /// The operator stalls: virtual time passes, no progress.
    Stall {
        /// Virtual nanoseconds the stall lasts.
        ns: u64,
    },
    /// The operator panics, unwinding with an
    /// [`lqs_exec::QueryFault`].
    Panic {
        /// Whether a retry of the whole query could succeed.
        transient: bool,
    },
}

/// One operator-level fault, firing when a node produces its `at_row`-th
/// output row.
#[derive(Debug, Clone)]
pub struct OperatorTrigger {
    /// Restrict the trigger to one plan node (`None` = the first node to
    /// reach the row count).
    pub node: Option<NodeId>,
    /// The 1-based GetNext count at which the trigger fires.
    pub at_row: u64,
    /// What happens.
    pub kind: OpFaultKind,
    /// How many times it fires (across retries) before going quiet.
    pub times: u32,
}

/// Telemetry-channel fault probabilities, applied per published snapshot
/// by a seeded [`ChannelFaultFilter`] / [`crate::ChannelMangler`].
#[derive(Debug, Clone, Default)]
pub struct ChannelFaults {
    /// Probability a snapshot is dropped outright.
    pub drop_p: f64,
    /// Probability a snapshot is held back (delivered late, after newer
    /// snapshots — the out-of-order anomaly).
    pub delay_p: f64,
    /// Maximum snapshots held back at once; overflow is released (late).
    pub delay_max_held: usize,
    /// Probability a delivered snapshot is delivered twice.
    pub duplicate_p: f64,
    /// Probability a held (delayed) snapshot is released immediately
    /// *after* the current one — an explicit reorder.
    pub reorder_p: f64,
    /// Probability one node's counters in a snapshot are zeroed — the
    /// counter-reset anomaly a mid-query engine restart produces.
    pub reset_p: f64,
}

impl ChannelFaults {
    /// Whether this spec mangles nothing.
    pub fn is_noop(&self) -> bool {
        self.drop_p == 0.0
            && self.delay_p == 0.0
            && self.duplicate_p == 0.0
            && self.reorder_p == 0.0
            && self.reset_p == 0.0
    }
}

/// Client-side poll-path faults.
#[derive(Debug, Clone, Default)]
pub struct PollFaults {
    /// Probability any one `(session, round)` poll fails transiently.
    pub fail_p: f64,
}

/// A complete, named, seeded fault scenario.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Scenario label (summary tables, metrics).
    pub name: String,
    /// Master seed; all random channel/poll decisions derive from it.
    pub seed: u64,
    /// Storage-layer faults.
    pub storage: StorageFaults,
    /// Operator-level faults.
    pub operators: Vec<OperatorTrigger>,
    /// Telemetry-channel faults.
    pub channel: ChannelFaults,
    /// Poll-path faults.
    pub poll: PollFaults,
    /// Retry budget sessions run under this plan should be granted.
    pub retry_budget: u32,
}

impl FaultPlan {
    /// An empty plan (injects nothing) named `name`.
    pub fn named(name: impl Into<String>) -> Self {
        FaultPlan {
            name: name.into(),
            seed: 0,
            storage: StorageFaults::default(),
            operators: Vec::new(),
            channel: ChannelFaults::default(),
            poll: PollFaults::default(),
            retry_budget: 0,
        }
    }

    /// The fault-free control scenario.
    pub fn baseline() -> Self {
        Self::named("baseline")
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Slow roughly every `every_pages`-th page read by `extra_ns`.
    pub fn slow_pages(mut self, every_pages: u64, extra_ns: u64) -> Self {
        self.storage.slow_every_pages = Some(every_pages.max(1));
        self.storage.slow_extra_ns = extra_ns;
        self
    }

    /// Fail one read once a node's cumulative logical reads reach
    /// `pages`; `transient` selects whether a retry can succeed.
    pub fn io_error_at(mut self, pages: u64, transient: bool) -> Self {
        self.storage.error_at_pages = Some(pages);
        self.storage.error_transient = transient;
        if self.storage.error_times == 0 {
            self.storage.error_times = 1;
        }
        self
    }

    /// Stall the first operator to produce its `at_row`-th row for `ns`
    /// virtual nanoseconds.
    pub fn stall_at(mut self, at_row: u64, ns: u64) -> Self {
        self.operators.push(OperatorTrigger {
            node: None,
            at_row,
            kind: OpFaultKind::Stall { ns },
            times: 1,
        });
        self
    }

    /// Panic the first operator to produce its `at_row`-th row.
    pub fn panic_at(mut self, at_row: u64, transient: bool) -> Self {
        self.operators.push(OperatorTrigger {
            node: None,
            at_row,
            kind: OpFaultKind::Panic { transient },
            times: 1,
        });
        self
    }

    /// Add a fully specified operator trigger.
    pub fn trigger(mut self, trigger: OperatorTrigger) -> Self {
        self.operators.push(trigger);
        self
    }

    /// Drop each published snapshot with probability `p`.
    pub fn drop_snapshots(mut self, p: f64) -> Self {
        self.channel.drop_p = p;
        self
    }

    /// Hold back each published snapshot with probability `p`, at most
    /// `max_held` at a time (overflow is released late — out of order).
    pub fn delay_snapshots(mut self, p: f64, max_held: usize) -> Self {
        self.channel.delay_p = p;
        self.channel.delay_max_held = max_held.max(1);
        self
    }

    /// Duplicate each delivered snapshot with probability `p`.
    pub fn duplicate_snapshots(mut self, p: f64) -> Self {
        self.channel.duplicate_p = p;
        self
    }

    /// With probability `p`, release a held snapshot right after the
    /// current one (explicit reorder). Pair with
    /// [`FaultPlan::delay_snapshots`] so snapshots actually get held.
    pub fn reorder_snapshots(mut self, p: f64) -> Self {
        self.channel.reorder_p = p;
        if self.channel.delay_max_held == 0 {
            self.channel.delay_max_held = 1;
        }
        self
    }

    /// Zero one node's counters in each snapshot with probability `p`
    /// (the counter-reset anomaly).
    pub fn reset_snapshots(mut self, p: f64) -> Self {
        self.channel.reset_p = p;
        self
    }

    /// Fail each `(session, round)` poll with probability `p`.
    pub fn flaky_polls(mut self, p: f64) -> Self {
        self.poll.fail_p = p;
        self
    }

    /// Grant sessions run under this plan `budget` transient-fault
    /// retries.
    pub fn with_retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Materialize one engine-fault injector — fresh trigger counters, so
    /// use one per session. `None` when the plan injects no engine faults.
    pub fn injector(&self) -> Option<Arc<PlanFaultInjector>> {
        if self.storage.is_noop() && self.operators.is_empty() {
            return None;
        }
        Some(Arc::new(PlanFaultInjector::new(self)))
    }

    /// Materialize one telemetry-channel filter seeded with
    /// `self.seed ^ stream_seed` (pass something session-unique so
    /// concurrent sessions mangle independently). `None` when the channel
    /// spec is a no-op.
    pub fn filter(&self, stream_seed: u64) -> Option<Arc<ChannelFaultFilter>> {
        if self.channel.is_noop() {
            return None;
        }
        Some(Arc::new(ChannelFaultFilter::new(
            self.channel.clone(),
            self.seed ^ stream_seed,
        )))
    }

    /// Materialize the poll-path fault injector. `None` when disabled.
    pub fn poll_fault(&self) -> Option<Box<SeededPollFault>> {
        if self.poll.fail_p == 0.0 {
            return None;
        }
        Some(Box::new(SeededPollFault::new(self.seed, self.poll.fail_p)))
    }

    /// The standard soak matrix: one plan per fault class plus a
    /// kitchen-sink combination, all derived from `seed`.
    pub fn standard_matrix(seed: u64) -> Vec<FaultPlan> {
        vec![
            FaultPlan::baseline().with_seed(seed),
            FaultPlan::named("slow-io")
                .with_seed(seed)
                .slow_pages(8, 40_000),
            FaultPlan::named("io-error-transient")
                .with_seed(seed)
                .io_error_at(16, true)
                .with_retry_budget(2),
            FaultPlan::named("io-error-permanent")
                .with_seed(seed)
                .io_error_at(16, false),
            FaultPlan::named("operator-stall")
                .with_seed(seed)
                .stall_at(64, 2_000_000),
            FaultPlan::named("operator-panic")
                .with_seed(seed)
                .panic_at(64, false),
            FaultPlan::named("lossy-channel")
                .with_seed(seed)
                .drop_snapshots(0.2)
                .delay_snapshots(0.25, 3)
                .duplicate_snapshots(0.15)
                .reorder_snapshots(0.5)
                .reset_snapshots(0.1),
            FaultPlan::named("flaky-poller")
                .with_seed(seed)
                .flaky_polls(0.3),
            FaultPlan::named("kitchen-sink")
                .with_seed(seed)
                .slow_pages(16, 20_000)
                .io_error_at(64, true)
                .with_retry_budget(2)
                .stall_at(32, 500_000)
                .drop_snapshots(0.15)
                .delay_snapshots(0.2, 3)
                .duplicate_snapshots(0.1)
                .reorder_snapshots(0.4)
                .reset_snapshots(0.1)
                .flaky_polls(0.2),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_materializes_nothing() {
        let p = FaultPlan::baseline();
        assert!(p.injector().is_none());
        assert!(p.filter(1).is_none());
        assert!(p.poll_fault().is_none());
    }

    #[test]
    fn builders_set_the_right_knobs() {
        let p = FaultPlan::named("x")
            .with_seed(7)
            .slow_pages(4, 100)
            .io_error_at(32, true)
            .stall_at(10, 50)
            .panic_at(20, false)
            .drop_snapshots(0.5)
            .delay_snapshots(0.25, 2)
            .reorder_snapshots(0.1)
            .reset_snapshots(0.05)
            .flaky_polls(0.2)
            .with_retry_budget(3);
        assert_eq!(p.seed, 7);
        assert_eq!(p.storage.slow_every_pages, Some(4));
        assert_eq!(p.storage.error_at_pages, Some(32));
        assert!(p.storage.error_transient);
        assert_eq!(p.storage.error_times, 1);
        assert_eq!(p.operators.len(), 2);
        assert_eq!(p.channel.delay_max_held, 2);
        assert_eq!(p.retry_budget, 3);
        assert!(p.injector().is_some());
        assert!(p.filter(0).is_some());
        assert!(p.poll_fault().is_some());
    }

    #[test]
    fn standard_matrix_covers_every_fault_class() {
        let m = FaultPlan::standard_matrix(42);
        let names: Vec<&str> = m.iter().map(|p| p.name.as_str()).collect();
        for expect in [
            "baseline",
            "slow-io",
            "io-error-transient",
            "io-error-permanent",
            "operator-stall",
            "operator-panic",
            "lossy-channel",
            "flaky-poller",
            "kitchen-sink",
        ] {
            assert!(names.contains(&expect), "missing plan {expect}");
        }
        // Channel plans cover drop, delay, duplicate, reorder, reset.
        let lossy = m.iter().find(|p| p.name == "lossy-channel").unwrap();
        assert!(lossy.channel.drop_p > 0.0);
        assert!(lossy.channel.delay_p > 0.0);
        assert!(lossy.channel.duplicate_p > 0.0);
        assert!(lossy.channel.reorder_p > 0.0);
        assert!(lossy.channel.reset_p > 0.0);
    }
}
