//! [`PlanFaultInjector`]: materializes a [`FaultPlan`]'s engine faults as
//! an [`lqs_exec::FaultInjector`].
//!
//! One injector serves one session: trigger fire-counts are per-injector
//! state (atomics — the executing thread is single, but the trait is
//! consulted through a shared reference). All decisions key off the
//! deterministic arguments the engine passes (node id, cumulative
//! counters), so two runs of the same (plan, query) see identical faults.

use crate::plan::{FaultPlan, OpFaultKind, OperatorTrigger, StorageFaults};
use lqs_exec::{FaultInjector, GetNextFault, IoVerdict};
use lqs_plan::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic engine-fault oracle built from a [`FaultPlan`].
pub struct PlanFaultInjector {
    storage: StorageFaults,
    /// Next cumulative-pages threshold at which a slow read fires.
    slow_next: AtomicU64,
    /// Remaining I/O-error fires.
    error_left: AtomicU32,
    /// Operator triggers with their remaining fire-counts.
    triggers: Vec<(OperatorTrigger, AtomicU32)>,
}

/// Decrement `left` if positive; whether a fire was taken.
fn take_one(left: &AtomicU32) -> bool {
    left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
        .is_ok()
}

impl PlanFaultInjector {
    /// Build the injector for `plan` (fresh fire-counts).
    pub fn new(plan: &FaultPlan) -> Self {
        PlanFaultInjector {
            slow_next: AtomicU64::new(plan.storage.slow_every_pages.unwrap_or(u64::MAX)),
            error_left: AtomicU32::new(if plan.storage.error_at_pages.is_some() {
                plan.storage.error_times.max(1)
            } else {
                0
            }),
            storage: plan.storage.clone(),
            triggers: plan
                .operators
                .iter()
                .map(|t| (t.clone(), AtomicU32::new(t.times.max(1))))
                .collect(),
        }
    }

    /// Whether this injector can ever fire anything.
    pub fn is_noop(&self) -> bool {
        self.storage.is_noop() && self.triggers.is_empty()
    }
}

impl FaultInjector for PlanFaultInjector {
    fn on_io(&self, node: NodeId, total_pages: u64, _now_ns: u64) -> IoVerdict {
        if let Some(at) = self.storage.error_at_pages {
            if total_pages >= at && take_one(&self.error_left) {
                return IoVerdict::Error {
                    message: format!(
                        "injected I/O error at node {} after {} pages",
                        node.0, total_pages
                    ),
                    transient: self.storage.error_transient,
                };
            }
        }
        if let Some(every) = self.storage.slow_every_pages {
            let next = self.slow_next.load(Ordering::Relaxed);
            if total_pages >= next {
                self.slow_next
                    .store(total_pages.saturating_add(every), Ordering::Relaxed);
                return IoVerdict::Slow {
                    extra_ns: self.storage.slow_extra_ns,
                };
            }
        }
        IoVerdict::Ok
    }

    fn on_get_next(&self, node: NodeId, k: u64, _now_ns: u64) -> Option<GetNextFault> {
        for (t, left) in &self.triggers {
            let node_ok = t.node.is_none_or(|n| n == node);
            if node_ok && k == t.at_row && take_one(left) {
                return Some(match &t.kind {
                    OpFaultKind::Stall { ns } => GetNextFault::Stall { ns: *ns },
                    OpFaultKind::Panic { transient } => GetNextFault::Panic {
                        message: format!("injected operator panic at node {} row {}", node.0, k),
                        transient: *transient,
                    },
                });
            }
        }
        None
    }
}

/// Parks the executing worker inside an I/O charge once `after_pages`
/// cumulative logical reads have passed, until [`PageGate::open`] — the
/// stall shape a watchdog must classify and remediate.
pub struct PageGate {
    after_pages: u64,
    release: AtomicBool,
}

impl PageGate {
    /// A closed gate that lets `after_pages` logical reads through first.
    pub fn new(after_pages: u64) -> Arc<Self> {
        Arc::new(PageGate {
            after_pages,
            release: AtomicBool::new(false),
        })
    }

    /// Release the parked worker; the gate stays open afterwards.
    pub fn open(&self) {
        self.release.store(true, Ordering::Release);
    }
}

impl FaultInjector for PageGate {
    fn on_io(&self, _node: NodeId, total_pages: u64, _now_ns: u64) -> IoVerdict {
        if total_pages > self.after_pages {
            while !self.release.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        IoVerdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_fires_once_at_threshold() {
        let inj = PlanFaultInjector::new(&FaultPlan::named("t").io_error_at(10, true));
        assert_eq!(inj.on_io(NodeId(0), 5, 0), IoVerdict::Ok);
        match inj.on_io(NodeId(0), 12, 0) {
            IoVerdict::Error { transient, .. } => assert!(transient),
            other => panic!("expected error, got {other:?}"),
        }
        // Budget of one: a retry of the run sails past the threshold.
        assert_eq!(inj.on_io(NodeId(0), 12, 0), IoVerdict::Ok);
    }

    #[test]
    fn slow_pages_fire_periodically() {
        let inj = PlanFaultInjector::new(&FaultPlan::named("t").slow_pages(10, 99));
        assert_eq!(inj.on_io(NodeId(0), 4, 0), IoVerdict::Ok);
        assert_eq!(
            inj.on_io(NodeId(0), 11, 0),
            IoVerdict::Slow { extra_ns: 99 }
        );
        // Threshold advanced to 21; the next charge below it is clean.
        assert_eq!(inj.on_io(NodeId(0), 15, 0), IoVerdict::Ok);
        assert_eq!(
            inj.on_io(NodeId(0), 22, 0),
            IoVerdict::Slow { extra_ns: 99 }
        );
    }

    #[test]
    fn get_next_triggers_match_row_and_node() {
        let inj = PlanFaultInjector::new(&FaultPlan::named("t").trigger(OperatorTrigger {
            node: Some(NodeId(2)),
            at_row: 5,
            kind: OpFaultKind::Stall { ns: 7 },
            times: 1,
        }));
        assert!(inj.on_get_next(NodeId(1), 5, 0).is_none()); // wrong node
        assert!(inj.on_get_next(NodeId(2), 4, 0).is_none()); // wrong row
        assert_eq!(
            inj.on_get_next(NodeId(2), 5, 0),
            Some(GetNextFault::Stall { ns: 7 })
        );
        assert!(inj.on_get_next(NodeId(2), 5, 0).is_none()); // spent
    }

    #[test]
    fn untargeted_panic_fires_on_first_node_reaching_row() {
        let inj = PlanFaultInjector::new(&FaultPlan::named("t").panic_at(3, false));
        assert!(inj.on_get_next(NodeId(9), 2, 0).is_none());
        match inj.on_get_next(NodeId(9), 3, 0) {
            Some(GetNextFault::Panic { transient, .. }) => assert!(!transient),
            other => panic!("expected panic, got {other:?}"),
        }
    }
}
