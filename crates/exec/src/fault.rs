//! Fault-injection seams — the hooks a chaos layer (e.g. `lqs-chaos`)
//! plugs into to perturb an execution *deterministically*.
//!
//! Two seams exist, matching where production failures actually bite a
//! client-side progress estimator:
//!
//! * **Engine faults** ([`FaultInjector`]): consulted on the virtual clock
//!   at every I/O charge and every successful `GetNext`. An injector can
//!   slow a page read, fail it outright, stall an operator, or panic it —
//!   all keyed off deterministic inputs (node id, cumulative counters,
//!   virtual time), never wall-clock state.
//! * **Telemetry-channel faults** ([`SnapshotFilter`]): interposed between
//!   the executing worker and whatever [`crate::SnapshotPublisher`] a
//!   monitoring surface reads from. The filter can drop, delay, duplicate,
//!   reorder, or corrupt (counter-reset) snapshots in flight, modelling a
//!   lossy DMV polling channel; the execution's own recorded trace is
//!   never affected.
//!
//! Injected hard failures unwind with a [`QueryFault`] payload (the
//! structured sibling of [`crate::QueryAborted`]). The service layer
//! catches it per session, marks the session failed, and — when
//! [`QueryFault::transient`] is set — may retry within a budget.

use lqs_plan::{DmvSnapshot, NodeId};

/// Verdict of a [`FaultInjector`] on one I/O charge.
#[derive(Debug, Clone, PartialEq)]
pub enum IoVerdict {
    /// Proceed normally.
    Ok,
    /// Proceed, but the pages take `extra_ns` additional virtual time
    /// (a slow / contended device).
    Slow {
        /// Additional virtual nanoseconds the read costs.
        extra_ns: u64,
    },
    /// The read fails: the run unwinds with a [`QueryFault`].
    Error {
        /// Human-readable failure description.
        message: String,
        /// Whether a retry of the whole query could plausibly succeed.
        transient: bool,
    },
}

/// Verdict of a [`FaultInjector`] on one successful `GetNext`.
#[derive(Debug, Clone, PartialEq)]
pub enum GetNextFault {
    /// The operator stalls: virtual time passes with no progress.
    Stall {
        /// Virtual nanoseconds the stall lasts.
        ns: u64,
    },
    /// The operator fails: the run unwinds with a [`QueryFault`].
    Panic {
        /// Human-readable failure description.
        message: String,
        /// Whether a retry of the whole query could plausibly succeed.
        transient: bool,
    },
}

/// Deterministic engine-fault oracle, consulted on the executing thread.
///
/// Implementations must be `Sync` (the context holds a shared reference)
/// and should derive every decision from the arguments plus seeded state —
/// never from wall-clock time — so a run with a given fault plan is
/// byte-for-byte reproducible.
pub trait FaultInjector: Sync {
    /// Called before charging `pages` logical reads to `node`.
    /// `total_pages` is the node's cumulative logical-read counter
    /// *including* this charge; `now_ns` is the virtual clock before it.
    fn on_io(&self, node: NodeId, total_pages: u64, now_ns: u64) -> IoVerdict {
        let _ = (node, total_pages, now_ns);
        IoVerdict::Ok
    }

    /// Called after `node` produces its `k`-th output row (1-based).
    fn on_get_next(&self, node: NodeId, k: u64, now_ns: u64) -> Option<GetNextFault> {
        let _ = (node, k, now_ns);
        None
    }
}

/// Panic payload for an injected (or engine-detected) hard fault.
///
/// Like [`crate::QueryAborted`], this is structured control flow: the quiet
/// panic hook suppresses its default report while a catch frame is active,
/// and the service layer downcasts it to classify the failure. `transient`
/// distinguishes faults worth retrying (I/O hiccups, shed load) from
/// deterministic bugs (an operator panic that would recur).
#[derive(Debug, Clone)]
pub struct QueryFault {
    /// The plan node at which the fault fired.
    pub node: NodeId,
    /// Human-readable failure description.
    pub(crate) message: String,
    /// Whether a retry of the whole query could plausibly succeed.
    pub transient: bool,
    /// Virtual time at which the fault fired.
    pub at_ns: u64,
}

impl std::fmt::Display for QueryFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fault at node {} ({} at {} ns): {}",
            self.node.0,
            if self.transient {
                "transient"
            } else {
                "permanent"
            },
            self.at_ns,
            self.message
        )
    }
}

/// Transforms the stream of published snapshots — the telemetry-channel
/// seam between the executing worker and a [`crate::SnapshotPublisher`].
///
/// For every snapshot the engine records, [`SnapshotFilter::filter`]
/// returns the snapshots actually delivered downstream (possibly none, one,
/// or several): an empty vec drops the snapshot, returning it later models
/// delay/reorder, returning it twice duplicates it, and returning a mutated
/// clone models counter corruption. Implementations carry their own state
/// (buffers, seeded RNGs) behind interior mutability and must be
/// `Send + Sync`; one filter instance serves one session.
pub trait SnapshotFilter: Send + Sync {
    /// Map one recorded snapshot to the snapshots delivered downstream.
    fn filter(&self, snapshot: &DmvSnapshot) -> Vec<DmvSnapshot>;

    /// Drain anything still buffered (delayed snapshots) at end of run.
    /// Called once after the last mid-run publish; defaults to nothing.
    fn flush(&self) -> Vec<DmvSnapshot> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The identity filter: every snapshot is delivered exactly once.
    struct IdentityFilter;

    impl SnapshotFilter for IdentityFilter {
        fn filter(&self, snapshot: &DmvSnapshot) -> Vec<DmvSnapshot> {
            vec![snapshot.clone()]
        }
    }

    #[test]
    fn query_fault_display_names_classification() {
        let f = QueryFault {
            node: NodeId(3),
            message: "simulated I/O error".into(),
            transient: true,
            at_ns: 1234,
        };
        let s = f.to_string();
        assert!(s.contains("node 3"));
        assert!(s.contains("transient"));
        assert!(s.contains("simulated I/O error"));
    }

    #[test]
    fn identity_filter_passes_through() {
        let s = DmvSnapshot {
            ts_ns: 7,
            nodes: Vec::new(),
        };
        assert_eq!(IdentityFilter.filter(&s), vec![s.clone()]);
        assert!(IdentityFilter.flush().is_empty());
    }
}
