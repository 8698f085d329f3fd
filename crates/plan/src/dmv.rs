//! The DMV contract between the engine and its clients — the simulator's
//! analog of `sys.dm_exec_query_profiles`.
//!
//! Every operator updates its [`NodeCounters`] as it executes, and the
//! executor records a [`DmvSnapshot`] of all counters at a fixed virtual-time
//! interval, mirroring the SSMS client polling the DMV every 500 ms (§2.2).
//! A finished run is a [`QueryRun`]: the snapshot trace plus its ground
//! truth. The progress estimator consumes *only* these rows plus the
//! showplan — it never peeks at operator internals — and this module lives
//! beside the showplan so that the client crates build without the engine,
//! preserving the paper's client/server split.

use crate::CostModel;

/// Runtime counters for one plan node.
///
/// Fields mirror the real DMV columns (`row_count`, `estimate_row_count`,
/// `logical_read_count`, `segment_read_count`, `elapsed_time_ms`,
/// `cpu_time_ms`, `open_time`, `first_row_time`, `close_time`, `rewind_count`)
/// plus the buffering counters the paper lists as wished-for future
/// extensions in §7 (`rows_buffered`, `rows_processed`); estimator configs
/// control whether those extras may be used.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Rows output so far — the `kᵢ` of the GetNext model (Equation 1).
    pub rows_output: u64,
    /// Rows consumed from all children so far.
    pub rows_input: u64,
    /// Logical page reads issued so far.
    pub logical_reads: u64,
    /// Columnstore segments fully processed so far (§4.7).
    pub segments_processed: u64,
    /// Virtual CPU nanoseconds charged to this operator.
    pub cpu_ns: u64,
    /// Virtual time at `Open()`, if the operator has opened.
    pub open_ns: Option<u64>,
    /// Virtual time when the first row was returned.
    pub first_row_ns: Option<u64>,
    /// Virtual time at `Close()`, if the operator has closed.
    pub close_ns: Option<u64>,
    /// Rows currently sitting in an internal buffer (semi-blocking
    /// operators; a §7 future-work counter).
    pub rows_buffered: u64,
    /// Outer rows fully processed by a buffering nested-loops join (a §7
    /// future-work counter).
    pub rows_processed: u64,
    /// Number of executions (1 + rewinds/rebinds).
    pub executions: u64,
}

impl NodeCounters {
    /// Whether the operator has started executing.
    pub fn is_open(&self) -> bool {
        self.open_ns.is_some()
    }

    /// Whether the operator has finished executing.
    pub fn is_closed(&self) -> bool {
        self.close_ns.is_some()
    }
}

/// A point-in-time copy of every node's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmvSnapshot {
    /// Virtual timestamp of the snapshot, in nanoseconds.
    pub ts_ns: u64,
    /// Counters per node, indexed by `NodeId.0`.
    pub nodes: Vec<NodeCounters>,
}

impl DmvSnapshot {
    /// Counters of node `i`.
    pub fn node(&self, i: usize) -> &NodeCounters {
        &self.nodes[i]
    }

    /// The `kᵢ` (rows output) of node `i`.
    pub fn k(&self, i: usize) -> f64 {
        self.nodes[i].rows_output as f64
    }
}

/// The result of executing one query: the full DMV trace plus ground truth.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// DMV snapshots in time order.
    pub snapshots: Vec<DmvSnapshot>,
    /// Final counters — the ground truth (`Nᵢ` = `final_counters[i].rows_output`).
    pub final_counters: Vec<NodeCounters>,
    /// Total virtual execution time.
    pub duration_ns: u64,
    /// Rows returned by the root operator.
    pub rows_returned: u64,
    /// Cost model the run was charged under. Estimators replaying this run
    /// must use the same model, or their optimizer-estimate baselines
    /// (operator weights, time-to-completion) silently diverge from the
    /// observed counters.
    pub cost_model: CostModel,
    /// Per-node attributed self-time (virtual ns), indexed by `NodeId`:
    /// every clock advance — CPU, I/O, injected stall — credited to the
    /// node that charged it, summing exactly to `duration_ns`. Empty for
    /// runs reconstructed from journals (the journal format carries
    /// counters, not attribution).
    pub node_elapsed_ns: Vec<u64>,
}

impl QueryRun {
    /// The true total row count (`Nᵢ`) of node `i`.
    pub fn true_n(&self, i: usize) -> f64 {
        self.final_counters[i].rows_output as f64
    }

    /// True progress of the whole query in the unweighted GetNext model at
    /// snapshot `s`: `Σkᵢ(t) / ΣNᵢ`.
    pub fn true_query_progress(&self, s: &DmvSnapshot) -> f64 {
        let num: u64 = s.nodes.iter().map(|c| c.rows_output).sum();
        let den: u64 = self.final_counters.iter().map(|c| c.rows_output).sum();
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    }

    /// True time-fraction elapsed at snapshot `s`.
    pub fn time_fraction(&self, s: &DmvSnapshot) -> f64 {
        if self.duration_ns == 0 {
            1.0
        } else {
            s.ts_ns as f64 / self.duration_ns as f64
        }
    }
}
