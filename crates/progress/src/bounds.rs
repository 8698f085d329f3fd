//! Worst-case cardinality bounding (§4.2 and Appendix A, Table 1).
//!
//! For every node, lower and upper bounds on the total number of GetNext
//! calls are maintained from the counters observed so far and the algebraic
//! properties of each operator. Whenever a cardinality estimate (optimizer
//! or refined) falls outside `[LB, UB]`, it is clamped to the nearest bound.
//!
//! The table below follows the paper's Appendix A, tightened where the
//! printed table is loose or ambiguous and made *sound* for mid-flight
//! evaluation (e.g. joins add one in-flight outer row whose matches may not
//! all have been emitted yet). Where a bound needs "rows this operator has
//! processed", it reads the operator's *own* counters (`rows_input`,
//! `rows_processed`) rather than the child's `rows_output`: consumption and
//! production coincide per-tuple, but any buffering — exchange queues,
//! nested-loops outer buffers, batched execution's scratch staging — lets
//! the child's counter race ahead of what the consumer has actually looked
//! at, which would shrink the "remaining input" term unsoundly. The
//! invariant — `LB ≤ N_true ≤ UB` at every snapshot — is enforced by
//! property tests in `tests/bounds_invariant.rs`.

use crate::statics::{BoundKind, PlanStatics};
use lqs_exec::DmvSnapshot;

/// Per-node `[LB, UB]` bounds at one snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Lower bound on the node's total output rows.
    pub lb: f64,
    /// Upper bound on the node's total output rows (may be `+inf`).
    pub ub: f64,
}

impl Bounds {
    /// No information: `[0, +inf)`.
    pub(crate) const UNBOUNDED: Bounds = Bounds {
        lb: 0.0,
        ub: f64::INFINITY,
    };

    /// Clamp `estimate` into `[lb, ub]`.
    pub(crate) fn clamp(&self, estimate: f64) -> f64 {
        estimate.max(self.lb).min(self.ub)
    }
}

/// Compute bounds for every node at snapshot `s` (children before parents).
pub fn compute_bounds(statics: &PlanStatics, s: &DmvSnapshot) -> Vec<Bounds> {
    let mut out = Vec::new();
    compute_bounds_into(statics, s, &mut out);
    out
}

/// [`compute_bounds`] into a reusable buffer.
pub(crate) fn compute_bounds_into(statics: &PlanStatics, s: &DmvSnapshot, out: &mut Vec<Bounds>) {
    out.clear();
    out.resize(statics.nodes.len(), Bounds::UNBOUNDED);
    for &id in &statics.post_order {
        out[id.0] = node_bounds(statics, s, id.0, out);
    }
}

fn node_bounds(statics: &PlanStatics, s: &DmvSnapshot, i: usize, computed: &[Bounds]) -> Bounds {
    let st = &statics.nodes[i];
    let c = s.node(i);
    let k = c.rows_output as f64;

    // A closed operator's cardinality is exact — except on the inner side
    // of a nested-loops join, where "closed" only means the current
    // execution exhausted and a rebind may still follow (unless the
    // enclosing join itself has finished).
    if c.is_closed() {
        // Walk the chain of enclosing NL joins: a rebind is possible while
        // any of them is still running.
        let mut rebind_possible = false;
        let mut nl = st.enclosing_nl;
        while let Some(j) = nl {
            if !s.node(j.0).is_closed() {
                rebind_possible = true;
                break;
            }
            nl = statics.nodes[j.0].enclosing_nl;
        }
        if !rebind_possible {
            return Bounds { lb: k, ub: k };
        }
    }

    let child = |j: usize| computed[st.children[j].0];
    let child_k = |j: usize| s.node(st.children[j].0).rows_output as f64;
    // Upper bound on how many times this node can be (re-)executed: once,
    // unless it sits on the inner side of a nested-loops join, where it runs
    // up to once per outer row (plus one in-flight row).
    let execs_ub = match st.enclosing_nl {
        Some(nl) => {
            let outer = statics.nodes[nl.0].children[0];
            computed[outer.0].ub.max(1.0) + 1.0
        }
        None => 1.0,
    };

    let (lb, ub) = match st.bound_kind {
        BoundKind::Constant => {
            let n = st.known_rows.unwrap_or(k);
            if st.may_stop_early {
                (k, n)
            } else {
                (n, n)
            }
        }
        BoundKind::Access => {
            let table = st.table_rows.unwrap_or(f64::INFINITY);
            if let (Some(n), None) = (st.known_rows, st.enclosing_nl) {
                // Unfiltered single-execution scan: exact a priori — unless
                // an ancestor may stop pulling early, in which case the
                // known size is only an upper bound.
                if st.may_stop_early {
                    (k, n)
                } else {
                    (n, n)
                }
            } else {
                (k, table * execs_ub)
            }
        }
        BoundKind::Stream => {
            let cb = child(0);
            if st.blocking {
                // Distinct Sort: like a grouped aggregate, distinct rows
                // already materialized in the sort buffer but not yet
                // emitted are invisible to k, so a "remaining input + k"
                // bound is unsound mid-flight. Total distinct rows never
                // exceed total input (per buffer replay).
                (k, (cb.ub * execs_ub).max(1.0))
            } else {
                // Filter-like: each remaining input row yields at most one
                // row; +1 covers the row consumed but not yet emitted
                // mid-GetNext. Consumption is measured by the node's *own*
                // rows_input counter, not the child's rows_output: batched
                // execution stages child rows in a scratch buffer, letting
                // the child's counter run a whole batch ahead of the rows
                // this node has actually filtered.
                (k, remaining(cb.ub, c.rows_input as f64) + k + 1.0)
            }
        }
        BoundKind::SortLike => {
            // Output = input, eventually: at least the rows already consumed
            // from the child, at most the child's UB times the number of
            // buffer replays a nested-loops rebind can trigger.
            let cb = child(0);
            let lb = if st.may_stop_early {
                k
            } else {
                child_k(0).max(k)
            };
            (lb, cb.ub * execs_ub)
        }
        BoundKind::Capped(n) => {
            let cb = child(0);
            let n = n as f64;
            let lb = if st.enclosing_nl.is_none() && !st.may_stop_early {
                child_k(0).min(n).max(k)
            } else {
                k
            };
            (lb, (cb.ub * execs_ub).min(n * execs_ub))
        }
        BoundKind::Aggregate { scalar } => {
            let cb = child(0);
            if scalar {
                // Emits exactly one row per execution, even on empty input.
                let lb = if c.is_open() && !st.may_stop_early {
                    1.0_f64.max(k)
                } else {
                    k
                };
                (lb, execs_ub.max(k))
            } else {
                // Total groups never exceed total input rows. (A tighter
                // "remaining input + k" bound is NOT sound mid-flight:
                // groups already materialized in the hash table but not yet
                // emitted are invisible to k.)
                (k.max(0.0), cb.ub.max(1.0))
            }
        }
        BoundKind::Join {
            outer,
            inner,
            semi,
            full,
            buffers_outer,
        } => {
            let ob = child(outer);
            // Outer rows the join has *finished*: buffering nested loops can
            // consume far ahead of processing, so they report via the
            // rows_processed counter. Other joins derive it from their own
            // input counter minus the rows consumed from the inner side —
            // the outer child's rows_output is not usable, since batched
            // execution stages outer rows in a scratch buffer the child has
            // already counted but the join has not yet probed.
            let ok = if buffers_outer {
                c.rows_processed as f64
            } else {
                (c.rows_input as f64 - child_k(inner)).max(0.0)
            };
            // Remaining outer rows, plus one in-flight row whose matches may
            // be partially emitted.
            let rem_outer = remaining(ob.ub, ok) + 1.0;
            let per_row = if semi {
                1.0
            } else {
                statics.nodes[st.children[inner].0]
                    .static_ub_per_exec
                    .max(1.0)
            };
            let mut ub = rem_outer * per_row + k;
            if full {
                ub += child(inner).ub;
            }
            (k, ub)
        }
        BoundKind::Spool => {
            // Table 1 lists ∞ for spools; we tighten: stored rows (≤ child
            // UB) replayed at most once per enclosing-NL outer row. Outside
            // a nested loop, a spool emits its input exactly once, so the
            // child's UB bounds it directly — tighter than a "remaining
            // input + k" form and, unlike it, sound for eager spools (which
            // consume everything before emitting anything) and under
            // batched consumption.
            let cb = child(0);
            if st.enclosing_nl.is_some() {
                (k, cb.ub * execs_ub)
            } else {
                (k, cb.ub)
            }
        }
        BoundKind::Concat => {
            let lb: f64 = if st.may_stop_early {
                k
            } else {
                (0..st.children.len()).map(child_k).sum::<f64>().max(k)
            };
            let ub: f64 = (0..st.children.len()).map(|j| child(j).ub).sum();
            (lb, ub)
        }
    };
    Bounds {
        lb: lb.max(k),
        ub: ub.max(lb.max(k)),
    }
}

fn remaining(ub: f64, k: f64) -> f64 {
    (ub - k).max(0.0)
}
