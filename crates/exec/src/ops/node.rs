//! The operator lifecycle — open, exhaust, close, rewind — written once.
//!
//! Every node of an executing plan is a [`Node`] around one operator
//! [`Body`]. The node owns what is the same for all twenty operators: the
//! plan-node id, the DMV open / close stamps and the exhausted flag. A body
//! implements only what differs: how rows are produced, which children it
//! opens, closes and rewinds, and what private state a rewind resets.
//!
//! The progress estimator leans on the stamps as hard as on the row counts
//! ("every member reads 1.0 once the plan's root node is closed"), so they
//! must mean the same thing for every operator type; this file is the only
//! place under `ops/` that calls [`ExecContext::mark_open`] or
//! [`ExecContext::mark_close`] (CI greps for it).

use super::{Operator, RowBatch};
use crate::context::ExecContext;
use lqs_plan::NodeId;

/// What differs between operators. Every method is called by [`Node`] only,
/// with the node's id, *after* the node has done its own stamping for that
/// call — so a body never stamps, never remembers that it is exhausted and
/// never sees `limit == 0`.
pub(crate) trait Body: Sized {
    /// This body as plan node `id`, ready to open.
    fn at(self, id: NodeId) -> Node<Self> {
        Node {
            id,
            exhausted: false,
            body: self,
        }
    }

    /// Open the children, and do whatever work the operator does at open
    /// time (the hash join's build phase). Leaves have nothing to do.
    fn open(&mut self, _ctx: &ExecContext, _id: NodeId) {}

    /// Append between one and `limit` (> 0) rows to `out` and return
    /// `true`, or append nothing and return `false`: exhausted. It is not
    /// called again after a `false` until the next [`rewind`](Body::rewind).
    /// The rest of [`Operator::next_batch`]'s contract — return as soon as
    /// `out` has grown, never pull a child after that — is the body's to
    /// keep.
    ///
    /// Implementations are `#[inline]`: each has exactly one caller,
    /// [`Node::next_batch`](Operator::next_batch), and compiled into it a
    /// call stays one virtual dispatch. Left to itself the compiler keeps
    /// `produce` a function of its own, and a `limit 1` run through twelve
    /// stacked filters pays a quarter of its throughput for the second call.
    fn produce(&mut self, ctx: &ExecContext, id: NodeId, out: &mut RowBatch, limit: usize) -> bool;

    /// Close the children.
    fn close(&mut self, _ctx: &ExecContext) {}

    /// Get ready to produce the rows again: rewind the children (or keep a
    /// buffer to replay — sort, spool) and reset private state.
    fn rewind(&mut self, ctx: &ExecContext, id: NodeId);
}

/// One plan node: the lifecycle around an operator body. The only
/// [`Operator`] the tree is built from.
pub(crate) struct Node<B> {
    id: NodeId,
    /// Set by the first `produce` that reports exhaustion, cleared by
    /// `rewind`.
    exhausted: bool,
    body: B,
}

impl<B: Body> Operator for Node<B> {
    fn open(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.body.open(ctx, self.id);
    }

    fn next_batch(&mut self, ctx: &ExecContext, out: &mut RowBatch, limit: usize) -> bool {
        if self.exhausted {
            return false;
        }
        if limit == 0 {
            return true;
        }
        let before = out.len();
        let more = self.body.produce(ctx, self.id, out, limit);
        debug_assert_eq!(
            more,
            out.len() > before,
            "node {}: a productive call appends at least one row, an exhausted one none",
            self.id.0
        );
        if !more {
            // The close time is when the operator finished producing rows,
            // not when the executor got round to calling `close`.
            self.exhausted = true;
            ctx.mark_close(self.id);
        }
        more
    }

    fn close(&mut self, ctx: &ExecContext) {
        self.body.close(ctx);
        ctx.mark_close(self.id);
    }

    fn rewind(&mut self, ctx: &ExecContext) {
        ctx.mark_open(self.id);
        self.exhausted = false;
        self.body.rewind(ctx, self.id);
    }
}
