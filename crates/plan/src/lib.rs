//! # lqs-plan — physical plans, the mini query optimizer and the DMV rows
//!
//! The showplan layer of the LQS reproduction, and the DMV contract — what
//! a client of the engine reads:
//!
//! * [`expr`] — scalar expressions and aggregates.
//! * [`op`] — the physical operator set mirroring SQL Server showplan
//!   operators (scans, seeks, joins, spools, exchanges, bitmap filters,
//!   batch-mode columnstore scans).
//! * [`plan`] / [`builder`] — the plan arena and the fluent builder used by
//!   workloads (the system has no SQL frontend by design: like the real LQS
//!   client, the estimator consumes compiled plans, not SQL text).
//! * [`cardinality`] / [`cost`] — the mini optimizer. Histogram-based
//!   cardinality estimation whose errors arise from the classical
//!   uniformity/independence/containment assumptions, and a CPU+I/O cost
//!   model whose constants are shared with the executor's virtual clock.
//! * [`pipeline`] — pipeline decomposition and driver nodes (§3.1.1).
//! * [`dmv`] — the `sys.dm_exec_query_profiles` rows the engine writes
//!   ([`NodeCounters`], [`DmvSnapshot`]) and a finished run's trace plus
//!   ground truth ([`QueryRun`]). With the showplan, this is everything the
//!   progress estimator reads, so its crates depend on this one and not on
//!   the engine.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod builder;
pub mod cardinality;
pub mod cost;
pub mod dmv;
pub mod expr;
pub mod op;
pub mod pipeline;
pub mod plan;

pub use builder::PlanBuilder;
pub use cost::CostModel;
pub use dmv::{DmvSnapshot, NodeCounters, QueryRun};
pub use expr::{AggFunc, AggState, Aggregate, ArithOp, CmpOp, Expr};
pub use op::{
    BitmapId, BitmapProbe, ExchangeKind, IndexOutput, JoinKind, NodeId, PhysicalOp, SeekKey,
    SeekRange, SortKey,
};
pub use pipeline::{Pipeline, PipelineId, PipelineSet};
pub use plan::{PhysicalPlan, PlanNode, Provenance};
