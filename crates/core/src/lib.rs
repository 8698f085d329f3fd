//! # lqs — Live Query Statistics, reproduced in Rust
//!
//! A from-scratch reproduction of *"Operator and Query Progress Estimation
//! in Microsoft SQL Server Live Query Statistics"* (SIGMOD 2016): a
//! per-operator and per-query progress estimator ([`progress`]) layered on
//! an instrumented query execution engine ([`exec`]) with its own storage
//! layer ([`storage`]), mini-optimizer ([`plan`]), benchmark-shaped
//! workloads ([`workloads`]), and a Prometheus-style telemetry subsystem
//! ([`metrics`]) threaded through the multi-session query service ([`server`]), a durable per-session
//! snapshot journal with crash recovery ([`journal`]), fleet-wide
//! progress analytics and resource prediction over those journals
//! ([`history`]), exact per-operator time attribution with flamegraph
//! export ([`prof`]), plus a deterministic fault-injection layer
//! ([`chaos`]) for robustness testing.
//!
//! ## Quickstart
//!
//! ```
//! use lqs::prelude::*;
//!
//! // 1. Build a database.
//! let mut table = Table::new(
//!     "orders",
//!     Schema::new(vec![
//!         Column::new("id", DataType::Int),
//!         Column::new("amount", DataType::Int),
//!     ]),
//! );
//! for i in 0..10_000i64 {
//!     table.insert(vec![Value::Int(i), Value::Int(i % 500)]).unwrap();
//! }
//! let mut db = Database::new();
//! let orders = db.add_table_analyzed(table);
//!
//! // 2. Author a physical plan (the estimator consumes plans, not SQL —
//! //    exactly like the real LQS client consumes showplans).
//! let mut b = PlanBuilder::new(&db);
//! let scan = b.table_scan_filtered(orders, Expr::col(1).lt(Expr::lit(250i64)), true);
//! let agg = b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)]);
//! let plan = b.finish(agg);
//!
//! // 3. Execute, collecting DMV snapshots on the virtual clock.
//! let run = execute(&db, &plan, &ExecOptions::default());
//!
//! // 4. Replay the snapshots through the progress estimator.
//! let estimator = ProgressEstimator::with_cost_model(&plan, &db, EstimatorConfig::full(), &run.cost_model);
//! let mid = &run.snapshots[run.snapshots.len() / 2];
//! let report = estimator.estimate(mid);
//! assert!(report.query_progress > 0.0 && report.query_progress <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use lqs_chaos as chaos;
pub use lqs_exec as exec;
pub use lqs_history as history;
pub use lqs_journal as journal;
pub use lqs_metrics as metrics;
pub use lqs_obs as obs;
pub use lqs_plan as plan;
pub use lqs_prof as prof;
pub use lqs_progress as progress;
pub use lqs_server as server;
pub use lqs_storage as storage;
pub use lqs_workloads as workloads;

/// One-stop imports for applications: what the quickstart and the
/// examples use. Everything else is one module path away (`lqs::server`,
/// `lqs::journal`, ...).
pub mod prelude {
    pub use lqs_exec::{
        execute, execute_traced, plan_node_names, DmvSnapshot, ExecOptions, QueryRun,
    };
    pub use lqs_obs::{to_chrome_trace, to_jsonl, RingBufferSink};
    pub use lqs_plan::{
        AggFunc, Aggregate, Expr, JoinKind, NodeId, PhysicalOp, PhysicalPlan, PipelineSet,
        PlanBuilder, SeekKey, SeekRange, SortKey,
    };
    pub use lqs_progress::{EstimatorConfig, ProgressEstimator, ProgressReport};
    pub use lqs_storage::{Column, DataType, Database, Schema, Table, Value};
}
