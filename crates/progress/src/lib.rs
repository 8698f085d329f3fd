//! # lqs-progress — operator and query progress estimation
//!
//! The paper's primary contribution: a client-side progress estimator that
//! consumes plan metadata plus DMV counter snapshots and produces per-
//! operator and query-level progress, implementing every technique of the
//! paper's §4:
//!
//! | Paper § | Technique | Module |
//! |---|---|---|
//! | 3.1.2 | GetNext model, TGN & driver-node estimators | [`estimator`] |
//! | 4.1 | online cardinality refinement | [`estimator`] |
//! | 4.2 + Appendix A | worst-case cardinality bounding | [`bounds`] |
//! | 4.3 | storage-engine predicates → I/O-fraction progress | [`estimator`] |
//! | 4.4 | semi-blocking operator adjustments | [`estimator`] |
//! | 4.5 | two-phase blocking operator model | [`estimator`] |
//! | 4.6 | operator weights + longest path | [`weights`] |
//! | 4.7 | batch-mode segment progress | [`estimator`] |
//! | 5 | Errorcount / Errortime metrics | [`metrics`] |
//!
//! Beyond the paper, [`ensemble`] implements the robust-estimation
//! extension (König et al.): a lineup of competing estimators read off one
//! shared per-snapshot derivation, plus an online statistical selection
//! layer ([`EnsembleEstimator`]) that weights them per query. There is one
//! pipeline: a single estimator is a lineup of one
//! ([`EnsembleEstimator::single`]), and that is what a
//! [`GuardedEstimator`] holds either way.
//!
//! Every technique is an independent toggle in [`EstimatorConfig`], so the
//! paper's ablation experiments are config deltas.

#![warn(missing_docs)]

pub mod bounds;
pub mod config;
pub mod ensemble;
pub mod estimator;
pub mod explain;
pub mod guard;
pub mod metrics;
pub mod statics;
pub mod weights;

pub use bounds::{compute_bounds, Bounds};
pub use config::{EstimatorConfig, QueryModel};
pub use ensemble::{EnsembleConfig, EnsembleEstimator, EnsembleReplay};
pub use estimator::{
    EnsembleSelection, EstimateQuality, EstimateScratch, NodeProgress, ProgressEstimator,
    ProgressReport,
};
pub use explain::{EstimationPath, ExplainCounters, Explanation, RefinementSource};
pub use guard::{AnomalyCounts, GuardedEstimator, SnapshotGuard};
pub use metrics::{error_count, error_time, PerOperatorError, TruthCurves};
pub use statics::{NodeStatic, PlanStatics};
