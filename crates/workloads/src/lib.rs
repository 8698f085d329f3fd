//! # lqs-workloads — the five evaluation workloads
//!
//! Scaled-down, seeded reproductions of the workload suite in the paper's
//! §5: TPC-H (with Zipf z=1 skew, in both a row-store and a columnstore
//! physical design), a TPC-DS-shaped decision-support workload, and three
//! synthetic analogs of the proprietary REAL-1/2/3 customer workloads,
//! matched on the characteristics the paper reports (query counts, join
//! counts, relative database sizes).
//!
//! All generation is deterministic in the seed; plans are authored through
//! `lqs-plan`'s builder, mirroring how the real LQS consumes compiled
//! showplans rather than SQL text.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod real;
pub mod rng;
pub mod suite;
pub mod tpcds;
pub mod tpch;

pub use suite::{standard_five, NamedQuery, Workload, WorkloadScale};
pub use tpch::PhysicalDesign;
