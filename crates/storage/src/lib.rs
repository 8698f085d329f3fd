//! # lqs-storage — storage engine substrate
//!
//! The storage layer underneath the LQS reproduction's query execution
//! engine:
//!
//! * [`value`] / [`schema`] — typed scalar values and table schemas.
//! * [`table`] — heap tables with an 8 KiB page-packing model, so scans have
//!   meaningful *logical read* counts (needed by the paper's §4.3 technique,
//!   which estimates scan progress from the fraction of I/Os issued).
//! * [`btree`] — paged B+tree indexes (clustered and nonclustered), held
//!   as sorted arrays, with realistic height/leaf accounting for Index
//!   Seek / Index Scan costing.
//! * [`columnstore`] — segment-oriented columnstore indexes with min/max
//!   segment metadata; batch-mode scans report *segments processed*, the
//!   progress denominator of §4.7.
//! * [`stats`] — equi-depth histograms and distinct counts backing the mini
//!   query optimizer, so cardinality misestimates arise from real modelling
//!   assumptions rather than injected noise.
//! * [`db`] — the catalog tying it together, including the simulated
//!   `sys.column_store_segments` DMV.

#![warn(missing_docs)]

pub mod btree;
pub mod columnstore;
pub mod db;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use btree::BTreeIndex;
pub use columnstore::{ColumnstoreIndex, SEGMENT_SIZE};
pub use db::{ColumnstoreId, Database, IndexId, TableId};
pub use schema::{Column, Schema};
pub use stats::TableStats;
pub use table::{Row, RowId, Table, PAGE_SIZE};
pub use value::{DataType, Value};
