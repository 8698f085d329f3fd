//! # lqs-journal — durable snapshot journal with crash recovery
//!
//! A per-session write-ahead journal for the LQS stack: every published
//! [`DmvSnapshot`](lqs_plan::DmvSnapshot), the session's plan/cost-model
//! metadata, its terminal state, and a clean-shutdown sentinel are appended
//! as length-prefixed, CRC32-checksummed records ([`record`]). Segment
//! files rotate at a configurable size and a retention sweep bounds the
//! directory's disk budget ([`writer`]). After a crash, [`reader::walk_dir`]
//! reassembles each session's stream in turn, truncating at the first torn
//! or corrupt frame — recovery loses at most the unsynced tail, never a
//! session — and the server's `RecoveryManager` rebuilds its registry one
//! session at a time so pollers and estimators re-attach to journaled runs
//! bit-identically.
//!
//! Crash realism is a first-class test surface: [`WriteCrashPoint`] lets a
//! chaos harness tear the exact byte where a simulated process dies, so the
//! torn-tail recovery path is exercised deterministically rather than hoped
//! about.

#![warn(unreachable_pub)]

pub mod breaker;
pub mod metrics;
pub mod reader;
pub mod record;
pub mod writer;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use metrics::JournalMetrics;
pub use reader::{
    list_sessions, read_session, scan_dir, walk_dir, JournalScan, RecoveredSession, SessionSegments,
};
pub use record::{
    plan_fingerprint, AlertKind, AlertRecord, EstimatorRecord, JournalExecMode, Record,
    SegmentHeader, SessionMeta, TerminalKind, TerminalRecord, FORMAT_VERSION, SEGMENT_HEADER_BYTES,
};
pub use writer::{
    parse_segment_file_name, Journal, JournalConfig, JournalFaultInjector, RetentionSweep,
    SessionJournal, WriteCrashPoint,
};
