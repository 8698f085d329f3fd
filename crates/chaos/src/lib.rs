//! # lqs-chaos — deterministic fault injection for the LQS stack
//!
//! The paper's estimator is client-side code reading DMV counters over a
//! real network from a loaded server: snapshots arrive late, duplicated,
//! out of order, occasionally reset, and sometimes not at all; the engine
//! underneath hits slow devices, I/O errors, and operator failures; the
//! server sheds load. This crate injects all of that **deterministically**
//! — every fault keys off the virtual clock, cumulative counters, or a
//! seeded RNG, never wall-clock state — so a chaos run is reproducible
//! byte-for-byte and can be diffed across machines.
//!
//! * [`FaultPlan`] — the declarative DSL naming a fault scenario: storage
//!   faults (slow pages, I/O errors), operator faults (stalls and panics
//!   at chosen GetNext counts), telemetry-channel faults (drop / delay /
//!   duplicate / reorder / counter-reset) and poll-path faults.
//! * [`PlanFaultInjector`] — a plan's engine faults as an
//!   [`lqs_exec::FaultInjector`] (one per session); [`PageGate`] — the
//!   releasable stall the overload soak and the profile smoke wedge a
//!   session on.
//! * [`ChannelFaultFilter`] / `ChannelMangler` / [`mangle_stream`] —
//!   the telemetry channel, live and offline: identical `(faults, seed)`
//!   produce the identical delivered stream either way.
//! * [`SeededPollFault`] — order-independent seeded poll failures for
//!   [`lqs_server::RegistryPoller`].
//! * [`run_soak`] — the N workloads × M fault plans soak matrix with its
//!   invariant checks and deterministic summary.
//! * `SeededCrashPoint` / `corrupt_tails` / [`run_crash_soak`] —
//!   process-death at chosen journal byte offsets, seeded tail corruption
//!   of segment files on disk, and the kill/recover soak asserting that
//!   every journaled session is recovered (faithfully terminal or
//!   `Orphaned`, never lost) and that recovered runs replay
//!   bit-identically.
//! * [`run_overload_soak`] — the self-healing soak: journal-fault storms
//!   driving full circuit-breaker cycles, watchdog remediation of stalled
//!   sessions, a saturated slow-loris HTTP client storm against the
//!   hardened ingress, and brownout shedding — with a deterministic
//!   summary.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod channel;
pub mod crash;
pub(crate) mod inject;
pub mod overload;
pub mod plan;
pub mod poll;
pub mod soak;

pub use channel::{mangle_stream, ChannelFaultFilter};
pub use crash::{run_crash_soak, CrashSoakConfig};
pub use inject::{PageGate, PlanFaultInjector};
pub use overload::{run_overload_soak, OverloadSoakConfig};
pub use plan::{ChannelFaults, FaultPlan};
pub use poll::SeededPollFault;
pub use soak::{run_soak, SoakConfig, SoakReport};
