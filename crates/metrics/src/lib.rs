//! # lqs-metrics — metrics & telemetry for the LQS stack
//!
//! The paper's premise is that progress estimation is only as good as the
//! counter surface the engine exposes; a long-running *service* needs the
//! same discipline about itself. This crate is the self-observation layer:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — atomic, lock-free on the hot
//!   path, `Send + Sync`. The histogram is log-bucketed (growth `2^(1/8)`),
//!   so reported quantiles carry a ≤ 9.05% relative-error bound
//!   ([`Histogram::RELATIVE_ERROR`]) while `sum`/`count` stay exact.
//! * [`MetricsRegistry`] — named families with label dimensions and
//!   get-or-create `Arc` handles, rendered on demand in the Prometheus text
//!   exposition format (0.0.4) by [`MetricsRegistry::render`].
//!
//! Consumers thread a registry through the stack: `lqs-exec` records
//! per-operator close-time totals, `lqs-server` records session lifecycle,
//! queue-wait and run-duration distributions, poll latency, snapshot
//! staleness — and, the headline, *estimator accuracy self-telemetry*:
//! when a session finishes, its estimate trace is scored against the
//! now-known ground truth (the paper's §5 error metrics) and folded into
//! per-workload histograms. A scrape of `/metrics` then answers "how wrong
//! were our progress bars today?" continuously, the feedback loop König et
//! al. argue robust progress estimation requires.
//!
//! Everything is hand-rolled over `std` — the workspace is vendor-only, no
//! registry access, no new dependencies.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub(crate) mod primitives;
pub mod registry;

pub use primitives::{percentile, Counter, Gauge, Histogram};
pub use registry::MetricsRegistry;
