//! Telemetry-channel fault injection: mangles the stream of published
//! [`DmvSnapshot`]s the way a lossy DMV polling channel would.
//!
//! The core is `ChannelMangler`, a pure seeded state machine:
//! feed it snapshots in publish order, get back the snapshots actually
//! delivered. [`ChannelFaultFilter`] wraps it behind a mutex as an
//! [`lqs_exec::SnapshotFilter`] for live sessions; [`mangle_stream`] runs
//! it over a recorded trace, so tests and soak summaries can reproduce the
//! exact delivered stream offline — same faults, same seed, same bytes.

use crate::plan::ChannelFaults;
use lqs_exec::{DmvSnapshot, NodeCounters, SnapshotFilter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Seeded snapshot-stream mangler (drop / delay / duplicate / reorder /
/// counter-reset). Deterministic per `(faults, seed)`.
pub(crate) struct ChannelMangler {
    faults: ChannelFaults,
    rng: SmallRng,
    held: VecDeque<DmvSnapshot>,
}

impl ChannelMangler {
    /// A mangler applying `faults`, seeded with `seed`.
    pub(crate) fn new(faults: ChannelFaults, seed: u64) -> Self {
        ChannelMangler {
            faults,
            rng: SmallRng::seed_from_u64(seed),
            held: VecDeque::new(),
        }
    }

    /// Feed one published snapshot; returns the snapshots delivered
    /// downstream (possibly none, one, or several — including previously
    /// held snapshots released late, i.e. out of order).
    pub(crate) fn push(&mut self, s: &DmvSnapshot) -> Vec<DmvSnapshot> {
        // Draw every decision every call, used or not: the RNG stream then
        // depends only on (faults, seed, call index), never on which
        // branches earlier snapshots took.
        let drop = self.rng.gen_bool(self.faults.drop_p);
        let delay = self.rng.gen_bool(self.faults.delay_p);
        let dup = self.rng.gen_bool(self.faults.duplicate_p);
        let reorder = self.rng.gen_bool(self.faults.reorder_p);
        let reset = self.rng.gen_bool(self.faults.reset_p);
        let reset_idx = self.rng.next_u64() as usize;

        let mut snap = s.clone();
        if reset && !snap.nodes.is_empty() {
            let i = reset_idx % snap.nodes.len();
            snap.nodes[i] = NodeCounters::default();
        }

        let mut out = Vec::new();
        if drop {
            // Dropped on the floor.
        } else if delay {
            self.held.push_back(snap);
        } else {
            out.push(snap.clone());
            if dup {
                out.push(snap);
            }
        }
        // An explicit reorder releases the oldest held snapshot *after*
        // the current delivery — a stale timestamp arriving late.
        if reorder {
            if let Some(old) = self.held.pop_front() {
                out.push(old);
            }
        }
        // Cap the held queue; overflow is released late as well.
        while self.held.len() > self.faults.delay_max_held.max(1) {
            out.push(self.held.pop_front().expect("held nonempty"));
        }
        out
    }

    /// Release everything still held, in hold order.
    pub(crate) fn flush(&mut self) -> Vec<DmvSnapshot> {
        self.held.drain(..).collect()
    }
}

/// `ChannelMangler` as a live [`SnapshotFilter`] (one per session).
pub struct ChannelFaultFilter {
    inner: Mutex<ChannelMangler>,
}

impl ChannelFaultFilter {
    /// A filter applying `faults`, seeded with `seed`.
    pub(crate) fn new(faults: ChannelFaults, seed: u64) -> Self {
        ChannelFaultFilter {
            inner: Mutex::new(ChannelMangler::new(faults, seed)),
        }
    }
}

impl SnapshotFilter for ChannelFaultFilter {
    fn filter(&self, snapshot: &DmvSnapshot) -> Vec<DmvSnapshot> {
        self.inner.lock().expect("mangler poisoned").push(snapshot)
    }

    fn flush(&self) -> Vec<DmvSnapshot> {
        self.inner.lock().expect("mangler poisoned").flush()
    }
}

/// Run a recorded snapshot stream through a fresh mangler and return the
/// delivered stream (including the end-of-run flush). This is the offline
/// twin of [`ChannelFaultFilter`]: identical `(faults, seed)` yield the
/// byte-identical delivered stream a live session saw.
pub fn mangle_stream(
    snapshots: &[DmvSnapshot],
    faults: &ChannelFaults,
    seed: u64,
) -> Vec<DmvSnapshot> {
    let mut mangler = ChannelMangler::new(faults.clone(), seed);
    let mut out = Vec::new();
    for s in snapshots {
        out.extend(mangler.push(s));
    }
    out.extend(mangler.flush());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snaps(n: u64) -> Vec<DmvSnapshot> {
        (0..n)
            .map(|i| {
                let c = NodeCounters {
                    rows_output: i,
                    logical_reads: i * 2,
                    ..NodeCounters::default()
                };
                DmvSnapshot {
                    ts_ns: i * 1000,
                    nodes: vec![c.clone(), c],
                }
            })
            .collect()
    }

    fn lossy() -> ChannelFaults {
        ChannelFaults {
            drop_p: 0.2,
            delay_p: 0.3,
            delay_max_held: 3,
            duplicate_p: 0.2,
            reorder_p: 0.4,
            reset_p: 0.1,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let input = snaps(50);
        let a = mangle_stream(&input, &lossy(), 7);
        let b = mangle_stream(&input, &lossy(), 7);
        assert_eq!(a, b);
        let c = mangle_stream(&input, &lossy(), 8);
        assert_ne!(a, c, "different seeds should mangle differently");
    }

    #[test]
    fn filter_matches_offline_mangle() {
        let input = snaps(40);
        let filter = ChannelFaultFilter::new(lossy(), 123);
        let mut live = Vec::new();
        for s in &input {
            live.extend(filter.filter(s));
        }
        live.extend(filter.flush());
        assert_eq!(live, mangle_stream(&input, &lossy(), 123));
    }

    #[test]
    fn drop_everything_delivers_nothing() {
        let faults = ChannelFaults {
            drop_p: 1.0,
            ..Default::default()
        };
        assert!(mangle_stream(&snaps(10), &faults, 1).is_empty());
    }

    #[test]
    fn duplicate_everything_doubles_the_stream() {
        let faults = ChannelFaults {
            duplicate_p: 1.0,
            ..Default::default()
        };
        let out = mangle_stream(&snaps(10), &faults, 1);
        assert_eq!(out.len(), 20);
        for pair in out.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn delay_only_loses_nothing_and_disorders_something() {
        let faults = ChannelFaults {
            delay_p: 0.5,
            delay_max_held: 2,
            ..Default::default()
        };
        let input = snaps(60);
        let out = mangle_stream(&input, &faults, 3);
        assert_eq!(out.len(), input.len(), "delay must not lose snapshots");
        assert!(
            out.windows(2).any(|w| w[1].ts_ns < w[0].ts_ns),
            "expected at least one out-of-order delivery"
        );
    }

    #[test]
    fn reset_zeroes_one_node_not_the_snapshot() {
        let faults = ChannelFaults {
            reset_p: 1.0,
            ..Default::default()
        };
        let out = mangle_stream(&snaps(5), &faults, 9);
        assert_eq!(out.len(), 5);
        // Snapshot 3 has nonzero counters in the clean stream; after a
        // reset exactly one of its two nodes is zeroed.
        let mangled = &out[3];
        let zeroed = mangled
            .nodes
            .iter()
            .filter(|c| **c == NodeCounters::default())
            .count();
        assert_eq!(zeroed, 1);
    }
}
