//! Latest-snapshot slot: one mutex around one reusable [`DmvSnapshot`].
//!
//! One executing worker publishes here at snapshot cadence (tens of times
//! per query, each right after microseconds of journal append) and pollers
//! read every few hundred milliseconds, so a lock is all the hand-off needs;
//! the end-to-end ledger could not see the seqlock this replaced
//! (EXPERIMENTS.md, "Snapshot slot A/B" — the ledger's `server.seqslot.*`
//! figures are why the module keeps its name). Publish copies into the
//! slot's buffer, read copies that buffer into the caller's, and both reuse
//! the destination's allocation, so after the first publish and first read
//! of a shape neither side allocates. Any node count takes the same path: a
//! reshaping [`lqs_exec::SnapshotFilter`] merely resizes the buffers once.

use lqs_exec::DmvSnapshot;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A single slot holding the most recently published [`DmvSnapshot`].
pub struct SnapshotSlot {
    inner: Mutex<Inner>,
}

struct Inner {
    /// `snapshot` starts as an empty preallocated buffer, not a publish.
    published: bool,
    snapshot: DmvSnapshot,
}

/// `DmvSnapshot`'s derived `clone_from` reallocates; going field by field
/// lets `Vec::clone_from` reuse `dst`'s allocation.
fn copy_into(dst: &mut DmvSnapshot, src: &DmvSnapshot) {
    dst.ts_ns = src.ts_ns;
    dst.nodes.clone_from(&src.nodes);
}

impl SnapshotSlot {
    /// A slot preallocated for plans of `nodes` operators.
    pub fn new(nodes: usize) -> Self {
        let snapshot = DmvSnapshot {
            ts_ns: 0,
            nodes: Vec::with_capacity(nodes),
        };
        let inner = Mutex::new(Inner {
            published: false,
            snapshot,
        });
        SnapshotSlot { inner }
    }

    /// Poison is recovered, not propagated: the buffer is plain counters
    /// that the next publish overwrites whole with a copy that cannot panic
    /// part-way, so a panicking session thread leaves nothing broken here.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Make `snapshot` the latest.
    pub fn publish(&self, snapshot: &DmvSnapshot) {
        let mut inner = self.lock();
        copy_into(&mut inner.snapshot, snapshot);
        inner.published = true;
    }

    /// Copy the latest snapshot into `buf`, reusing its allocation.
    /// Returns `false`, leaving `buf` alone, before the first publish.
    pub fn read_into(&self, buf: &mut DmvSnapshot) -> bool {
        let inner = self.lock();
        if inner.published {
            copy_into(buf, &inner.snapshot);
        }
        inner.published
    }

    /// The latest snapshot's virtual timestamp without copying the nodes.
    /// `None` before the first publish.
    pub(crate) fn read_ts(&self) -> Option<u64> {
        let inner = self.lock();
        inner.published.then_some(inner.snapshot.ts_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lqs_exec::NodeCounters;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A snapshot where every word of every node equals `g` — any torn
    /// mix of two generations is detectable field-by-field.
    fn uniform(nodes: usize, g: u64) -> DmvSnapshot {
        DmvSnapshot {
            ts_ns: g,
            nodes: (0..nodes)
                .map(|_| NodeCounters {
                    rows_output: g,
                    rows_input: g,
                    logical_reads: g,
                    segments_processed: g,
                    cpu_ns: g,
                    open_ns: Some(g),
                    first_row_ns: Some(g),
                    close_ns: Some(g),
                    rows_buffered: g,
                    rows_processed: g,
                    executions: g,
                })
                .collect(),
        }
    }

    fn assert_uniform(s: &DmvSnapshot, nodes: usize) {
        let g = s.ts_ns;
        assert_eq!(s.nodes.len(), nodes);
        for n in &s.nodes {
            assert_eq!(
                (n.rows_output, n.rows_input, n.logical_reads, n.cpu_ns),
                (g, g, g, g),
                "torn read: node mixes generations"
            );
            assert_eq!(n.open_ns, Some(g));
            assert_eq!(n.first_row_ns, Some(g));
            assert_eq!(n.close_ns, Some(g));
            assert_eq!(
                (
                    n.segments_processed,
                    n.rows_buffered,
                    n.rows_processed,
                    n.executions
                ),
                (g, g, g, g)
            );
        }
    }

    #[test]
    fn roundtrips_all_fields() {
        let slot = SnapshotSlot::new(3);
        let mut buf = DmvSnapshot {
            ts_ns: 0,
            nodes: vec![],
        };
        assert!(!slot.read_into(&mut buf));
        assert_eq!(slot.read_ts(), None);

        let mut snap = uniform(3, 7);
        snap.nodes[1].first_row_ns = None;
        snap.nodes[2].open_ns = None;
        slot.publish(&snap);
        assert!(slot.read_into(&mut buf));
        assert_eq!(buf, snap);
        assert_eq!(slot.read_ts(), Some(7));
    }

    #[test]
    fn shape_change_takes_the_same_path() {
        let slot = SnapshotSlot::new(2);
        // A truncating filter shrinks the snapshot below the plan size.
        let small = uniform(1, 5);
        slot.publish(&small);
        let mut buf = DmvSnapshot {
            ts_ns: 0,
            nodes: vec![],
        };
        assert!(slot.read_into(&mut buf));
        assert_eq!(buf, small);
        assert_eq!(slot.read_ts(), Some(5));
        // Back to the plan size, then padded beyond it.
        for full in [uniform(2, 6), uniform(5, 7)] {
            slot.publish(&full);
            assert!(slot.read_into(&mut buf));
            assert_eq!(buf, full);
        }
    }

    #[test]
    fn buffer_is_reused_across_reads() {
        let slot = SnapshotSlot::new(64);
        slot.publish(&uniform(64, 1));
        let mut buf = DmvSnapshot {
            ts_ns: 0,
            nodes: vec![],
        };
        assert!(slot.read_into(&mut buf));
        let ptr = buf.nodes.as_ptr();
        let cap = buf.nodes.capacity();
        slot.publish(&uniform(64, 2));
        assert!(slot.read_into(&mut buf));
        assert_eq!(buf.ts_ns, 2);
        assert_eq!(buf.nodes.as_ptr(), ptr, "poll read reallocated its buffer");
        assert_eq!(buf.nodes.capacity(), cap);
    }

    /// Write-side twin of `buffer_is_reused_across_reads`: a second publish
    /// of the same shape copies into the slot's existing allocation.
    #[test]
    fn slot_buffer_is_reused_across_publishes() {
        let slot = SnapshotSlot::new(64);
        let allocation = || {
            let nodes = &slot.lock().snapshot.nodes;
            (nodes.as_ptr(), nodes.capacity())
        };
        slot.publish(&uniform(64, 1));
        let before = allocation();
        slot.publish(&uniform(64, 2));
        assert_eq!(slot.read_ts(), Some(2));
        assert_eq!(allocation(), before, "publish moved the slot's buffer");
    }

    /// A thread that panics while holding the lock must not wedge the slot
    /// for the publisher or the pollers that come after it.
    #[test]
    fn poisoned_lock_is_recovered() {
        let slot = SnapshotSlot::new(1);
        slot.publish(&uniform(1, 1));
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = slot.lock();
                panic!("poison the slot");
            })
            .join()
        });
        assert!(panicked.is_err());
        slot.publish(&uniform(1, 2));
        let mut buf = uniform(0, 0);
        assert!(slot.read_into(&mut buf));
        assert_eq!(buf, uniform(1, 2));
    }

    /// The slot contract under real contention: concurrent readers must
    /// never observe a snapshot mixing two publishes nor go back in time,
    /// and the publisher must finish a fixed batch of publishes while
    /// readers hammer the slot.
    #[test]
    fn concurrent_reads_are_never_torn() {
        const NODES: usize = 32;
        const PUBLISHES: u64 = 20_000;
        let slot = SnapshotSlot::new(NODES);
        slot.publish(&uniform(NODES, 0));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    let mut buf = DmvSnapshot {
                        ts_ns: 0,
                        nodes: vec![],
                    };
                    let mut last = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        assert!(slot.read_into(&mut buf));
                        assert_uniform(&buf, NODES);
                        // Generations are monotone: a reader can never go
                        // back in time.
                        assert!(buf.ts_ns >= last, "snapshot went backwards");
                        last = buf.ts_ns;
                    }
                });
            }
            let snaps: Vec<DmvSnapshot> = (1..=PUBLISHES).map(|g| uniform(NODES, g)).collect();
            for snap in &snaps {
                slot.publish(snap);
            }
            stop.store(true, Ordering::Release);
        });
        let mut buf = DmvSnapshot {
            ts_ns: 0,
            nodes: vec![],
        };
        assert!(slot.read_into(&mut buf));
        assert_eq!(buf.ts_ns, PUBLISHES);
    }
}
