//! Golden trajectories: the engine's whole observable output — every
//! snapshot, the final counters, the per-node self-times, the clock and the
//! row count — pinned as six constants (REAL-1/2/3 × root batch size
//! 1024 / 1).
//!
//! This is the gate for engine optimisations that claim to move no virtual
//! nanosecond: a change to the order or size of any charge, to when a row
//! count settles, or to which rows come out shows up here as a different
//! constant. The fold is an explicit FNV-1a over little-endian field bytes,
//! so the constants depend on nothing but the field values (no
//! `DefaultHasher` keys, no `Debug` formatting).
//!
//! The constants were generated on the commit *before* the row-at-a-time
//! join path was made allocation-free; regenerate them only in a change
//! that means to alter trajectories, and say so.

use lqs::exec::{execute, ExecOptions, NodeCounters, QueryRun};
use lqs::workloads::real::{workload, RealProfile};
use lqs::workloads::WorkloadScale;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// `None` and `Some(0)` must differ: a presence byte, then the value.
    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.bytes(&[0]),
            Some(v) => {
                self.bytes(&[1]);
                self.u64(v);
            }
        }
    }

    fn counters(&mut self, c: &NodeCounters) {
        self.u64(c.rows_output);
        self.u64(c.rows_input);
        self.u64(c.logical_reads);
        self.u64(c.segments_processed);
        self.u64(c.cpu_ns);
        self.opt(c.open_ns);
        self.opt(c.first_row_ns);
        self.opt(c.close_ns);
        self.u64(c.rows_buffered);
        self.u64(c.rows_processed);
        self.u64(c.executions);
    }

    fn run(&mut self, run: &QueryRun) {
        self.u64(run.snapshots.len() as u64);
        for s in &run.snapshots {
            self.u64(s.ts_ns);
            self.u64(s.nodes.len() as u64);
            for c in &s.nodes {
                self.counters(c);
            }
        }
        self.u64(run.final_counters.len() as u64);
        for c in &run.final_counters {
            self.counters(c);
        }
        self.u64(run.node_elapsed_ns.len() as u64);
        for &ns in &run.node_elapsed_ns {
            self.u64(ns);
        }
        self.u64(run.duration_ns);
        self.u64(run.rows_returned);
    }
}

fn trajectory_hash(profile: RealProfile, batch_size: usize) -> u64 {
    let w = workload(
        profile,
        WorkloadScale {
            data_scale: 0.05,
            query_limit: 40,
            seed: 42,
        },
    );
    assert_eq!(w.queries.len(), 40);
    let opts = ExecOptions {
        batch_size,
        ..ExecOptions::default()
    };
    let mut h = Fnv1a::new();
    for q in &w.queries {
        h.run(&execute(&w.db, &q.plan, &opts));
    }
    h.0
}

fn check(profile: RealProfile, batch_size: usize, golden: u64) {
    let got = trajectory_hash(profile, batch_size);
    assert_eq!(
        got, golden,
        "{profile:?} @ batch {batch_size}: trajectory hash {got:#018x}, golden {golden:#018x}"
    );
}

#[test]
fn real1_batch_1024() {
    check(RealProfile::Real1, 1024, 0x9bfe_c5d7_a3d9_38ce);
}

#[test]
fn real1_batch_1() {
    check(RealProfile::Real1, 1, 0x6a16_c054_4cca_f6a3);
}

#[test]
fn real2_batch_1024() {
    check(RealProfile::Real2, 1024, 0x2562_7e86_f88e_29d0);
}

#[test]
fn real2_batch_1() {
    check(RealProfile::Real2, 1, 0x2562_7e86_f88e_29d0);
}

#[test]
fn real3_batch_1024() {
    check(RealProfile::Real3, 1024, 0x3c2f_8eb3_f113_b94a);
}

#[test]
fn real3_batch_1() {
    check(RealProfile::Real3, 1, 0xf39c_e746_de6a_748e);
}
