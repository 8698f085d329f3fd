//! `lqs_soak` — the seeded soaks of `lqs::chaos`, one scene per run. The
//! invariants each scene holds the stack to are listed in the module docs
//! of the function it runs:
//!
//! * `chaos` — `run_soak`: the fault-injection matrix, N workloads × M
//!   fault plans through the full service + poller stack.
//! * `crash` — `run_crash_soak`: kill/recover durability — three service
//!   incarnations over one journal directory whose writers "die" at seeded
//!   byte offsets and whose segment tails are corrupted on disk; nothing
//!   journaled is ever lost, and recovered runs replay bit-identically.
//! * `overload` — `run_overload_soak`: self-healing — journal-fault storms
//!   through full circuit-breaker cycles, watchdog remediation of a stalled
//!   session, an HTTP storm with slow-loris clients against the hardened
//!   ingress, and brownout shedding.
//!
//! Each printed summary is deterministic for a given `--seed` — built only
//! from seeded faults and virtual-clock outcomes, never from
//! wall-clock-dependent counts — so CI runs every scene twice per seed and
//! diffs the `--out` files byte-for-byte.
//!
//! ```text
//! lqs_soak --scene chaos|crash|overload [--seed 42] [--quick] [--dir PATH] [--out PATH]
//! ```
//!
//! `--quick` shrinks `chaos` and `overload` for smoke runs (their default
//! is the full matrix / the full 64-poller storm); `crash` has one size.
//! `crash` and `overload` journal under `--dir`, which defaults to a fresh
//! directory under the system temp dir; it is wiped before the run so stale
//! journals never leak into the summary, and an explicitly passed `--dir`
//! is kept afterwards for post-mortem inspection (`lqs_live --journal DIR`).
//! Exit status is nonzero when any invariant is violated.

use lqs::chaos::{
    run_crash_soak, run_overload_soak, run_soak, CrashSoakConfig, OverloadSoakConfig, SoakConfig,
    SoakReport,
};
use lqs_bench::{Cli, Kind};
use std::path::{Path, PathBuf};

const CLI: Cli = Cli {
    usage: "usage: lqs_soak --scene chaos|crash|overload [--seed N] [--quick] [--dir PATH] \
            [--out PATH]",
    flags: &[
        ("--scene", Kind::Text),
        ("--seed", Kind::Int),
        ("--quick", Kind::Switch),
        ("--dir", Kind::Text),
        ("--out", Kind::Text),
    ],
};

/// A scene, run with the seed, `--quick`, and the (fresh) journal directory.
type Scene = fn(u64, bool, &Path) -> SoakReport;

const SCENES: &[(&str, Scene)] = &[
    ("chaos", |seed, quick, _| {
        run_soak(&if quick {
            SoakConfig::quick(seed)
        } else {
            SoakConfig::full(seed)
        })
    }),
    ("crash", |seed, _, dir| {
        run_crash_soak(&CrashSoakConfig::quick(seed, dir))
    }),
    ("overload", |seed, quick, dir| {
        run_overload_soak(&if quick {
            OverloadSoakConfig::quick(seed, dir)
        } else {
            OverloadSoakConfig::full(seed, dir)
        })
    }),
];

fn main() {
    let flags = CLI.parse_env();
    let scene = CLI.select(&flags, "--scene", SCENES);
    let seed = flags.int("--seed").unwrap_or(42);
    let keep_dir = flags.text("--dir").is_some();
    let dir = flags.text("--dir").map_or_else(
        || std::env::temp_dir().join(format!("lqs-soak-{seed}-{}", std::process::id())),
        PathBuf::from,
    );
    // Leftover journals from another run would change recovery counts and
    // breaker outcomes; start from a clean slate.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create journal dir");

    let report = scene(seed, flags.on("--quick"), &dir);
    print!("{}", report.summary);
    if let Some(path) = flags.text("--out") {
        std::fs::write(path, &report.summary).expect("write summary");
    }
    // Only auto temp dirs are cleaned.
    if !keep_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if !report.passed() {
        eprintln!("invariant violations:");
        for v in &report.violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
