//! # lqs-bench — figure regeneration binaries and criterion benchmarks
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index). Every binary accepts:
//!
//! * `--scale <f64>`   data scale (default 1.0)
//! * `--queries <n>`   query cap per workload (default: full counts)
//! * `--seed <u64>`    master seed (default 42)
//! * `--json <path>`   also dump the figure data as JSON
//!
//! Criterion micro-benchmarks (in `benches/`) measure estimator overhead per
//! snapshot — the estimator must be cheap enough for 500 ms DMV polling.

use lqs::workloads::WorkloadScale;

/// Parsed common CLI arguments for figure binaries.
pub struct Args {
    /// Workload scaling.
    pub scale: WorkloadScale,
    /// Optional JSON output path.
    pub json: Option<String>,
}

/// Parse `std::env::args()` into [`Args`].
pub fn parse_args() -> Args {
    let mut scale = WorkloadScale::default();
    let mut json = None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale.data_scale = args[i + 1].parse().expect("--scale takes a float");
                i += 2;
            }
            "--queries" => {
                scale.query_limit = args[i + 1].parse().expect("--queries takes an integer");
                i += 2;
            }
            "--seed" => {
                scale.seed = args[i + 1].parse().expect("--seed takes an integer");
                i += 2;
            }
            "--json" => {
                json = Some(args[i + 1].clone());
                i += 2;
            }
            other => panic!("unknown argument {other}; see crate docs"),
        }
    }
    Args { scale, json }
}

/// Write JSON output if requested.
pub fn maybe_write_json<T: serde::Serialize>(args: &Args, value: &T) {
    if let Some(path) = &args.json {
        std::fs::write(path, lqs::harness::report::to_json(value))
            .expect("failed to write JSON output");
        eprintln!("wrote {path}");
    }
}

/// Render a time series compactly for terminal output: sampled rows of
/// `t  v1  v2 ...`.
pub fn render_series(
    title: &str,
    names: &[&str],
    series: &[&[lqs::harness::figures::Point]],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = write!(out, "{:>8}", "t");
    for n in names {
        let _ = write!(out, "{n:>16}");
    }
    let _ = writeln!(out);
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let step = (len / 24).max(1);
    let mut i = 0;
    while i < len {
        let t = series
            .iter()
            .find_map(|s| s.get(i))
            .map(|p| p.t)
            .unwrap_or(0.0);
        let _ = write!(out, "{t:>8.3}");
        for s in series {
            match s.get(i) {
                Some(p) => {
                    let _ = write!(out, "{:>16.4}", p.v);
                }
                None => {
                    let _ = write!(out, "{:>16}", "-");
                }
            }
        }
        let _ = writeln!(out);
        i += step;
    }
    out
}

/// Report the first failed check of a smoke binary as
/// `<binary name>: FAIL: <msg>` on stderr and exit 1.
pub fn fail(msg: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("lqs-bench");
    eprintln!("{bin}: FAIL: {msg}");
    std::process::exit(1);
}

/// Minimal HTTP/1.1 GET over a raw socket; returns (status, body).
pub fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {addr}: {e}")));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap_or_else(|e| fail(&format!("cannot send request: {e}")));
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .unwrap_or_else(|e| fail(&format!("cannot read response: {e}")));
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| fail(&format!("malformed status line in {response:.60?}")));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

/// GET `path` twice and insist the bodies are byte-for-byte identical —
/// journal- and profile-backed endpoints must be pure functions of the
/// journal bytes and the virtual state.
pub fn http_get_deterministic(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let (status, first) = http_get(addr, path);
    let (status2, second) = http_get(addr, path);
    if status != status2 || first != second {
        fail(&format!("two scrapes of {path} differ"));
    }
    (status, first)
}
