//! # lqs-bench — the evaluation harness as five binaries
//!
//! One binary per job, not per figure (DESIGN.md's experiment index maps
//! every table and figure of the paper to a `paper --only` name):
//!
//! * `paper` — reproduce: the full §5 evaluation, or one experiment with
//!   `--only <name>` (`--list` prints the names). Takes `--scale <f64>`
//!   (default 1.0), `--queries <n>` (default: full counts), `--seed <u64>`
//!   (default 42) and `--json <path>` (also dump the figure data as JSON).
//! * `lqs_smoke --scene <name>` — smoke: one end-to-end scene through the
//!   service stack, checked and (where journaled) byte-for-byte repeatable.
//! * `lqs_soak --scene <name>` — soak: a seeded fault matrix with a
//!   deterministic summary.
//! * `lqs_engine_bench` — the timing gates: engine throughput against
//!   `BENCH_engine.json`, traced overhead, and the estimator's cost per
//!   snapshot (cheap enough for 500 ms DMV polling); `lqs_live` — the
//!   terminal LQS viewer.
//!
//! This library is what the five share: the one command-line parser
//! ([`Cli`] — nothing else in the crate reads `std::env::args`), the smoke
//! scenes' fixture ([`SmokeFixture`], [`fresh_journal`]) and their
//! raw-socket HTTP client; and the experiment harness behind `paper` and
//! `lqs_live`, which drives the paper's §5 evaluation end to end: it
//! executes workload queries on the engine ([`run`]), replays their DMV
//! traces through estimator configurations, aggregates
//! `Errorcount`/`Errortime` ([`experiment`]), and regenerates every table
//! and figure of the paper ([`figures`], [`report`]; DESIGN.md holds the
//! experiment index mapping each figure to its function).

#![warn(unreachable_pub)]

pub mod calibrate;
pub mod ensemble;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod run;

use lqs::journal::{Journal, JournalConfig};
use lqs::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// How a flag's value is read off the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Takes no value; present or absent.
    Switch,
    /// Takes any string (a name, a path).
    Text,
    /// Takes an unsigned integer.
    Int,
    /// Takes a finite floating-point number greater than zero (every
    /// `Float` flag is a scale).
    Float,
}

/// A binary's command line, declared: its usage string and the flags it
/// accepts.
pub struct Cli {
    /// Printed after every argument error, e.g. `usage: paper [--only NAME]`.
    pub usage: &'static str,
    /// Every accepted flag, spelled with its dashes, and how it is read.
    pub flags: &'static [(&'static str, Kind)],
}

/// The flags a command line carried, each value already checked against
/// its [`Kind`]. A flag given twice keeps its last value.
#[derive(Debug)]
pub struct Flags(Vec<(&'static str, String)>);

impl Cli {
    /// Parse `argv` (without the program name). The error is one line
    /// naming the offending argument.
    pub(crate) fn parse(&self, argv: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            let &(name, kind) = self
                .flags
                .iter()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown argument {arg}"))?;
            let mut value = String::new();
            if kind != Kind::Switch {
                value.clone_from(rest.next().ok_or(format!("missing value for {name}"))?);
            }
            if kind == Kind::Int && value.parse::<u64>().is_err() {
                return Err(format!("{name} takes an integer, got {value:?}"));
            }
            if kind == Kind::Float {
                match value.parse::<f64>() {
                    Err(_) => return Err(format!("{name} takes a number, got {value:?}")),
                    Ok(v) if !(v.is_finite() && v > 0.0) => {
                        return Err(format!("{name} takes a finite number > 0, got {value:?}"))
                    }
                    Ok(_) => {}
                }
            }
            out.push((name, value));
        }
        Ok(Flags(out))
    }

    /// Parse the process's own arguments; on an error print it and the
    /// usage to stderr and exit 2.
    pub fn parse_env(&self) -> Flags {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        self.parse(&argv).unwrap_or_else(|e| self.reject(&e))
    }

    /// Report a bad command line — `<binary>: <msg>`, then the usage — on
    /// stderr and exit 2.
    pub fn reject(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", binary_name(), self.usage);
        std::process::exit(2);
    }

    /// The entry of `table` that `flag`'s value names; a missing or unknown
    /// name is rejected with the valid ones listed.
    pub fn select<'a, T>(
        &self,
        flags: &Flags,
        flag: &str,
        table: &'a [(&'static str, T)],
    ) -> &'a T {
        let given = flags.text(flag);
        match table.iter().find(|(name, _)| Some(*name) == given) {
            Some((_, entry)) => entry,
            None => {
                let valid: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
                self.reject(&format!(
                    "{flag} {} is not one of: {}",
                    given.unwrap_or("<missing>"),
                    valid.join(", ")
                ))
            }
        }
    }
}

impl Flags {
    /// The value of `name`, if given (a [`Kind::Switch`]'s is empty).
    pub fn text(&self, name: &str) -> Option<&str> {
        let given = self.0.iter().rev().find(|(n, _)| *n == name);
        given.map(|(_, value)| value.as_str())
    }

    /// Whether the [`Kind::Switch`] `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of the [`Kind::Int`] flag `name`, if given.
    pub fn int(&self, name: &str) -> Option<u64> {
        self.text(name)
            .map(|v| v.parse().expect("Cli::parse checked a Kind::Int"))
    }

    /// The value of the [`Kind::Float`] flag `name`, if given.
    pub fn float(&self, name: &str) -> Option<f64> {
        self.text(name)
            .map(|v| v.parse().expect("Cli::parse checked a Kind::Float"))
    }
}

/// The running binary's file stem, for error prefixes.
fn binary_name() -> String {
    let argv0 = std::env::args().next().unwrap_or_default();
    std::path::Path::new(&argv0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("lqs-bench")
        .to_owned()
}

/// Report the first failed check of a smoke binary as
/// `<binary name>: FAIL: <msg>` on stderr and exit 1.
pub fn fail(msg: &str) -> ! {
    eprintln!("{}: FAIL: {msg}", binary_name());
    std::process::exit(1);
}

/// The two-column table `t(a, b)` the smoke fixture and the engine bench
/// run over: `a` is the row number, `b = a % modulus`.
pub fn table_t(rows: i64, modulus: i64) -> Table {
    let mut table = Table::new(
        "t",
        Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("b", DataType::Int),
        ]),
    );
    for i in 0..rows {
        table
            .insert(vec![Value::Int(i), Value::Int(i % modulus)])
            .unwrap();
    }
    table
}

/// What every smoke scene runs over: the 4 000-row table `t(a, b = a % 64)`
/// and four small plan shapes on it, by name — `scan`, `filter-sort`
/// (`b < 32` sorted by `a` descending), `aggregate` (`sum(a)` grouped by
/// `b`) and `scan-sort` (sorted by `b` descending).
pub struct SmokeFixture {
    /// The database holding `t`.
    pub db: Arc<Database>,
    plans: Vec<(&'static str, Arc<PhysicalPlan>)>,
}

impl SmokeFixture {
    /// Build the table and the plans.
    pub fn build() -> Self {
        let mut db = Database::new();
        let t = db.add_table_analyzed(table_t(4000, 64));
        let plan = |root: &dyn Fn(&mut PlanBuilder) -> lqs::plan::NodeId| {
            let mut b = PlanBuilder::new(&db);
            let root = root(&mut b);
            Arc::new(b.finish(root))
        };
        let plans = vec![
            ("scan", plan(&|b| b.table_scan(t))),
            (
                "filter-sort",
                plan(&|b| {
                    let scan = b.table_scan_filtered(t, Expr::col(1).lt(Expr::lit(32i64)), true);
                    b.sort(scan, vec![SortKey::desc(0)])
                }),
            ),
            (
                "aggregate",
                plan(&|b| {
                    let scan = b.table_scan(t);
                    b.hash_aggregate(scan, vec![1], vec![Aggregate::of_col(AggFunc::Sum, 0)])
                }),
            ),
            (
                "scan-sort",
                plan(&|b| {
                    let scan = b.table_scan(t);
                    b.sort(scan, vec![SortKey::desc(1)])
                }),
            ),
        ];
        SmokeFixture {
            db: Arc::new(db),
            plans,
        }
    }

    /// The plan called `name` (one of the four in the type's docs).
    pub fn plan(&self, name: &str) -> Arc<PhysicalPlan> {
        let (_, plan) = self
            .plans
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("the smoke fixture has no plan {name}"));
        Arc::clone(plan)
    }

    /// The mixed workload most scenes submit: `scan`, `filter-sort` and
    /// `aggregate`, each name doubling as its workload class so accuracy
    /// lands in distinct labeled histograms.
    pub fn mixed(&self) -> Vec<(&'static str, Arc<PhysicalPlan>)> {
        self.plans[..3].to_vec()
    }
}

/// The journal of smoke scene `scene` and its directory: `--out`'s value,
/// or `target/lqs-smoke-<scene>-journal`. Emptied first — journal epochs,
/// and hence every printed session key, must not depend on prior runs.
pub fn fresh_journal(out: Option<&str>, scene: &str) -> (PathBuf, Journal) {
    let dir = out.map_or_else(
        || PathBuf::from(format!("target/lqs-smoke-{scene}-journal")),
        PathBuf::from,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let journal = std::fs::create_dir_all(&dir)
        .and_then(|()| Journal::open(JournalConfig::new(&dir)))
        .unwrap_or_else(|e| fail(&format!("cannot open a journal in {}: {e}", dir.display())));
    (dir, journal)
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

/// GET `path` and insist on a `200`; returns the body.
pub fn http_get_ok(addr: std::net::SocketAddr, path: &str) -> String {
    let (status, body) = http_get(addr, path);
    if status != 200 {
        fail(&format!("GET {path} returned {status}"));
    }
    body
}

/// [`http_get_ok`] twice, insisting the bodies are byte-for-byte
/// identical — journal- and profile-backed endpoints must be pure
/// functions of the journal bytes and the virtual state.
pub fn http_get_deterministic(addr: std::net::SocketAddr, path: &str) -> String {
    let first = http_get_ok(addr, path);
    if first != http_get_ok(addr, path) {
        fail(&format!("two scrapes of {path} differ"));
    }
    first
}

/// Parse `body` (the response to `path`) as JSON or fail the smoke.
pub fn parse_json(path: &str, body: &str) -> serde_json::Value {
    serde_json::from_str(body).unwrap_or_else(|e| fail(&format!("{path} is not JSON: {e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        usage: "usage: demo [--seed N] [--scale F] [--out PATH] [--quick]",
        flags: &[
            ("--seed", Kind::Int),
            ("--scale", Kind::Float),
            ("--out", Kind::Text),
            ("--quick", Kind::Switch),
        ],
    };

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        CLI.parse(&argv)
    }

    #[test]
    fn values_switches_and_defaults() {
        let flags = parse(&["--seed", "7", "--quick", "--scale", "0.25", "--out", "a b"]).unwrap();
        assert_eq!(flags.int("--seed"), Some(7));
        assert_eq!(flags.float("--scale"), Some(0.25));
        assert_eq!(flags.text("--out"), Some("a b"));
        assert!(flags.on("--quick"));

        let none = parse(&[]).unwrap();
        assert_eq!(none.int("--seed").unwrap_or(42), 42);
        assert_eq!(none.float("--scale"), None);
        assert_eq!(none.text("--out"), None);
        assert!(!none.on("--quick"));
    }

    #[test]
    fn bad_command_lines_are_one_line_errors_never_panics() {
        for (args, error) in [
            // A value flag given last used to index past the end of argv.
            (&["--quick", "--seed"][..], "missing value for --seed"),
            (&["--scale"], "missing value for --scale"),
            (&["--out"], "missing value for --out"),
            (&["--seed", "x1"], "--seed takes an integer, got \"x1\""),
            (&["--seed", "-3"], "--seed takes an integer, got \"-3\""),
            (&["--scale", "fast"], "--scale takes a number, got \"fast\""),
            (
                &["--scale", "inf"],
                "--scale takes a finite number > 0, got \"inf\"",
            ),
            (
                &["--scale", "nan"],
                "--scale takes a finite number > 0, got \"nan\"",
            ),
            (
                &["--scale", "0"],
                "--scale takes a finite number > 0, got \"0\"",
            ),
            (
                &["--scale", "-1"],
                "--scale takes a finite number > 0, got \"-1\"",
            ),
            (&["--sede", "7"], "unknown argument --sede"),
            (&["--quick", "stray"], "unknown argument stray"),
        ] {
            assert_eq!(parse(args).unwrap_err(), error, "{args:?}");
        }
    }

    #[test]
    fn a_float_flag_takes_any_finite_number_above_zero() {
        for value in ["1e-9", "0.05", "1", "1e300"] {
            let flags = parse(&["--scale", value]).unwrap();
            assert_eq!(flags.float("--scale"), value.parse().ok(), "{value}");
        }
    }

    #[test]
    fn a_value_is_never_read_as_a_flag_and_a_repeat_keeps_the_last() {
        let flags = parse(&["--out", "--quick", "--seed", "1", "--seed", "2"]).unwrap();
        assert_eq!(flags.text("--out"), Some("--quick"));
        assert!(!flags.on("--quick"));
        assert_eq!(flags.int("--seed"), Some(2));
    }
}
