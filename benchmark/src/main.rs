//! `lqs-benchmark` — the repo's end-to-end and per-layer ledger.
//!
//! ```text
//! lqs-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1|FILE]
//!               [--repeat N] [--out FILE]
//! lqs-benchmark compare <a.json> <b.json>
//! lqs-benchmark manifest | glossary
//! ```
//!
//! One run drives one workload, checks its outputs, prints every metric
//! by name with its unit and, as the last line of stdout, one JSON object
//! `{correct, attempted, failed, metrics}`. See `README.md`.

mod ledger;
mod promtext;
mod report;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: lqs-benchmark --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1|FILE] [--repeat N] [--out FILE]
       lqs-benchmark compare <a.json> <b.json>
       lqs-benchmark manifest | glossary";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: String,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: f64::from(ledger::RUN_SECONDS),
        trace: "0".into(),
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.clone(),
            "--repeat" => a.repeat = value.parse().map_err(|_| bad())?,
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let known = a.workload == "all" || ledger::WORKLOADS.iter().any(|w| w.name == a.workload);
    if !known {
        let names: Vec<_> = ledger::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be all or one of {}",
            names.join(", ")
        ));
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) || a.repeat == 0 {
        return Err("--seconds must be in (0, 60] and --repeat at least 1".into());
    }
    Ok(a)
}

/// Where everything the benchmark writes goes: `lqs-benchmark/` in the
/// build's target directory (`<target>/release/lqs-benchmark` is the
/// executable).
fn home() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_owned()))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("lqs-benchmark")
}

/// One run of one workload in this process.
fn run_one(a: &Args) -> Result<bool, String> {
    let workload = ledger::WORKLOADS
        .iter()
        .find(|w| w.name == a.workload)
        .expect("checked by parse");
    let trace = match a.trace.as_str() {
        "0" => None,
        "1" => Some(home().join(format!("trace-{}.json", workload.name))),
        file => Some(PathBuf::from(file)),
    };
    let scratch = home().join(format!("run-{}", std::process::id()));
    let params = workloads::Params {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace,
        scratch: scratch.clone(),
    };
    let ran = std::fs::create_dir_all(&scratch).and_then(|()| workloads::run(&params));
    let _ = std::fs::remove_dir_all(&scratch);
    let out = ran.map_err(|e| format!("{}: {e}", workload.name))?;
    if let Some(path) = &a.out {
        let all = BTreeMap::from([(workload.name.to_owned(), report::Runs::of(&out))]);
        std::fs::write(path, report::results_json(&all)).map_err(|e| e.to_string())?;
    }
    print!("{}", report::human(&params, &out));
    println!("{}", report::result_json(&params, &out)?);
    Ok(out.correct())
}

/// `--repeat N` / `--workload all`: every run in a process of its own (so
/// set-up and peak memory are each run's own) that hands everything it
/// measured back through `--out`; then medians, quartiles and the
/// exact-metric check. The workloads take turns, so a slow spell of the
/// machine lands on one run of each instead of every run of one.
fn run_many(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let handed_back = home().join(format!("results-{}.json", std::process::id()));
    let mut all: BTreeMap<String, report::Runs> = BTreeMap::new();
    let mut ok = true;
    for i in 0..a.repeat {
        for w in &ledger::WORKLOADS {
            if a.workload != "all" && a.workload != w.name {
                continue;
            }
            let child = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", &a.trace])
                .arg("--out")
                .arg(&handed_back)
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start run {i} of {}: {e}", w.name))?;
            if !child.status.success() {
                print!("{}", String::from_utf8_lossy(&child.stdout));
                ok = false;
            }
            let one = std::fs::read_to_string(&handed_back)
                .map_err(|e| e.to_string())
                .and_then(|text| report::parse_results(&text))
                .and_then(|mut one| one.remove(w.name).ok_or("no results".to_owned()))
                .map_err(|e| format!("run {i} of {}: {e}", w.name))?;
            let _ = std::fs::remove_file(&handed_back);
            all.entry(w.name.to_owned()).or_default().merge(one);
        }
    }
    for (workload, runs) in &all {
        print!("{}", runs.summary(workload));
        for name in runs.inexact() {
            println!("  EXACT METRIC MOVED between runs: {name}");
            ok = false;
        }
        ok &= runs.correct;
    }
    if let Some(path) = &a.out {
        std::fs::write(path, report::results_json(&all)).map_err(|e| e.to_string())?;
    }
    Ok(ok)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| report::parse_results(&text))
    };
    let (report, same) = report::compare(&read(a)?, &read(b)?);
    print!("{report}");
    println!(
        "{}",
        if same {
            "every metric x workload is inside its bound"
        } else {
            "NOT every metric x workload is inside its bound"
        }
    );
    Ok(same)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("manifest") if args.len() == 1 => {
            print!("{}", ledger::manifest_json());
            Ok(true)
        }
        Some("glossary") if args.len() == 1 => {
            print!("{}", ledger::glossary_markdown());
            Ok(true)
        }
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => parse(&args).and_then(|a| {
            if a.repeat > 1 || a.workload == "all" {
                run_many(&a)
            } else {
                run_one(&a)
            }
        }),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lqs-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
