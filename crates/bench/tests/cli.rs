//! The selectors that replaced binary names (`paper --only` / `--list`,
//! `lqs_smoke --scene`, `lqs_soak --scene`) and the flag values a binary
//! refuses because they leave nothing to measure.

use std::process::Command;

#[test]
fn an_unknown_selection_exits_2_and_lists_the_valid_names_once_each() {
    for (exe, flag, count) in [
        (env!("CARGO_BIN_EXE_paper"), "--only", 16),
        (env!("CARGO_BIN_EXE_lqs_smoke"), "--scene", 5),
        (env!("CARGO_BIN_EXE_lqs_soak"), "--scene", 3),
    ] {
        let out = Command::new(exe).args([flag, "nope"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{exe}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let (error, usage) = stderr.split_once('\n').expect("error line, then usage");
        assert!(usage.starts_with("usage: "), "{stderr}");
        let (_, valid) = error.split_once("nope is not one of: ").expect(error);
        let mut names: Vec<&str> = valid.split(", ").collect();
        assert_eq!(names.len(), count, "{error}");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is listed twice: {error}");
    }
}

#[test]
fn paper_list_prints_the_sixteen_experiments() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("--list")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), 16, "{stdout}");
    assert_eq!((names[0], names[15]), ("fig08", "ensemble-real"));
}

#[test]
fn paper_refuses_zero_queries_with_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(["--only", "fig14", "--queries", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let (error, usage) = stderr.split_once('\n').expect("error line, then usage");
    assert_eq!(error, "paper: --queries 0 leaves nothing to measure");
    assert!(usage.starts_with("usage: paper "), "{stderr}");
}

#[test]
fn paper_refuses_a_scale_it_cannot_honour() {
    // `inf` used to build data forever; `0` and `-1` printed tables built
    // at the generators' row floor as if the scale had been honoured.
    for scale in ["inf", "nan", "0", "-1"] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper"))
            .args(["--only", "table1", "--scale", scale, "--queries", "2"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        assert!(out.stdout.is_empty(), "--scale {scale}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let expected = format!("paper: --scale takes a finite number > 0, got \"{scale}\"\n");
        assert!(stderr.starts_with(&expected), "{stderr}");
    }
}

/// Zero rows or zero reps time nothing, and the NaN ratios they would read
/// must never reach a gate (or a baseline written with `--out`).
fn engine_bench_refuses(args: &[&str], flag: &str) {
    let exe = env!("CARGO_BIN_EXE_lqs_engine_bench");
    let out = Command::new(exe).args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    let (error, usage) = stderr.split_once('\n').expect("error line, then usage");
    let expected = format!("lqs_engine_bench: {flag} 0 leaves nothing to measure");
    assert_eq!(error, expected);
    assert!(usage.starts_with("usage: lqs_engine_bench "), "{stderr}");
}

#[test]
fn engine_bench_refuses_zero_reps_with_the_usage() {
    engine_bench_refuses(&["--reps", "0", "--rows", "1000"], "--reps");
}

#[test]
fn engine_bench_refuses_zero_rows_with_the_usage() {
    engine_bench_refuses(&["--rows", "0", "--reps", "1"], "--rows");
}
