//! The selectors that replaced binary names: `paper --only` / `--list`,
//! `lqs_smoke --scene`, `lqs_soak --scene`.

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
