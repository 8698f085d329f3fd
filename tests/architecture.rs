//! The workspace's structural rules and tracked counters, from one sorted
//! walk of `crates/`.
//!
//! Each rule is one row of [`RULES`]: the text, path or dependency that must
//! not appear, where the rule looks, what it lets stand, why, and the commit
//! that introduced it. The same walk renders every counter into
//! `tests/golden/counters.txt`, so a change that moves a counter shows the
//! move in that file's diff. When the move is meant, the failure message
//! ends with the whole rendered file: paste it over the golden.
//!
//! "Non-test code" has one meaning here ([`code_lines`]), and nothing
//! below reads `benchmark/`.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// A file or directory, named by its path from the repository root with
/// `/` separators. A directory has no text.
struct Entry {
    path: String,
    text: Option<String>,
}

enum Pattern {
    /// The path must not exist.
    Exists,
    /// No line contains any of these.
    Text(&'static [&'static str]),
    /// No line of non-test code contains any of these.
    Code(&'static [&'static str]),
    /// The crate of this `Cargo.toml` does not reach the named crate
    /// through `[dependencies]`, directly or transitively; each hit is the
    /// line of the dependency it is reached through. `[dev-dependencies]`
    /// do not count: tests may execute plans.
    Reaches(&'static str),
}

struct Rule {
    name: &'static str,
    pattern: Pattern,
    /// Path prefixes the rule reads, compared segment by segment; `*`
    /// stands for any one segment.
    scope: &'static [&'static str],
    /// Hits that stand: a path prefix, or `path:line` for one exact line.
    allowed: &'static [&'static str],
    reason: &'static str,
    /// The commit that introduced the rule, or until it has one, what that
    /// change did.
    since: &'static str,
}

const RULES: &[Rule] = &[
    Rule {
        name: "no criterion",
        pattern: Pattern::Exists,
        scope: &["crates/bench/benches", "vendor/criterion"],
        allowed: &[],
        reason: "lqs_engine_bench is the one timing harness",
        since: "3fbd364",
    },
    Rule {
        name: "no unsafe",
        pattern: Pattern::Text(&["unsafe {", "unsafe fn", "unsafe impl"]),
        scope: &["crates"],
        allowed: &[],
        reason: "the workspace is safe code",
        since: "4b36a3e",
    },
    Rule {
        name: "only Node stamps open and close",
        pattern: Pattern::Text(&["ctx.mark_open(", "ctx.mark_close("]),
        scope: &["crates/exec/src/ops"],
        allowed: &["crates/exec/src/ops/node.rs"],
        reason: "Node<B> owns every operator's open / exhaust / close / rewind bookkeeping",
        since: "ee6f8d1",
    },
    Rule {
        name: "telemetry is never off",
        pattern: Pattern::Text(&[
            "Option<ServiceMetrics",
            "Option<PollerMetrics",
            "Option<JournalMetrics",
            "Option<Arc<ServiceMetrics",
            "Option<Arc<PollerMetrics",
            "Option<Arc<JournalMetrics",
            "Option<Arc<MetricsRegistry>>",
        ]),
        scope: &["crates/server/src", "crates/journal/src"],
        allowed: &[],
        reason: "every component records into a metrics handle from construction",
        since: "12c34cb",
    },
    Rule {
        name: "one optional history handle",
        pattern: Pattern::Text(&["Option<HistoryMetrics>"]),
        scope: &["crates/server/src", "crates/journal/src"],
        allowed: &["crates/server/src/http.rs:    pub metrics: Option<HistoryMetrics>,"],
        reason: "the benchmark ledger builds HistoryEndpoints literally (ROADMAP item 1B)",
        since: "12c34cb",
    },
    Rule {
        name: "no poison panics",
        pattern: Pattern::Text(&["poisoned\")"]),
        scope: &["crates/*/src"],
        allowed: &["crates/chaos"],
        reason:
            "a poisoned lock is recovered or answered with an error, outside the fault injector",
        since: "1e196fc",
    },
    Rule {
        name: "one session lifecycle",
        pattern: Pattern::Text(&["fn set_state", "fn install_result", "Completed(Box<"]),
        scope: &["crates/server/src"],
        allowed: &[],
        reason: "a session's state derives from its result; start and finish are the transitions",
        since: "1e196fc",
    },
    Rule {
        name: "a session handle is built whole",
        pattern: Pattern::Text(&["OnceLock", "fn attach_"]),
        scope: &["crates/server/src"],
        allowed: &[],
        reason: "submit decides everything a session runs under before it builds the handle",
        since: "e38b466",
    },
    Rule {
        name: "directory readers fold one session at a time",
        pattern: Pattern::Code(&["scan_dir("]),
        scope: &[
            "crates/history/src",
            "crates/server/src",
            "crates/chaos/src",
        ],
        allowed: &[],
        reason: "scan_history and recovery fold over walk_dir; scan_dir holds the whole directory",
        since: "2be274f",
    },
    Rule {
        name: "the estimator builds without the engine",
        pattern: Pattern::Reaches("lqs-exec"),
        scope: &[
            "crates/progress/Cargo.toml",
            "crates/journal/Cargo.toml",
            "crates/history/Cargo.toml",
            "crates/prof/Cargo.toml",
        ],
        allowed: &[],
        reason: "the client side reads only the showplan and the DMV rows, which lqs-plan holds",
        since: "the DMV contract moved into lqs-plan",
    },
];

#[derive(Debug, PartialEq)]
struct Violation {
    rule: &'static str,
    path: String,
    /// 1-based; 0 when the path itself is the violation.
    line: usize,
}

fn root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn names(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root().join(dir))
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

fn walk(dir: &str, tree: &mut Vec<Entry>) {
    for name in names(dir) {
        let path = format!("{dir}/{name}");
        if root().join(&path).is_dir() {
            tree.push(Entry {
                path: path.clone(),
                text: None,
            });
            walk(&path, tree);
        } else {
            let text = Some(read(&path));
            tree.push(Entry { path, text });
        }
    }
}

/// Everything under `crates/`, plus `vendor/`'s entries one level deep.
fn tree() -> Vec<Entry> {
    let mut tree = Vec::new();
    walk("crates", &mut tree);
    tree.extend(names("vendor").into_iter().map(|name| Entry {
        path: format!("vendor/{name}"),
        text: None,
    }));
    tree
}

fn under(path: &str, prefix: &str) -> bool {
    let mut segments = path.split('/');
    prefix
        .split('/')
        .all(|p| segments.next().is_some_and(|s| p == "*" || p == s))
}

fn parent(path: &str) -> &str {
    path.rsplit_once('/').map_or("", |(dir, _)| dir)
}

/// How many lines of `text` are non-test code: those above a
/// `#[cfg(test)]` line directly on top of a column-0 `mod tests`, or all
/// of them.
fn code_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    lines
        .windows(2)
        .position(|w| w[0] == "#[cfg(test)]" && w[1].starts_with("mod tests"))
        .unwrap_or(lines.len())
}

fn is_allowed(rule: &Rule, path: &str, line: &str) -> bool {
    rule.allowed.iter().any(|a| match a.split_once(':') {
        Some((p, l)) => p == path && l == line,
        None => under(path, a),
    })
}

/// The `[dependencies]` of a `Cargo.toml`: each crate's 1-based line and
/// name, in the `name… = …` form or the `[dependencies.name]` form.
fn dependencies(toml: &str) -> Vec<(usize, &str)> {
    let mut section = "";
    let mut deps = Vec::new();
    for (i, line) in toml.lines().enumerate() {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header;
            if let Some(name) = header.strip_prefix("dependencies.") {
                deps.push((i + 1, name));
            }
        } else if section == "dependencies" {
            let name = line.split(['.', '=', ' ']).next().unwrap_or_default();
            if !name.is_empty() && !name.starts_with('#') {
                deps.push((i + 1, name));
            }
        }
    }
    deps
}

/// Whether crate `from` is `target` or reaches it through the
/// `[dependencies]` of the `crates/*/Cargo.toml` files in `tree`.
fn reaches(tree: &[Entry], from: &str, target: &str, seen: &mut BTreeSet<String>) -> bool {
    if from == target {
        return true;
    }
    if !seen.insert(from.to_string()) {
        return false;
    }
    let package = format!("name = \"{from}\"");
    let manifest = tree.iter().find_map(|e| {
        let text = e.text.as_deref()?;
        (under(&e.path, "crates/*/Cargo.toml") && text.lines().any(|l| l == package))
            .then_some(text)
    });
    manifest.is_some_and(|text| {
        dependencies(text)
            .into_iter()
            .any(|(_, dep)| reaches(tree, dep, target, seen))
    })
}

fn violations(tree: &[Entry]) -> Vec<Violation> {
    let mut found = Vec::new();
    for entry in tree {
        for rule in RULES
            .iter()
            .filter(|r| r.scope.iter().any(|s| under(&entry.path, s)))
        {
            let (needles, code_only) = match rule.pattern {
                Pattern::Exists => {
                    found.push(Violation {
                        rule: rule.name,
                        path: entry.path.clone(),
                        line: 0,
                    });
                    continue;
                }
                Pattern::Reaches(target) => {
                    for (line, dep) in dependencies(entry.text.as_deref().unwrap_or_default()) {
                        if reaches(tree, dep, target, &mut BTreeSet::new()) {
                            found.push(Violation {
                                rule: rule.name,
                                path: entry.path.clone(),
                                line,
                            });
                        }
                    }
                    continue;
                }
                Pattern::Text(needles) => (needles, false),
                Pattern::Code(needles) => (needles, true),
            };
            let Some(text) = entry.text.as_deref() else {
                continue;
            };
            let lines = if code_only {
                code_lines(text)
            } else {
                usize::MAX
            };
            for (i, line) in text.lines().take(lines).enumerate() {
                if needles.iter().any(|n| line.contains(n)) && !is_allowed(rule, &entry.path, line)
                {
                    found.push(Violation {
                        rule: rule.name,
                        path: entry.path.clone(),
                        line: i + 1,
                    });
                }
            }
        }
    }
    found
}

/// `word` occurs in `text` with no letter, digit or `_` on either side.
fn has_word(text: &str, word: &str) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        !text[..at].chars().next_back().is_some_and(is_word)
            && !text[at + word.len()..].chars().next().is_some_and(is_word)
    })
}

/// A library `pub` item line: `pub fn|struct|enum|trait|type|const|static`
/// after leading whitespace.
fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub ") else {
        return false;
    };
    ["fn", "struct", "enum", "trait", "type", "const", "static"]
        .iter()
        .any(|kw| {
            rest.strip_prefix(kw)
                .is_some_and(|after| !after.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
        })
}

/// `pub` fields of the `pub struct …Config` and `…Options` items in the
/// non-test code of `text`: the settings a caller can set.
fn settings_fields(text: &str) -> usize {
    let mut in_settings = false;
    let mut fields = 0;
    for line in text.lines().take(code_lines(text)) {
        if in_settings {
            if line.starts_with('}') {
                in_settings = false;
            } else if line.trim_start().starts_with("pub ") {
                fields += 1;
            }
        } else if let Some(name) = line
            .strip_prefix("pub struct ")
            .and_then(|rest| rest.strip_suffix(" {"))
        {
            in_settings = name.ends_with("Config") || name.ends_with("Options");
        }
    }
    fields
}

fn counters(tree: &[Entry], ci: &str) -> String {
    let files = |scope: &'static [&'static str]| {
        tree.iter()
            .filter(move |e| scope.iter().any(|s| under(&e.path, s)))
            .filter_map(|e| Some((e.path.as_str(), e.text.as_deref()?)))
    };
    let lines = |scope: &'static [&'static str], hit: &dyn Fn(&str) -> bool| -> usize {
        files(scope)
            .map(|(_, text)| text.lines().filter(|l| hit(l)).count())
            .sum()
    };
    let children = |dir: &str| tree.iter().filter(|e| parent(&e.path) == dir).count();
    let rs = |path: &str| path.ends_with(".rs");
    let format_version = read("crates/journal/src/record.rs")
        .lines()
        .find_map(|l| l.strip_prefix("pub const FORMAT_VERSION: u16 = "))
        .expect("FORMAT_VERSION in crates/journal/src/record.rs")
        .trim_end_matches(';')
        .to_string();
    let progress_deps = dependencies(&read("crates/progress/Cargo.toml"))
        .into_iter()
        .filter(|(_, name)| name.starts_with("lqs-"))
        .count();

    let rows = [
        (
            "*.rs lines under crates/",
            files(&["crates"])
                .filter(|(p, _)| rs(p))
                .map(|(_, t)| t.matches('\n').count())
                .sum::<usize>()
                .to_string(),
        ),
        (
            "non-test lines of *.rs under crates/*/src",
            files(&["crates/*/src"])
                .filter(|(p, _)| rs(p))
                .map(|(_, t)| code_lines(t))
                .sum::<usize>()
                .to_string(),
        ),
        (
            "non-test lines of crates/exec/src/ops/*.rs",
            files(&["crates/exec/src/ops"])
                .filter(|(p, _)| rs(p) && parent(p) == "crates/exec/src/ops")
                .map(|(_, t)| code_lines(t))
                .sum::<usize>()
                .to_string(),
        ),
        (
            "entries in crates/bench/src/bin",
            children("crates/bench/src/bin").to_string(),
        ),
        (
            "library pub items (pub fn|struct|enum|trait|type|const|static)",
            lines(&["crates/*/src"], &is_pub_item).to_string(),
        ),
        ("crates", children("crates").to_string()),
        ("vendored crates", children("vendor").to_string()),
        (
            ".github/workflows/ci.yml lines",
            ci.matches('\n').count().to_string(),
        ),
        (
            ".github/workflows/ci.yml lines with `exit 1`",
            ci.lines()
                .filter(|l| l.contains("exit 1"))
                .count()
                .to_string(),
        ),
        (
            "files naming the word ExecMode",
            files(&["crates"])
                .filter(|(_, t)| has_word(t, "ExecMode"))
                .count()
                .to_string(),
        ),
        (
            "snapshot_contention lines",
            lines(&["crates"], &|l| l.contains("snapshot_contention")).to_string(),
        ),
        (
            "plan resolver traits",
            lines(&["crates"], &|l| {
                l.contains("trait PlanResolver") || l.contains("trait HistoryResolver")
            })
            .to_string(),
        ),
        ("journal FORMAT_VERSION", format_version),
        (
            "`pub fn with_` in crates/{server,journal}/src",
            lines(&["crates/server/src", "crates/journal/src"], &|l| {
                l.contains("pub fn with_")
            })
            .to_string(),
        ),
        (
            "`pub` fields of `pub struct …Config` / `…Options` in crates/*/src",
            files(&["crates/*/src"])
                .filter(|(p, _)| rs(p))
                .map(|(_, t)| settings_fields(t))
                .sum::<usize>()
                .to_string(),
        ),
        (
            "eprintln! outside crates/bench",
            files(&["crates"])
                .filter(|(p, _)| !under(p, "crates/bench"))
                .map(|(_, t)| t.lines().filter(|l| l.contains("eprintln!")).count())
                .sum::<usize>()
                .to_string(),
        ),
        (
            "push_one / pull_one in crates/exec/src",
            lines(&["crates/exec/src"], &|l| {
                l.contains("push_one") || l.contains("pull_one")
            })
            .to_string(),
        ),
        (
            "lqs- [dependencies] of crates/progress",
            progress_deps.to_string(),
        ),
        (
            "expect / unwrap in non-test, non-comment crates/{server,journal,history}/src",
            files(&[
                "crates/server/src",
                "crates/journal/src",
                "crates/history/src",
            ])
            .filter(|(p, _)| rs(p))
            .map(|(_, t)| {
                t.lines()
                    .take(code_lines(t))
                    .filter(|l| !l.trim_start().starts_with("//"))
                    .filter(|l| l.contains(".expect(") || l.contains(".unwrap()"))
                    .count()
            })
            .sum::<usize>()
            .to_string(),
        ),
    ];
    rows.iter()
        .map(|(name, value)| format!("{value:>6}  {name}\n"))
        .collect()
}

/// Every line of `actual` that differs from `golden`, then `actual` whole.
fn golden_mismatch(golden: &str, actual: &str) -> String {
    let (old, new): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let mut msg = String::from("tests/golden/counters.txt is not what the tree counts:\n");
    for i in 0..old.len().max(new.len()) {
        if old.get(i) != new.get(i) {
            if let Some(l) = old.get(i) {
                msg += &format!("- {l}\n");
            }
            if let Some(l) = new.get(i) {
                msg += &format!("+ {l}\n");
            }
        }
    }
    msg + "\nThe whole file, to paste over the golden if the move is meant:\n" + actual
}

#[test]
fn rules_hold_and_counters_match_the_golden() {
    let tree = tree();
    let mut failures = String::new();
    for v in violations(&tree) {
        let rule = RULES
            .iter()
            .find(|r| r.name == v.rule)
            .expect("a rule of the table");
        failures += &format!(
            "{}:{}: {} (since {}): {}\n",
            v.path, v.line, rule.name, rule.since, rule.reason
        );
    }
    // A missing golden reads as empty, so the failure prints a whole one.
    let golden = fs::read_to_string(root().join("tests/golden/counters.txt")).unwrap_or_default();
    let actual = counters(&tree, &read(".github/workflows/ci.yml"));
    if golden != actual {
        failures += &golden_mismatch(&golden, &actual);
    }
    assert!(failures.is_empty(), "\n{failures}");
}

/// Four-decimal numbers in `text`, such as `0.0276`.
fn four_decimals(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_digit() && c != '.')
        .filter(|t| {
            t.split_once('.').is_some_and(|(int, frac)| {
                !int.is_empty()
                    && frac.len() == 4
                    && int.bytes().chain(frac.bytes()).all(|b| b.is_ascii_digit())
            })
        })
}

/// EXPERIMENTS.md's §5 tables (from `## Figure 8` to `## Extensions beyond
/// the paper`) quote only numbers the full paper run prints.
#[test]
fn experiments_tables_quote_the_full_run() {
    let golden = read("tests/golden/paper_full.txt");
    let printed: BTreeSet<&str> = four_decimals(&golden).collect();
    let doc = read("EXPERIMENTS.md");
    let mut in_span = false;
    let mut missing = String::new();
    for (i, line) in doc.lines().enumerate() {
        if line.starts_with("## ") {
            in_span = (in_span || line.starts_with("## Figure 8"))
                && !line.starts_with("## Extensions beyond the paper");
        }
        if in_span && line.starts_with('|') {
            for n in four_decimals(line).filter(|n| !printed.contains(n)) {
                missing += &format!("EXPERIMENTS.md:{}: {n}\n", i + 1);
            }
        }
    }
    assert!(
        missing.is_empty(),
        "not in tests/golden/paper_full.txt:\n{missing}"
    );
}

/// The rows of the full run's section headed `== {title}`: every line up to
/// the next blank line or section header, the column header included.
fn full_run_section<'a>(golden: &'a str, title: &str) -> Vec<&'a str> {
    golden
        .lines()
        .skip_while(|l| !l.starts_with(&format!("== {title}")))
        .skip(1)
        .take_while(|l| !l.is_empty() && !l.starts_with("=="))
        .collect()
}

/// A row's leading name and its trailing `n` columns, `-` read as `None`.
fn split_row(row: &str, n: usize) -> (String, Vec<Option<f64>>) {
    let tokens: Vec<&str> = row.split_whitespace().collect();
    let (name, values) = tokens.split_at(tokens.len() - n);
    let values = values.iter().map(|v| v.parse().ok()).collect();
    (name.join(" "), values)
}

/// DESIGN.md §7's shapes for Figures 14, 18 and 20, as the full run meets
/// them, deviations included (ROADMAP item 10 explains or fixes those):
/// moving one is a change to this test and to §7.
#[test]
fn design_shapes_hold_on_the_full_run() {
    let golden = read("tests/golden/paper_full.txt");

    // F14: No Refinement, Bounding only, Bounding + Refinement, queries.
    let f14: Vec<(String, Vec<Option<f64>>)> = full_run_section(&golden, "Figure 14")
        .into_iter()
        .skip(1)
        .map(|row| split_row(row, 4))
        .collect();
    let workloads = |keep: &dyn Fn(f64, f64, f64) -> bool| -> BTreeSet<String> {
        f14.iter()
            .filter(|(_, v)| keep(v[0].unwrap(), v[1].unwrap(), v[2].unwrap()))
            .map(|(name, _)| name.clone())
            .collect()
    };
    let set =
        |names: &[&str]| -> BTreeSet<String> { names.iter().map(|n| n.to_string()).collect() };
    assert_eq!(f14.len(), 5, "{f14:?}");
    assert_eq!(
        workloads(&|none, bound, both| both < none && both < bound),
        set(&["REAL-1", "REAL-2", "REAL-3", "TPC-H"]),
        "F14: bounding + refinement wins"
    );
    let tpcds = &f14.iter().find(|(name, _)| name == "TPC-DS").unwrap().1;
    assert_eq!(
        (tpcds[0], tpcds[2]),
        (Some(0.0640), Some(0.0737)),
        "F14 TPC-DS"
    );
    assert_eq!(
        workloads(&|none, bound, _| bound > none),
        set(&["REAL-1", "REAL-2", "TPC-DS", "TPC-H"]),
        "F14: bounding alone is worse"
    );

    // F18: row design, then columnstore.
    let f18: Vec<Option<f64>> = full_run_section(&golden, "Figure 18")
        .into_iter()
        .map(|row| split_row(row, 1).1[0])
        .collect();
    assert_eq!(f18, [Some(0.0892), Some(0.0342)], "F18");

    // F20: operator, row design, columnstore.
    let worse: BTreeSet<String> = full_run_section(&golden, "Figure 20")
        .into_iter()
        .map(|row| split_row(row, 2))
        .filter_map(|(op, v)| match (v[0], v[1]) {
            (Some(row), Some(columnstore)) if columnstore > row => Some(op),
            _ => None,
        })
        .collect();
    assert_eq!(
        worse,
        set(&[
            "Bitmap Create",
            "Filter",
            "Hash Match (Aggregate)",
            "Sort",
            "Table Scan"
        ]),
        "F20: operators worse under columnstore"
    );
}

/// What the checker finds in [`seeded_entry`]'s file alone, and the new
/// line's number.
fn seeded(path: &str, after: &str, line: &str) -> (Vec<Violation>, usize) {
    let (entry, at) = seeded_entry(path, after, line);
    (violations(&[entry]), at)
}

/// [`seeded`], with the seeded file in place of the real one in the whole
/// tree.
fn seeded_in_tree(path: &str, after: &str, line: &str) -> (Vec<Violation>, usize) {
    let (entry, at) = seeded_entry(path, after, line);
    let mut tree = tree();
    *tree
        .iter_mut()
        .find(|e| e.path == path)
        .expect("a file of the tree") = entry;
    (violations(&tree), at)
}

/// The real file at `path` with `line` inserted after the first line that
/// contains `after`, and the new line's number.
fn seeded_entry(path: &str, after: &str, line: &str) -> (Entry, usize) {
    let text = read(path);
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains(after))
        .expect("anchor line")
        + 1;
    lines.insert(at, line);
    let entry = Entry {
        path: path.to_string(),
        text: Some(lines.join("\n")),
    };
    (entry, at + 1)
}

fn only(rule: &'static str, path: &str, line: usize) -> Vec<Violation> {
    vec![Violation {
        rule,
        path: path.to_string(),
        line,
    }]
}

#[test]
fn seeded_criterion_bench_is_caught() {
    let bench = Entry {
        path: "crates/bench/benches/engine.rs".to_string(),
        text: Some(read("crates/bench/src/bin/lqs_engine_bench.rs")),
    };
    let vendored = Entry {
        path: "vendor/criterion".to_string(),
        text: None,
    };
    assert_eq!(
        violations(&[bench]),
        only("no criterion", "crates/bench/benches/engine.rs", 0)
    );
    assert_eq!(
        violations(&[vendored]),
        only("no criterion", "vendor/criterion", 0)
    );
}

#[test]
fn seeded_unsafe_is_caught() {
    let path = "crates/storage/src/btree.rs";
    for line in [
        "        let k = unsafe { *keys.get_unchecked(i) };",
        "unsafe fn raw() {}",
        "unsafe impl Sync for BTreeIndex {}",
    ] {
        let (found, at) = seeded(path, "pub struct BTreeIndex {", line);
        assert_eq!(found, only("no unsafe", path, at), "{line}");
    }
}

#[test]
fn seeded_stamp_outside_node_is_caught() {
    let path = "crates/exec/src/ops/sort.rs";
    let (found, at) = seeded(path, "fn produce(", "        ctx.mark_open(id);");
    assert_eq!(found, only("only Node stamps open and close", path, at));
    let (found, _) = seeded(
        "crates/exec/src/ops/node.rs",
        "fn produce(",
        "        ctx.mark_close(id);",
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn seeded_optional_metrics_handle_is_caught() {
    let path = "crates/server/src/service.rs";
    let (found, at) = seeded(
        path,
        "pub struct QueryService {",
        "    metrics: Option<Arc<ServiceMetrics>>,",
    );
    assert_eq!(found, only("telemetry is never off", path, at));
}

#[test]
fn seeded_second_history_handle_is_caught() {
    let path = "crates/server/src/http.rs";
    let (found, at) = seeded(
        path,
        "pub metrics: Option<HistoryMetrics>,",
        "    pub fallback: Option<HistoryMetrics>,",
    );
    assert_eq!(found, only("one optional history handle", path, at));
    let http = Entry {
        path: path.to_string(),
        text: Some(read(path)),
    };
    let found = violations(&[http]);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn seeded_poison_panic_is_caught() {
    let line = "        let g = self.inner.lock().expect(\"registry poisoned\");";
    let path = "crates/server/src/registry.rs";
    let (found, at) = seeded(path, "pub fn sessions(&self)", line);
    assert_eq!(found, only("no poison panics", path, at));
    let (found, _) = seeded("crates/chaos/src/soak.rs", "pub fn run_soak(", line);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn seeded_second_transition_is_caught() {
    let path = "crates/server/src/session.rs";
    let (found, at) = seeded(
        path,
        "pub struct SessionHandle {",
        "    fn set_state(&self, state: SessionState) {}",
    );
    assert_eq!(found, only("one session lifecycle", path, at));
}

#[test]
fn seeded_late_bound_field_is_caught() {
    let path = "crates/server/src/session.rs";
    let (found, at) = seeded(
        path,
        "pub struct SessionHandle {",
        "    journal: OnceLock<SessionJournal>,",
    );
    assert_eq!(found, only("a session handle is built whole", path, at));
}

#[test]
fn seeded_collecting_read_is_caught_above_the_tests_only() {
    let path = "crates/history/src/scan.rs";
    let line = "    let sessions = lqs_journal::scan_dir(dir)?;";
    let (found, at) = seeded(path, "pub fn scan_history(", line);
    assert_eq!(
        found,
        only("directory readers fold one session at a time", path, at)
    );
    let (found, _) = seeded(path, "mod tests {", line);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn seeded_engine_dependency_is_caught_directly_and_transitively() {
    let rule = "the estimator builds without the engine";
    let path = "crates/prof/Cargo.toml";
    let (found, at) = seeded_in_tree(path, "[dependencies]", "lqs-exec.workspace = true");
    assert_eq!(found, only(rule, path, at));
    let (found, at) = seeded_in_tree(path, "lqs-plan.workspace", "[dependencies.lqs-exec]");
    assert_eq!(found, only(rule, path, at));

    // Every client crate reaches lqs-storage; each is hit on the line of
    // the dependency that leads there.
    let (found, _) = seeded_in_tree(
        "crates/storage/Cargo.toml",
        "[dependencies]",
        "lqs-exec = { path = \"../exec\" }",
    );
    let hits: Vec<String> = found
        .iter()
        .map(|v| {
            let toml = read(&v.path);
            let (_, dep) = dependencies(&toml)
                .into_iter()
                .find(|(line, _)| *line == v.line)
                .expect("a dependency line");
            format!("{} {dep}", v.path)
        })
        .collect();
    assert_eq!(
        hits,
        [
            "crates/history/Cargo.toml lqs-journal",
            "crates/history/Cargo.toml lqs-plan",
            "crates/history/Cargo.toml lqs-progress",
            "crates/history/Cargo.toml lqs-storage",
            "crates/journal/Cargo.toml lqs-plan",
            "crates/prof/Cargo.toml lqs-plan",
            "crates/progress/Cargo.toml lqs-storage",
            "crates/progress/Cargo.toml lqs-plan",
        ]
    );
}

/// The client crates' own `lqs-exec` dev-dependencies (lqs-journal's tests
/// execute no plan and have none), lqs-plan's `[dev-dependencies.lqs-exec]`
/// under all four, and one seeded under lqs-storage's `[dev-dependencies]`
/// are not followed.
#[test]
fn engine_dev_dependencies_are_not_followed() {
    for path in [
        "crates/progress/Cargo.toml",
        "crates/history/Cargo.toml",
        "crates/prof/Cargo.toml",
    ] {
        let toml = read(path);
        let (_, dev) = toml
            .split_once("[dev-dependencies]")
            .expect("a dev section");
        assert!(dev.contains("lqs-exec.workspace = true"), "{path}");
    }
    let (found, _) = seeded_in_tree(
        "crates/storage/Cargo.toml",
        "[dev-dependencies]",
        "lqs-exec.workspace = true",
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn settings_fields_count_pub_fields_of_settings_structs_above_the_tests() {
    let text = "pub struct ServerConfig {\n    /// Doc.\n    pub history: u8,\n    pub(crate) hidden: u8,\n}\npub struct Server {\n    pub addr: u8,\n}\npub struct ExecOptions {\n    pub limit: usize,\n}\n#[cfg(test)]\nmod tests {\npub struct TestConfig {\n    pub seed: u64,\n}\n}\n";
    assert_eq!(settings_fields(text), 2);
}
