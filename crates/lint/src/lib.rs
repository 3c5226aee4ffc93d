//! `hyppo-lint`: determinism & concurrency static analysis for the HYPPO
//! workspace.
//!
//! The repo's headline guarantee — *bit-identical plans and artifacts under
//! any thread count* — is a property one stray `HashMap` iteration,
//! wall-clock read, or unjustified `Ordering::Relaxed` silently destroys,
//! and one that `clippy` cannot check because the invariants are
//! HYPPO-specific. This crate is the program-level gate: a self-contained,
//! dependency-free pass over every `.rs` file under `src/`, `crates/`,
//! `tests/`, and `examples/` (vendored crates and lint fixtures excluded),
//! with per-site suppression via
//!
//! ```text
//! // hyppo-lint: allow(<rule>) <mandatory reason>
//! ```
//!
//! Per-file rules scan each file's blanked line model; the interprocedural
//! rules additionally parse every library source into a lightweight program
//! model (`model`), resolve a call graph by name + receiver heuristics
//! (`callgraph`), and analyze the static lock-acquisition graph
//! (`lockgraph`). See `DESIGN.md` §10 and §15.
//!
//! | rule | family | flags |
//! |------|--------|-------|
//! | `nondeterministic-iteration` | determinism | `HashMap`/`HashSet` iteration in planner/serving/hypergraph code |
//! | `wall-clock-in-planner` | determinism | `Instant::now`/`SystemTime::now` in plan-decision code |
//! | `relaxed-ordering-justified` | concurrency | weak/RMW atomic orderings without a written justification |
//! | `nested-lock-acquire` | concurrency | a lock acquired while another guard is plausibly live (same fn) |
//! | `lock-order-cycle` | concurrency | a cycle in the workspace lock-acquisition graph (interprocedural) |
//! | `blocking-in-critical-section` | concurrency | a blocking call reachable while a guard is held (interprocedural) |
//! | `thread-spawn-outside-sched` | concurrency | raw `thread::spawn`/`thread::Builder` outside the `hyppo-sched` crate |
//! | `unsafe-needs-safety-comment` | safety | `unsafe` without an adjacent `// SAFETY:` comment |
//! | `no-deprecated-planner-api` | api | `SearchOptions` / free-function `optimize(` |
//! | `direct-fs-write-outside-persist` | durability | raw filesystem mutation in durability-critical crates |
//! | `malformed-allow` | suppression | `allow(...)` without a reason, or naming an unknown rule |
//! | `unused-suppression` | suppression | a well-formed `allow(...)` that matched no finding (workspace runs) |

#![forbid(unsafe_code)]

mod annot;
mod callgraph;
mod lockgraph;
mod model;
mod rules;
mod scan;

pub use rules::{
    rule_family, BLOCKING_CRITICAL, DEPRECATED_API, DIRECT_FS_WRITE, LOCK_ORDER_CYCLE, NESTED_LOCK,
    NONDET_ITERATION, RELAXED_ORDERING, RULE_IDS, THREAD_SPAWN, UNSAFE_COMMENT, UNUSED_SUPPRESSION,
    WALL_CLOCK,
};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Meta rule: a suppression annotation that is itself invalid.
pub const MALFORMED_ALLOW: &str = "malformed-allow";

/// Workspace directories the lint walks (relative to the root).
pub const SCAN_ROOTS: &[&str] = &["src", "crates", "tests", "examples"];

/// Directory names skipped anywhere in the walk: build output, vendored
/// std-only crate stand-ins, and the lint's own deliberately-violating
/// fixture snippets.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git"];

/// One rule violation at a file/line/column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (best-effort within the blanked line model).
    pub column: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// Aggregate statistics for one lint run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Finding counts keyed by rule id (only rules that fired).
    pub findings_per_rule: BTreeMap<String, usize>,
    /// Well-formed suppression annotations seen.
    pub suppressions_total: usize,
    /// Annotations that matched at least one finding.
    pub suppressions_used: usize,
    /// Annotations that matched none (each also reported as
    /// `unused-suppression` in workspace runs).
    pub suppressions_unused: usize,
}

/// A full lint run: findings plus summary statistics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Aggregate statistics.
    pub summary: Summary,
}

/// Lint one source text as if it lived at `rel_path` (forward slashes,
/// relative to the workspace root — the path decides which rules apply).
/// Runs the per-file rules *and* the interprocedural passes over this one
/// file, but — unlike workspace runs — does not report unused suppressions
/// (a lone file legitimately lacks its cross-file finding sources).
/// Findings come back sorted by line, then rule.
pub fn lint_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let files = vec![(rel_path.to_string(), text.to_string())];
    let mut findings = run(&files, false).findings;
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Lint an explicit set of `(rel_path, text)` files as one workspace,
/// including the interprocedural passes and unused-suppression reporting.
pub fn lint_files(files: &[(String, String)]) -> Report {
    run(files, true)
}

/// Lint every `.rs` file under the workspace `root`'s [`SCAN_ROOTS`].
/// Findings come back sorted by `(file, line, rule)` — the lint is about
/// determinism, so its own output is deterministic too.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    for dir in SCAN_ROOTS {
        let path = root.join(dir);
        if path.is_dir() {
            collect_rs_files(&path, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::new();
    for file in &paths {
        let text = fs::read_to_string(file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((rel, text));
    }
    Ok(run(&files, true))
}

/// The full pipeline: per-file rules, then the interprocedural passes, then
/// (for workspace runs) unused-suppression accounting.
fn run(files: &[(String, String)], report_unused: bool) -> Report {
    let mut scanned: Vec<(usize, Vec<scan::Line>)> = Vec::new(); // (file idx, lines)
    let mut order: Vec<usize> = (0..files.len()).collect();
    order.sort_by(|&a, &b| files[a].0.cmp(&files[b].0));
    for &i in &order {
        scanned.push((i, scan::scan(&files[i].1)));
    }

    let mut sups = Vec::new();
    let mut findings = Vec::new();
    for (i, lines) in &scanned {
        let rel = &files[*i].0;
        let sup = annot::collect(rel, lines, rules::RULE_IDS);
        findings.extend(rules::check_file(rel, lines, &sup));
        sups.push(sup);
    }

    // Interprocedural passes over the library sources: two-phase model build
    // (guard-returning helpers first), call graph, lock graph.
    let modeled: Vec<(usize, &Vec<scan::Line>)> = scanned
        .iter()
        .filter(|(i, _)| model::in_model_scope(&files[*i].0))
        .map(|(i, l)| (*i, l))
        .collect();
    let mut fns = Vec::new();
    for (i, lines) in &modeled {
        fns.extend(model::file_models(&files[*i].0, lines, &[]));
    }
    let helpers = model::guard_helpers(&fns);
    let mut fns = Vec::new();
    for (i, lines) in &modeled {
        fns.extend(model::file_models(&files[*i].0, lines, &helpers));
    }
    let ws = callgraph::Workspace::new(fns);
    for f in lockgraph::analyze(&ws) {
        let allowed = scanned
            .iter()
            .position(|(i, _)| files[*i].0 == f.file)
            .is_some_and(|k| sups[k].allows(f.rule, f.line));
        if !allowed {
            findings.push(f);
        }
    }

    // Annotation meta-findings last: malformed always, unused only for
    // workspace runs — and only after every rule had its chance to match.
    let mut suppressions_total = 0;
    let mut suppressions_used = 0;
    for (k, (i, _)) in scanned.iter().enumerate() {
        let (total, used) = sups[k].counts();
        suppressions_total += total;
        suppressions_used += used;
        findings.append(&mut sups[k].findings);
        if report_unused {
            findings.extend(sups[k].unused_findings(&files[*i].0));
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let mut findings_per_rule: BTreeMap<String, usize> = BTreeMap::new();
    for f in &findings {
        *findings_per_rule.entry(f.rule.to_string()).or_insert(0) += 1;
    }
    Report {
        summary: Summary {
            findings_per_rule,
            suppressions_total,
            suppressions_used,
            suppressions_unused: suppressions_total - suppressions_used,
        },
        findings,
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render a report the way a compiler would.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "error[{}]: {}", f.rule, f.message);
        let _ = writeln!(out, "  --> {}:{}:{}", f.file, f.line, f.column);
    }
    if report.findings.is_empty() {
        let _ = writeln!(
            out,
            "hyppo-lint: no violations ({} suppression{} in use)",
            report.summary.suppressions_used,
            if report.summary.suppressions_used == 1 { "" } else { "s" }
        );
    } else {
        let _ = writeln!(
            out,
            "hyppo-lint: {} violation{} (suppress a site with \
             `// hyppo-lint: allow(<rule>) <reason>` — the reason is mandatory)",
            report.findings.len(),
            if report.findings.len() == 1 { "" } else { "s" }
        );
    }
    out
}

/// Render a report as a single JSON object (machine output for CI).
///
/// Schema (version 2, pinned by `tests/json_golden.rs`):
///
/// ```text
/// {"tool":"hyppo-lint","version":2,
///  "findings":[{"rule","rule_family","file","line","column","message"}...],
///  "total":N,
///  "summary":{"findings_per_rule":{"<rule>":N,...},
///             "suppressions":{"total":N,"used":N,"unused":N}}}
/// ```
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"tool\":\"hyppo-lint\",\"version\":2,\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"rule_family\":\"{}\",\"file\":\"{}\",\"line\":{},\
             \"column\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(rules::rule_family(f.rule)),
            json_escape(&f.file),
            f.line,
            f.column,
            json_escape(&f.message)
        );
    }
    let _ = write!(out, "],\"total\":{}", report.findings.len());
    out.push_str(",\"summary\":{\"findings_per_rule\":{");
    for (i, (rule, n)) in report.summary.findings_per_rule.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(rule), n);
    }
    let _ = write!(
        out,
        "}},\"suppressions\":{{\"total\":{},\"used\":{},\"unused\":{}}}}}}}",
        report.summary.suppressions_total,
        report.summary.suppressions_used,
        report.summary.suppressions_unused
    );
    out.push('\n');
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_of(findings: Vec<Finding>) -> Report {
        let mut findings_per_rule = BTreeMap::new();
        for f in &findings {
            *findings_per_rule.entry(f.rule.to_string()).or_insert(0) += 1;
        }
        Report {
            findings,
            summary: Summary {
                findings_per_rule,
                suppressions_total: 2,
                suppressions_used: 1,
                suppressions_unused: 1,
            },
        }
    }

    #[test]
    fn json_output_is_well_formed_for_tricky_messages() {
        let report = report_of(vec![Finding {
            rule: MALFORMED_ALLOW,
            file: "a/b.rs".into(),
            line: 3,
            column: 7,
            message: "quote \" backslash \\ newline \n done".into(),
        }]);
        let json = render_json(&report);
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"version\":2"));
        assert!(json.contains("\"rule_family\":\"suppression\""));
        assert!(json.contains("\"column\":7"));
        assert!(json.contains("\"total\":1,\"summary\":{"));
        assert!(json.contains("\"suppressions\":{\"total\":2,\"used\":1,\"unused\":1}"));
    }

    #[test]
    fn clean_source_yields_no_findings() {
        let src = "pub fn add(a: u32, b: u32) -> u32 { a + b }\n";
        assert!(lint_source("crates/core/src/optimizer/x.rs", src).is_empty());
    }

    #[test]
    fn out_of_scope_files_skip_scoped_rules_but_not_global_ones() {
        // Wall-clock is fine outside the planner; SearchOptions never is.
        let src = "fn f() { let t = Instant::now(); let o = SearchOptions::default(); }\n";
        let findings = lint_source("crates/bench/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, DEPRECATED_API);
    }

    #[test]
    fn lint_source_does_not_report_unused_suppressions_but_lint_files_does() {
        let src = "fn f() {} // hyppo-lint: allow(wall-clock-in-planner) not actually needed\n";
        let rel = "crates/core/src/optimizer/x.rs";
        assert!(lint_source(rel, src).is_empty());
        let report = lint_files(&[(rel.to_string(), src.to_string())]);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, UNUSED_SUPPRESSION);
        assert_eq!(report.summary.suppressions_total, 1);
        assert_eq!(report.summary.suppressions_unused, 1);
    }

    #[test]
    fn interprocedural_findings_honor_suppressions_and_mark_them_used() {
        let src = "\
impl S {
    fn f(&self) {
        let g = self.m.lock().unwrap();
        // hyppo-lint: allow(blocking-in-critical-section) intentional drain under guard
        self.file.sync_all().unwrap();
    }
}
";
        let rel = "crates/persist/src/x.rs";
        let report = lint_files(&[(rel.to_string(), src.to_string())]);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.summary.suppressions_used, 1);
    }
}
