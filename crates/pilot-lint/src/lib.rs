//! pilot-lint: workspace-aware static analysis for pilot-abstraction
//! invariants.
//!
//! The simulated backend's claims (determinism under a fixed seed, legal
//! P* state transitions, panic-free library crates) are enforced here as
//! five syntactic rules — see [`rules`] for the table and DESIGN.md
//! ("Enforced invariants") for the rationale. Run it with
//! `cargo run -p pilot-lint`; suppress a single finding with
//! `// lint: allow(<rule>, reason = "…")` on the same line or the line
//! above.

pub mod callgraph;
pub mod deep;
pub mod graph;
pub mod lexer;
pub mod rules;
pub mod taint;

pub use callgraph::GraphStats;
pub use rules::{FileClass, Finding};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files: usize,
    /// Findings silenced by a well-formed `lint: allow`.
    pub suppressed: usize,
    /// Call-graph size and resolution counters when the deep pass ran.
    pub graph: Option<GraphStats>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lint every `.rs` file under `root`, excluding `target/`, `.git/`,
/// `shims/` (vendored third-party stand-ins we do not own), `benchmark/` (a
/// separate package outside this workspace) and lint test fixtures (which
/// are violations on purpose).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let sources = files
        .iter()
        .map(|p| {
            let display = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let class = classify(&display);
            (display, class, p.clone())
        })
        .collect::<Vec<_>>();
    lint_files(&sources, true)
}

/// Lint an explicit set of files, treating each as library code (so that
/// fixture files exercise every rule regardless of where they live).
/// Per-file rules only; see [`lint_paths_deep`] for the interprocedural pass.
pub fn lint_paths(paths: &[PathBuf]) -> io::Result<Report> {
    lint_files(&explicit_sources(paths), false)
}

/// Lint an explicit set of files as one miniature workspace: per-file rules
/// *plus* the call-graph pass. This is how the deep-rule fixtures run.
pub fn lint_paths_deep(paths: &[PathBuf]) -> io::Result<Report> {
    lint_files(&explicit_sources(paths), true)
}

fn explicit_sources(paths: &[PathBuf]) -> Vec<(String, FileClass, PathBuf)> {
    paths
        .iter()
        .map(|p| {
            (
                p.to_string_lossy().into_owned(),
                FileClass::Library,
                p.clone(),
            )
        })
        .collect()
}

fn lint_files(sources: &[(String, FileClass, PathBuf)], deep: bool) -> io::Result<Report> {
    let mut report = Report::default();
    let mut orders = Vec::new();
    let mut prepared = Vec::new();
    for (display, class, path) in sources {
        let src = fs::read_to_string(path)?;
        prepared.push(rules::prepare(display, *class, &src));
    }
    for p in &prepared {
        let mut file = rules::lint_prepared(p);
        report.files += 1;
        report.suppressed += file.suppressed;
        report.findings.append(&mut file.findings);
        orders.append(&mut file.lock_orders);
    }
    report.findings.extend(rules::check_lock_orders(&orders));
    if deep {
        let mut d = deep::analyze(&prepared);
        report.suppressed += d.suppressed;
        report.findings.append(&mut d.findings);
        report.graph = Some(d.stats);
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "fixtures") {
                continue;
            }
            // `shims/` holds vendored stand-ins for crates.io deps; not ours.
            // `benchmark/` is a package with its own `[workspace]`: a harness
            // that measures the program from outside (its timing probes wrap
            // `Scheduler::select`, which would taint every deterministic
            // caller of the trait) and panics on a failed oracle by design.
            if path.parent() == Some(root) && matches!(name.as_ref(), "shims" | "benchmark") {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Decide which rule set applies from the workspace-relative path.
pub fn classify(display: &str) -> FileClass {
    let parts: Vec<&str> = display.split('/').collect();
    if parts
        .iter()
        .any(|p| matches!(*p, "tests" | "benches" | "examples"))
    {
        return FileClass::Test;
    }
    if display.ends_with("src/main.rs") || parts.contains(&"bin") {
        return FileClass::Binary;
    }
    FileClass::Library
}

/// Walk up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Render findings for humans: one line each, witness chains indented under
/// interprocedural findings, plus a summary (and graph stats when the deep
/// pass ran).
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
        for (i, hop) in f.chain.iter().enumerate() {
            out.push_str(&format!(
                "    {} {hop}\n",
                if i == 0 { "via" } else { " ->" }
            ));
        }
    }
    out.push_str(&format!(
        "pilot-lint: {} file(s), {} finding(s), {} suppressed\n",
        report.files,
        report.findings.len(),
        report.suppressed
    ));
    if let Some(g) = &report.graph {
        out.push_str(&format!(
            "call graph: {} fn(s), {} call site(s), {} edge(s); resolved \
             {} exact / {} suffix / {} typed / {} method, {} unresolved\n",
            g.functions,
            g.call_sites,
            g.edges,
            g.resolved_exact,
            g.resolved_suffix,
            g.resolved_typed,
            g.resolved_method,
            g.unresolved
        ));
    }
    out
}

/// Render the report as JSON (hand-rolled; no serde in this environment).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let chain = f
            .chain
            .iter()
            .map(|c| json_str(c))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{},\"chain\":[{chain}]}}",
            json_str(f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.message)
        ));
    }
    out.push_str(&format!(
        "],\"files\":{},\"suppressed\":{}",
        report.files, report.suppressed
    ));
    if let Some(g) = &report.graph {
        out.push_str(&format!(
            ",\"graph\":{{\"functions\":{},\"call_sites\":{},\"edges\":{},\
             \"resolved_exact\":{},\"resolved_suffix\":{},\"resolved_typed\":{},\
             \"resolved_method\":{},\"unresolved\":{}}}",
            g.functions,
            g.call_sites,
            g.edges,
            g.resolved_exact,
            g.resolved_suffix,
            g.resolved_typed,
            g.resolved_method,
            g.unresolved
        ));
    }
    out.push_str(&format!(",\"clean\":{}}}", report.is_clean()));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
