//! `pscc-analyze` — a zero-dependency static checker for this workspace's
//! concurrency and hygiene invariants.
//!
//! The engine's correctness rests on invariants that live in comments and
//! reviewers' heads: the catalog's `update → store → state` lock order and
//! off-lock rebuild protocol, the telemetry crate's relaxed-atomics-only
//! hot path, documented `unsafe`, and error-returning (not panicking)
//! library code. This crate machine-checks them on every CI run:
//!
//! | rule | enforces |
//! |------|----------|
//! | `lock-order` | `update` → `store` → `state` acquisition order, no re-entrant guards, no index build/merge under a `state` guard |
//! | `safety-comment` | every `unsafe` carries a `SAFETY` comment |
//! | `atomic-ordering` | no `SeqCst`; telemetry metrics stay `Relaxed` |
//! | `panic` | no `unwrap`/`expect`/`panic!` in non-test library code (poisoned-lock `expect("… lock")` excepted) |
//! | `logging` | no `println!`/`eprintln!`/`dbg!` in library crates |
//!
//! Findings diff against the committed `analyze-baseline.json` (see
//! [`baseline`]): new violations fail, fixed ones must shrink the
//! baseline. `// analyze: allow(rule): reason` suppresses a single line
//! auditable in review. Run via `cargo run -p pscc-analyze -- --check`.

pub mod baseline;
pub mod lexer;
pub mod rules;

use rules::{check_file, FileClass, Finding};
use std::io;
use std::path::{Path, PathBuf};

/// Directories scanned under the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path prefixes excluded from the scan: vendored stand-ins for external
/// crates (the `proptest` shim) mirror *their* upstream APIs and idioms,
/// not this workspace's.
const EXCLUDED_PREFIXES: &[&str] = &["crates/devtools/"];

/// The baseline's file name at the workspace root.
pub const BASELINE_FILE: &str = "analyze-baseline.json";

/// The findings of one whole-workspace run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// All unsuppressed findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Scans every workspace `.rs` file under `root` and returns the findings.
///
/// Fails only on IO errors (unreadable file or directory); findings —
/// including zero findings — are a success.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut analysis = Analysis::default();
    for path in files {
        let rel = relative_slash_path(root, &path);
        if EXCLUDED_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        analysis.files_scanned += 1;
        analysis.findings.extend(check_file(&rel, &src, classify(&rel)));
    }
    analysis.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(analysis)
}

/// Recursively collects `.rs` files, skipping `target` build dirs and
/// hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `root`-relative path with forward slashes (stable across platforms, so
/// baselines and annotations are portable).
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for comp in rel.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

/// Classifies a workspace-relative path: harness code (tests, benches,
/// examples, binaries) is exempt from the panic and logging rules;
/// library code gets all five.
pub fn classify(rel: &str) -> FileClass {
    let harness_dir =
        |d: &str| rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"));
    if harness_dir("tests")
        || harness_dir("benches")
        || harness_dir("examples")
        || harness_dir("bin")
        || rel.ends_with("src/main.rs")
    {
        FileClass::Harness
    } else {
        FileClass::Library
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_workspace_layout() {
        for (rel, class) in [
            ("crates/engine/src/catalog.rs", FileClass::Library),
            ("crates/bench/src/lib.rs", FileClass::Library),
            ("src/lib.rs", FileClass::Library),
            ("tests/engine_repair_planner.rs", FileClass::Harness),
            ("tests/common/scenarios.rs", FileClass::Harness),
            ("examples/quickstart.rs", FileClass::Harness),
            ("crates/bench/benches/tab2_scc.rs", FileClass::Harness),
            ("crates/analyze/src/main.rs", FileClass::Harness),
        ] {
            assert_eq!(classify(rel), class, "{rel}");
        }
    }
}
