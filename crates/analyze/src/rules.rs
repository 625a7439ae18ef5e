//! The project-specific rules and the per-file checking engine.
//!
//! Every rule works on the token stream from [`crate::lexer`] — never on
//! raw text — so string literals and comments can't fool it. Findings can
//! be suppressed by an *annotation comment*, the auditable escape hatch:
//!
//! ```text
//! // analyze: allow(lock-order): querying both guards is safe here because …
//! let st = entry.state.lock().expect("entry lock");
//! ```
//!
//! An annotation on its own line covers the next line with code; an
//! annotation trailing code covers its own line. See [`RuleId`] for the
//! rule catalog and the README's "Static analysis" section for the
//! rationale behind each rule.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{HashMap, HashSet};

/// Files allowed to use `Ordering::SeqCst`. Nothing in the workspace
/// needs sequential consistency today; extend this list (with a comment
/// explaining the proof obligation) if something ever does.
const SEQCST_ALLOWED_FILES: &[&str] = &[];

/// Files whose atomics must be entirely `Ordering::Relaxed` — the
/// telemetry hot path, where one relaxed op per record is the budget
/// (PR 6) and an accidental `Acquire`/`Release`/`SeqCst` is a perf
/// regression the type system can't catch.
const RELAXED_ONLY_FILES: &[&str] = &["crates/telemetry/src/metrics.rs"];

/// Lock names participating in the catalog's lock order, outermost
/// first: `update` (long-hold writer lock) → `store` (durable-backing
/// slot) → `state` (short-hold swap lock). Acquiring a lock while
/// holding one that comes *after* it in this list is an order violation.
const LOCK_ORDER: &[&str] = &["update", "store", "state"];

/// Calls that must never run inside a `state` guard's scope: the whole
/// point of the off-lock rebuild protocol (PR 3) is that merges, index
/// builds and repairs, the repair planner and the store's fsyncing calls
/// happen against `Arc` clones, never under the short-hold swap lock.
const BANNED_UNDER_STATE: &[&str] = &[
    "build",
    "build_with_config",
    "build_index",
    "with_delta",
    "merge_csr",
    "plan_repair_explained",
    "splice_dag_arcs",
    "recompute_region",
    "unsplice_dag_arcs",
    "split_sccs",
    "append",
    "compact",
    "sync_data",
    "sync_all",
];

/// `.expect("…")` calls whose message contains one of these substrings
/// are the blessed poisoned-lock idiom (`expect("entry lock")`,
/// `expect("registry poisoned")`) and pass the panic rule.
const EXPECT_ALLOWED_SUBSTRINGS: &[&str] = &["lock", "poisoned"];

/// The five rule families. `Display`/[`RuleId::name`] yields the
/// kebab-case id used in findings, baselines, and `allow` annotations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Catalog locking protocol: `update` → `store` → `state` acquisition
    /// order, no re-entrant guard of the same lock, no index build/merge
    /// under a live `state` guard.
    LockOrder,
    /// Every `unsafe` block, fn, or impl carries a `// SAFETY:` comment
    /// immediately above it.
    SafetyComment,
    /// `SeqCst` is banned outside an allowlist; telemetry's metrics hot
    /// path stays `Relaxed`-only.
    AtomicOrdering,
    /// `.unwrap()` / `.expect(…)` / `panic!` / `todo!` / `unimplemented!`
    /// are banned in non-test library code, except the poisoned-lock
    /// `expect("… lock")` idiom.
    Panic,
    /// `println!` / `eprintln!` / `print!` / `eprint!` / `dbg!` are banned
    /// in library crates — diagnostics go through `telemetry::log!`.
    Logging,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 5] = [
        RuleId::LockOrder,
        RuleId::SafetyComment,
        RuleId::AtomicOrdering,
        RuleId::Panic,
        RuleId::Logging,
    ];

    /// The kebab-case rule id (`lock-order`, `safety-comment`, …).
    pub fn name(self) -> &'static str {
        match self {
            RuleId::LockOrder => "lock-order",
            RuleId::SafetyComment => "safety-comment",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::Panic => "panic",
            RuleId::Logging => "logging",
        }
    }

    /// Inverse of [`RuleId::name`].
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether a file is library code (panic/logging rules apply) or harness
/// code — tests, benches, examples, binaries — where panics and stdout
/// are the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// `src/` of a crate (excluding `src/bin/`): all five rules apply.
    Library,
    /// Tests / benches / examples / binaries: lock-order, SAFETY, and
    /// atomic-ordering still apply; panic and logging do not.
    Harness,
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Checks one file's source, returning all unsuppressed findings.
pub fn check_file(rel: &str, src: &str, class: FileClass) -> Vec<Finding> {
    let tokens = lex(src);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let lines = LineIndex::build(src, &tokens);
    let test_mask = test_region_mask(src, &code);

    let mut findings = Vec::new();
    lock_order_rule(rel, src, &code, &mut findings);
    safety_comment_rule(rel, src, &code, &lines, &mut findings);
    atomic_ordering_rule(rel, src, &code, &mut findings);
    if class == FileClass::Library {
        panic_rule(rel, src, &code, &test_mask, &mut findings);
        logging_rule(rel, src, &code, &test_mask, &mut findings);
    }

    let allows = collect_allows(src, &tokens, &lines);
    findings.retain(|f| !allows.contains(&(f.rule, f.line)));
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

// ---- Line bookkeeping ---------------------------------------------------

/// Per-line facts needed by the SAFETY rule and annotation resolution.
struct LineIndex {
    /// Lines holding at least one non-comment token.
    code_lines: HashSet<u32>,
    /// First non-comment token text per line (attribute detection).
    first_code: HashMap<u32, String>,
    /// Lines that are neither blank nor whitespace-only (so a gap stops
    /// the SAFETY comment walk-up).
    nonblank_lines: HashSet<u32>,
}

impl LineIndex {
    fn build(src: &str, tokens: &[Token]) -> LineIndex {
        let mut code_lines = HashSet::new();
        let mut first_code = HashMap::new();
        let mut nonblank_lines = HashSet::new();
        for t in tokens {
            // A multi-line token (block comment, raw string) marks every
            // line it spans as non-blank.
            let span_lines = t.text(src).matches('\n').count() as u32;
            for l in t.line..=t.line + span_lines {
                nonblank_lines.insert(l);
            }
            if !t.kind.is_comment() {
                for l in t.line..=t.line + span_lines {
                    code_lines.insert(l);
                }
                first_code.entry(t.line).or_insert_with(|| t.text(src).to_string());
            }
        }
        LineIndex { code_lines, first_code, nonblank_lines }
    }

    /// True if `line` is an attribute line (first code token is `#`).
    fn is_attr_line(&self, line: u32) -> bool {
        self.first_code.get(&line).is_some_and(|t| t == "#")
    }
}

// ---- Annotations --------------------------------------------------------

/// Extracts `analyze: allow(rule)` annotations. Returns `(rule, line)`
/// pairs of suppressed findings: an annotation trailing code covers its
/// own line; an annotation on a comment-only line covers the next line
/// holding code.
fn collect_allows(src: &str, tokens: &[Token], lines: &LineIndex) -> HashSet<(RuleId, u32)> {
    let mut allows = HashSet::new();
    let max_line = tokens.last().map(|t| t.line + 1).unwrap_or(1);
    for t in tokens {
        if !t.kind.is_comment() {
            continue;
        }
        let text = t.text(src);
        let Some(idx) = text.find("analyze: allow(") else { continue };
        let rest = &text[idx + "analyze: allow(".len()..];
        let Some(close) = rest.find(')') else { continue };
        let Some(rule) = RuleId::parse(&rest[..close]) else { continue };
        let target = if lines.code_lines.contains(&t.line) {
            t.line
        } else {
            // Comment-only line: cover the next code-bearing line.
            (t.line + 1..=max_line).find(|l| lines.code_lines.contains(l)).unwrap_or(t.line + 1)
        };
        allows.insert((rule, target));
    }
    allows
}

// ---- Test-region detection ----------------------------------------------

/// Marks the code-token indices living inside `#[cfg(test)]` items or
/// `#[test]` functions, so the panic/logging rules skip them. Regions are
/// found by matching the attribute token sequence and then skipping the
/// following item: through its `{ … }` block, or to the `;` if none opens
/// first (e.g. `#[cfg(test)] use …;`).
fn test_region_mask(src: &str, code: &[&Token]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if let Some(after_attr) = match_test_attr(src, code, i) {
            let mut depth = 0usize;
            let mut j = after_attr;
            while j < code.len() {
                let text = code[j].text(src);
                match text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            for m in mask.iter_mut().take((j + 1).min(code.len())).skip(i) {
                *m = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If code tokens starting at `i` spell `#[cfg(test)]` or `#[test]`,
/// returns the index just past the closing `]`.
fn match_test_attr(src: &str, code: &[&Token], i: usize) -> Option<usize> {
    let texts = |range: std::ops::Range<usize>| -> Option<Vec<&str>> {
        code.get(range).map(|ts| ts.iter().map(|t| t.text(src)).collect())
    };
    if texts(i..i + 2)? != ["#", "["] {
        return None;
    }
    if texts(i + 2..i + 3)? == ["test"] && texts(i + 3..i + 4)? == ["]"] {
        return Some(i + 4);
    }
    if texts(i + 2..i + 6)? == ["cfg", "(", "test", ")"] && texts(i + 6..i + 7)? == ["]"] {
        return Some(i + 7);
    }
    None
}

// ---- Rule: safety-comment -----------------------------------------------

/// Every `unsafe` token (block, fn, or impl) must be justified by a
/// line comment starting the `SAFETY` marker directly above the
/// statement it starts — comment and attribute lines may intervene, a
/// blank line or unrelated code may not. A trailing block-comment
/// marker earlier on the same line also counts.
fn safety_comment_rule(
    rel: &str,
    src: &str,
    code: &[&Token],
    lines: &LineIndex,
    findings: &mut Vec<Finding>,
) {
    // Marker lines: any comment token containing the SAFETY marker.
    // (Recomputed here rather than in LineIndex to keep that struct rule-
    // agnostic; files are small.)
    let tokens = lex(src);
    let mut safety_lines: HashSet<u32> = HashSet::new();
    let mut safety_before: Vec<(u32, usize)> = Vec::new(); // (line, end offset)
    for t in &tokens {
        if t.kind.is_comment() && t.text(src).contains("SAFETY:") {
            let span_lines = t.text(src).matches('\n').count() as u32;
            for l in t.line..=t.line + span_lines {
                safety_lines.insert(l);
            }
            safety_before.push((t.line + span_lines, t.end));
        }
    }

    for t in code {
        if t.text(src) != "unsafe" {
            continue;
        }
        // A block-comment marker on the same line, before the keyword.
        if safety_before.iter().any(|&(l, end)| l == t.line && end <= t.start) {
            continue;
        }
        let mut justified = false;
        let mut l = t.line;
        while l > 1 {
            l -= 1;
            if safety_lines.contains(&l) && !lines.code_lines.contains(&l) {
                justified = true;
                break;
            }
            let comment_only = lines.nonblank_lines.contains(&l) && !lines.code_lines.contains(&l);
            if comment_only || lines.is_attr_line(l) {
                continue; // keep walking through the comment/attr block
            }
            break; // blank line or unrelated code: the chain is broken
        }
        if !justified {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: RuleId::SafetyComment,
                message: "`unsafe` without a `// SAFETY:` comment immediately above".to_string(),
            });
        }
    }
}

// ---- Rule: atomic-ordering ----------------------------------------------

fn atomic_ordering_rule(rel: &str, src: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    let relaxed_only = RELAXED_ONLY_FILES.contains(&rel);
    let seqcst_ok = SEQCST_ALLOWED_FILES.contains(&rel);
    for t in code {
        let text = t.text(src);
        if text == "SeqCst" && !seqcst_ok {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: RuleId::AtomicOrdering,
                message: "`SeqCst` is banned outside the allowlist; state the ordering you \
                          actually need (and why) or extend SEQCST_ALLOWED_FILES"
                    .to_string(),
            });
        } else if relaxed_only && matches!(text, "Acquire" | "Release" | "AcqRel") {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: RuleId::AtomicOrdering,
                message: format!(
                    "`{text}` in a Relaxed-only file: the telemetry hot path budgets one \
                     relaxed atomic op per record"
                ),
            });
        }
    }
}

// ---- Rule: panic --------------------------------------------------------

fn panic_rule(
    rel: &str,
    src: &str,
    code: &[&Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    let mut push = |line: u32, message: String| {
        findings.push(Finding { file: rel.to_string(), line, rule: RuleId::Panic, message });
    };
    for (i, t) in code.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let text = t.text(src);
        let next = |k: usize| code.get(i + k).map(|t| t.text(src));
        match text {
            "panic" | "todo" | "unimplemented" if next(1) == Some("!") => {
                push(t.line, format!("`{text}!` in non-test library code; return an error"));
            }
            "unwrap" if prev_is_dot(src, code, i) && next(1) == Some("(") => {
                push(t.line, "`.unwrap()` in non-test library code; return an error".to_string());
            }
            "expect" if prev_is_dot(src, code, i) && next(1) == Some("(") => {
                let msg_tok = code.get(i + 2);
                let allowed = msg_tok.is_some_and(|m| {
                    matches!(m.kind, TokenKind::Str | TokenKind::RawStr)
                        && EXPECT_ALLOWED_SUBSTRINGS.iter().any(|s| m.text(src).contains(s))
                });
                if !allowed {
                    push(
                        t.line,
                        "`.expect(…)` in non-test library code (only the poisoned-lock \
                         `expect(\"… lock\")` idiom is allowed); return an error"
                            .to_string(),
                    );
                }
            }
            _ => {}
        }
    }
}

fn prev_is_dot(src: &str, code: &[&Token], i: usize) -> bool {
    i > 0 && code[i - 1].text(src) == "."
}

// ---- Rule: logging ------------------------------------------------------

fn logging_rule(
    rel: &str,
    src: &str,
    code: &[&Token],
    test_mask: &[bool],
    findings: &mut Vec<Finding>,
) {
    for (i, t) in code.iter().enumerate() {
        if test_mask[i] {
            continue;
        }
        let text = t.text(src);
        if matches!(text, "println" | "eprintln" | "print" | "eprint" | "dbg")
            && code.get(i + 1).map(|t| t.text(src)) == Some("!")
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: RuleId::Logging,
                message: format!("`{text}!` in a library crate; use `pscc_telemetry::log!`"),
            });
        }
    }
}

// ---- Rule: lock-order ---------------------------------------------------

/// A currently-live mutex guard.
struct Guard {
    /// Index into [`LOCK_ORDER`].
    rank: usize,
    /// The `let` binding holding the guard, if any (killed by `drop(x)`).
    binding: Option<String>,
    /// Brace depth at acquisition; popped when the block closes.
    depth: usize,
    /// Guard is a temporary (not `let`-bound): dies at end of statement.
    temp: bool,
}

/// Per-function acquisition bookkeeping for the "update before state"
/// whole-function check.
struct FnTrack {
    /// Depth of the function body's opening brace.
    body_depth: usize,
    first_update: Option<u32>,
    first_state: Option<u32>,
}

fn lock_order_rule(rel: &str, src: &str, code: &[&Token], findings: &mut Vec<Finding>) {
    let mut push = |line: u32, message: String| {
        findings.push(Finding { file: rel.to_string(), line, rule: RuleId::LockOrder, message });
    };

    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    let mut fns: Vec<FnTrack> = Vec::new();
    let mut pending_fn = false;
    // Statement tracking for `let` bindings of guards.
    let mut stmt_first: Option<usize> = None; // index of statement's first token
    let mut i = 0;
    while i < code.len() {
        let text = code[i].text(src);
        let line = code[i].line;
        if stmt_first.is_none() && !matches!(text, "{" | "}" | ";") {
            stmt_first = Some(i);
        }
        match text {
            "fn" => {
                // `fn` the item/method keyword, not an `fn(…)` pointer type
                // (those follow `:`/`<`/`(`/`,`/`&`/`->`).
                let prev = i.checked_sub(1).map(|p| code[p].text(src));
                if !matches!(prev, Some(":" | "<" | "(" | "," | "&" | ">" | "-")) {
                    pending_fn = true;
                }
            }
            "{" => {
                depth += 1;
                if pending_fn {
                    fns.push(FnTrack { body_depth: depth, first_update: None, first_state: None });
                    pending_fn = false;
                }
                stmt_first = None;
            }
            "}" => {
                // End of block: guards scoped to it die; a temp guard's
                // statement can't outlive the block either.
                guards.retain(|g| g.depth < depth);
                if fns.last().is_some_and(|f| f.body_depth == depth) {
                    if let Some(f) = fns.pop() {
                        if let (Some(state_line), Some(update_line)) =
                            (f.first_state, f.first_update)
                        {
                            if state_line < update_line {
                                push(
                                    state_line,
                                    "function takes both `update` and `state` but acquires \
                                     `state` first (required order: update → store → state)"
                                        .to_string(),
                                );
                            }
                        }
                    }
                }
                depth = depth.saturating_sub(1);
                stmt_first = None;
            }
            ";" => {
                guards.retain(|g| !(g.temp && g.depth == depth));
                stmt_first = None;
            }
            "drop" => {
                // `drop(x)` ends x's guard early.
                if code.get(i + 1).map(|t| t.text(src)) == Some("(") {
                    if let Some(victim) = code.get(i + 2).map(|t| t.text(src)) {
                        guards.retain(|g| g.binding.as_deref() != Some(victim));
                    }
                }
            }
            "lock" => {
                if prev_is_dot(src, code, i) && code.get(i + 1).map(|t| t.text(src)) == Some("(") {
                    let receiver = i.checked_sub(2).map(|r| code[r].text(src));
                    if let Some(rank) =
                        receiver.and_then(|r| LOCK_ORDER.iter().position(|&n| n == r))
                    {
                        let name = LOCK_ORDER[rank];
                        if let Some(held) = guards.iter().find(|g| g.rank == rank) {
                            let _ = held;
                            push(
                                line,
                                format!(
                                    "`{name}.lock()` while another `{name}` guard is live \
                                     (self-deadlock)"
                                ),
                            );
                        } else if let Some(held) = guards.iter().find(|g| g.rank > rank) {
                            push(
                                line,
                                format!(
                                    "`{name}.lock()` while a `{}` guard is live (required \
                                     order: update → store → state)",
                                    LOCK_ORDER[held.rank]
                                ),
                            );
                        }
                        if let Some(f) = fns.last_mut() {
                            if name == "update" && f.first_update.is_none() {
                                f.first_update = Some(line);
                            }
                            if name == "state" && f.first_state.is_none() {
                                f.first_state = Some(line);
                            }
                        }
                        let binding = stmt_first
                            .filter(|&s| code[s].text(src) == "let")
                            .and_then(|s| first_binding(src, code, s, i));
                        let temp = binding.is_none();
                        guards.push(Guard { rank, binding, depth, temp });
                    }
                }
            }
            _ => {
                // An index build or graph merge must never run under the
                // short-hold state lock.
                if BANNED_UNDER_STATE.contains(&text)
                    && code.get(i + 1).map(|t| t.text(src)) == Some("(")
                    && guards.iter().any(|g| LOCK_ORDER[g.rank] == "state")
                {
                    push(
                        line,
                        format!(
                            "`{text}(…)` inside a `state` guard's scope — merges and index \
                             builds run off-lock against Arc clones"
                        ),
                    );
                }
            }
        }
        i += 1;
    }
}

/// For a statement `let <pat> = …`, the first plausible binding ident
/// between `let` and `=` (skipping `mut`/`ref`/`_`). Good enough to match
/// a later `drop(binding)`.
fn first_binding(src: &str, code: &[&Token], let_idx: usize, lock_idx: usize) -> Option<String> {
    for t in &code[let_idx + 1..lock_idx] {
        let text = t.text(src);
        if text == "=" {
            break;
        }
        if t.kind == TokenKind::Word && !matches!(text, "mut" | "ref" | "_") {
            return Some(text.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib(src: &str) -> Vec<Finding> {
        check_file("crates/x/src/lib.rs", src, FileClass::Library)
    }

    fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
        findings.iter().map(|f| f.rule).collect()
    }

    // -- panic rule --

    #[test]
    fn panic_rule_catches_unwrap_expect_and_macros() {
        let src = "fn f() { x.unwrap(); y.expect(\"nope\"); panic!(\"boom\"); todo!(); }";
        let f = lib(src);
        assert_eq!(rules_of(&f), vec![RuleId::Panic; 4], "{f:?}");
    }

    #[test]
    fn panic_rule_allows_poisoned_lock_idiom() {
        let src = r#"
            fn f() {
                let a = m.lock().expect("entry lock");
                let b = sink().lock().expect("registry poisoned");
            }
        "#;
        assert!(lib(src).is_empty(), "{:?}", lib(src));
    }

    #[test]
    fn panic_rule_skips_tests_and_harness() {
        let src = "#[cfg(test)]\nmod tests {\n fn g() { x.unwrap(); panic!(); }\n}";
        assert!(lib(src).is_empty());
        let src2 = "#[test]\nfn t() { x.unwrap(); }";
        assert!(lib(src2).is_empty());
        let harness = check_file("tests/t.rs", "fn f() { x.unwrap(); }", FileClass::Harness);
        assert!(harness.is_empty());
    }

    #[test]
    fn panic_rule_ignores_strings_and_comments() {
        let src = "fn f() { let s = \".unwrap()\"; } // call .unwrap() and panic!(…)\n";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn panic_rule_resumes_after_test_module() {
        let src = "#[cfg(test)]\nmod tests { fn g() { x.unwrap(); } }\nfn real() { y.unwrap(); }";
        let f = lib(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    // -- logging rule --

    #[test]
    fn logging_rule_catches_print_macros() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(z); }";
        assert_eq!(rules_of(&lib(src)), vec![RuleId::Logging; 3]);
    }

    #[test]
    fn logging_rule_spares_harness_and_telemetry_log() {
        let h = check_file("examples/e.rs", "fn main() { println!(\"ok\"); }", FileClass::Harness);
        assert!(h.is_empty());
        let src = "fn f() { pscc_telemetry::log!(Warn, \"x\"); }";
        assert!(lib(src).is_empty());
    }

    // -- atomic-ordering rule --

    #[test]
    fn seqcst_is_banned_everywhere() {
        let src = "fn f() { x.store(1, Ordering::SeqCst); }";
        assert_eq!(rules_of(&lib(src)), vec![RuleId::AtomicOrdering]);
        let h = check_file("tests/t.rs", src, FileClass::Harness);
        assert_eq!(rules_of(&h), vec![RuleId::AtomicOrdering]);
    }

    #[test]
    fn relaxed_only_file_rejects_acquire_release() {
        let src = "fn f() { x.store(1, Ordering::Release); y.load(Ordering::Relaxed); }";
        let f = check_file("crates/telemetry/src/metrics.rs", src, FileClass::Library);
        assert_eq!(rules_of(&f), vec![RuleId::AtomicOrdering]);
        // The same source elsewhere is fine.
        assert!(lib(src).is_empty());
    }

    // -- safety-comment rule --

    #[test]
    fn undocumented_unsafe_is_flagged() {
        let src = "fn f() { unsafe { danger() } }";
        assert_eq!(rules_of(&lib(src)), vec![RuleId::SafetyComment]);
    }

    #[test]
    fn safety_comment_above_passes() {
        for src in [
            "// SAFETY: fine\nunsafe fn g() {}",
            "// SAFETY: multi\n// line two\nfn f() { unsafe { d() } }",
            "// SAFETY: above the statement\nlet x = unsafe { d() };",
            "// SAFETY: through attributes\n#[inline]\nunsafe fn g() {}",
            "/* SAFETY: same line */ unsafe fn g() {}",
            "// SAFETY: impl\nunsafe impl Sync for P {}",
        ] {
            assert!(lib(src).is_empty(), "{src:?} -> {:?}", lib(src));
        }
    }

    #[test]
    fn blank_line_breaks_the_safety_chain() {
        let src = "// SAFETY: too far away\n\nunsafe fn g() {}";
        assert_eq!(rules_of(&lib(src)), vec![RuleId::SafetyComment]);
    }

    #[test]
    fn safety_in_string_does_not_count() {
        let src = "let s = \"SAFETY: nope\";\nunsafe fn g() {}";
        assert_eq!(rules_of(&lib(src)), vec![RuleId::SafetyComment]);
    }

    // -- lock-order rule --

    #[test]
    fn nested_state_guard_is_flagged() {
        let src = r#"
            fn f(e: &Entry) {
                let a = e.state.lock().expect("entry lock");
                let b = e.state.lock().expect("entry lock");
            }
        "#;
        let f = lib(src);
        assert_eq!(rules_of(&f), vec![RuleId::LockOrder]);
        assert!(f[0].message.contains("self-deadlock"));
    }

    #[test]
    fn scoped_state_guards_are_fine() {
        let src = r#"
            fn f(e: &Entry) {
                let g = { let st = e.state.lock().expect("entry lock"); st.graph.clone() };
                let mut st = e.state.lock().expect("entry lock");
            }
        "#;
        assert!(lib(src).is_empty(), "{:?}", lib(src));
    }

    #[test]
    fn drop_ends_a_guard() {
        let src = r#"
            fn f(e: &Entry) {
                let st = e.state.lock().expect("entry lock");
                drop(st);
                let st2 = e.state.lock().expect("entry lock");
            }
        "#;
        assert!(lib(src).is_empty(), "{:?}", lib(src));
    }

    #[test]
    fn statement_temporary_guard_dies_at_semicolon() {
        let src = r#"
            fn f(e: &Entry) {
                e.state.lock().expect("entry lock").index.take();
                let st = e.state.lock().expect("entry lock");
            }
        "#;
        assert!(lib(src).is_empty(), "{:?}", lib(src));
    }

    #[test]
    fn state_before_update_in_one_function_is_flagged() {
        let src = r#"
            fn f(e: &Entry) {
                { let st = e.state.lock().expect("entry lock"); }
                let w = e.update.lock().expect("update lock");
            }
        "#;
        let f = lib(src);
        assert_eq!(rules_of(&f), vec![RuleId::LockOrder]);
        assert!(f[0].message.contains("acquires `state` first"));
    }

    #[test]
    fn update_then_state_is_the_blessed_order() {
        let src = r#"
            fn f(e: &Entry) {
                let w = e.update.lock().expect("update lock");
                let mut slot = e.store.lock().expect("store lock");
                let st = e.state.lock().expect("entry lock");
            }
        "#;
        assert!(lib(src).is_empty(), "{:?}", lib(src));
    }

    #[test]
    fn store_while_state_held_is_flagged() {
        let src = r#"
            fn f(e: &Entry) {
                let st = e.state.lock().expect("entry lock");
                let slot = e.store.lock().expect("store lock");
            }
        "#;
        let f = lib(src);
        assert_eq!(rules_of(&f), vec![RuleId::LockOrder]);
        assert!(f[0].message.contains("required order"));
    }

    #[test]
    fn index_build_under_state_guard_is_flagged() {
        let src = r#"
            fn f(e: &Entry) {
                let st = e.state.lock().expect("entry lock");
                let idx = Index::build_with_config(&st.graph, &cfg);
            }
        "#;
        let f = lib(src);
        assert_eq!(rules_of(&f), vec![RuleId::LockOrder]);
        assert!(f[0].message.contains("off-lock"));
    }

    #[test]
    fn index_build_outside_guard_is_fine() {
        let src = r#"
            fn f(e: &Entry) {
                let g = { let st = e.state.lock().expect("entry lock"); st.graph.clone() };
                let idx = Index::build_with_config(&g, &cfg);
                let mut st = e.state.lock().expect("entry lock");
                st.index = Some(idx);
            }
        "#;
        assert!(lib(src).is_empty(), "{:?}", lib(src));
    }

    #[test]
    fn unrelated_locks_are_ignored() {
        let src = r#"
            fn f() {
                let a = overflow.lock().expect("overflow lock");
                let b = missed.lock().expect("missed lock");
            }
        "#;
        assert!(lib(src).is_empty());
    }

    // -- annotations --

    #[test]
    fn allow_annotation_on_preceding_line_suppresses() {
        let src = "fn f() {\n    // analyze: allow(panic): demo invariant\n    x.unwrap();\n}";
        assert!(lib(src).is_empty(), "{:?}", lib(src));
    }

    #[test]
    fn allow_annotation_trailing_code_suppresses_same_line() {
        let src = "fn f() { x.unwrap(); } // analyze: allow(panic): demo";
        assert!(lib(src).is_empty());
    }

    #[test]
    fn allow_annotation_is_rule_specific() {
        let src = "fn f() {\n    // analyze: allow(logging): wrong rule\n    x.unwrap();\n}";
        assert_eq!(rules_of(&lib(src)), vec![RuleId::Panic]);
    }

    #[test]
    fn allow_annotation_does_not_leak_past_its_line() {
        let src = "fn f() {\n    // analyze: allow(panic): one line only\n    x.unwrap();\n    y.unwrap();\n}";
        let f = lib(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }
}
