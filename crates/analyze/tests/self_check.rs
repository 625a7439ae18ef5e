//! End-to-end checks for the analyzer: the workspace itself must be clean
//! against the committed baseline, deliberately injected violations of
//! every rule must be caught, and the lexer must tokenize arbitrary
//! byte-soup without panicking or losing a byte.

use pscc_analyze::baseline::{diff, Baseline};
use pscc_analyze::lexer::lex;
use pscc_analyze::rules::{check_file, FileClass, RuleId};
use pscc_analyze::{analyze_workspace, BASELINE_FILE};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // crates/analyze -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

/// The gate CI runs, as a test: the live workspace tree must match the
/// committed `analyze-baseline.json` exactly. Catches both fresh
/// violations and a stale (insufficiently ratcheted) baseline.
#[test]
fn workspace_matches_committed_baseline() {
    let root = workspace_root();
    let analysis = analyze_workspace(root).expect("scan workspace");
    assert!(analysis.files_scanned > 50, "scan looks truncated: {} files", analysis.files_scanned);
    let text = std::fs::read_to_string(root.join(BASELINE_FILE)).expect("committed baseline");
    let baseline = Baseline::from_json(&text).expect("baseline parses");
    let drift = diff(&analysis.findings, &baseline);
    assert!(
        drift.is_empty(),
        "workspace drifted from analyze-baseline.json:\n{}",
        analysis.findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}

/// The logging baseline must stay empty: every library crate routes
/// diagnostics through `pscc_telemetry::log!`.
#[test]
fn logging_debt_is_zero() {
    let root = workspace_root();
    let analysis = analyze_workspace(root).expect("scan workspace");
    let logging: Vec<_> = analysis.findings.iter().filter(|f| f.rule == RuleId::Logging).collect();
    assert!(logging.is_empty(), "logging debt reappeared: {logging:?}");
}

/// Every `unsafe` in the workspace carries a SAFETY comment.
#[test]
fn unsafe_is_fully_documented() {
    let root = workspace_root();
    let analysis = analyze_workspace(root).expect("scan workspace");
    let undocumented: Vec<_> =
        analysis.findings.iter().filter(|f| f.rule == RuleId::SafetyComment).collect();
    assert!(undocumented.is_empty(), "undocumented unsafe: {undocumented:?}");
}

// ---- Injected violations: each rule must catch its own poison. ----------

fn rules_fired(src: &str) -> Vec<RuleId> {
    let mut rules: Vec<RuleId> = check_file("crates/x/src/lib.rs", src, FileClass::Library)
        .into_iter()
        .map(|f| f.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn injected_lock_order_violation_is_caught() {
    let src = r#"
fn bad(entry: &Entry) {
    let st = entry.state.lock().expect("entry lock");
    let up = entry.update.lock().expect("update lock");
    drop(up);
    drop(st);
}
"#;
    assert!(rules_fired(src).contains(&RuleId::LockOrder), "state-before-update not caught");
}

#[test]
fn injected_rebuild_under_state_guard_is_caught() {
    let src = r#"
fn bad(entry: &Entry) {
    let st = entry.state.lock().expect("entry lock");
    let index = Index::build_with_config(&st.graph, &entry.config);
    drop(st);
}
"#;
    assert!(rules_fired(src).contains(&RuleId::LockOrder), "build under state guard not caught");
    let repair = r#"
fn bad(entry: &Entry, index: &Index) {
    let mut st = entry.state.lock().expect("entry lock");
    st.index = Some(index.splice_dag_arcs(&arcs, &ins, &del, &entry.config));
}
"#;
    assert!(
        rules_fired(repair).contains(&RuleId::LockOrder),
        "repair under state guard not caught"
    );
}

#[test]
fn injected_undocumented_unsafe_is_caught() {
    let src = "fn f(p: *mut u32) { unsafe { *p = 1 }; }\n";
    assert!(rules_fired(src).contains(&RuleId::SafetyComment));
    let ok = "fn f(p: *mut u32) {\n    // SAFETY: p is valid and exclusive.\n    unsafe { *p = 1 };\n}\n";
    assert!(!rules_fired(ok).contains(&RuleId::SafetyComment));
}

#[test]
fn injected_seqcst_is_caught() {
    let src = "fn f(a: &AtomicU64) { a.store(1, Ordering::SeqCst); }\n";
    assert!(rules_fired(src).contains(&RuleId::AtomicOrdering));
    let ok = "fn f(a: &AtomicU64) { a.store(1, Ordering::Release); }\n";
    assert!(!rules_fired(ok).contains(&RuleId::AtomicOrdering));
}

#[test]
fn injected_panic_is_caught() {
    assert!(rules_fired("fn f(x: Option<u32>) -> u32 { x.unwrap() }\n").contains(&RuleId::Panic));
    assert!(rules_fired("fn f() { panic!(\"boom\"); }\n").contains(&RuleId::Panic));
    // The poisoned-lock idiom stays legal.
    assert!(!rules_fired("fn f(m: &Mutex<u32>) { m.lock().expect(\"m lock\"); }\n")
        .contains(&RuleId::Panic));
}

#[test]
fn injected_println_is_caught() {
    assert!(rules_fired("fn f() { println!(\"hi\"); }\n").contains(&RuleId::Logging));
    assert!(rules_fired("fn f() { dbg!(42); }\n").contains(&RuleId::Logging));
    // Harness files may print.
    let harness = check_file("tests/t.rs", "fn f() { println!(\"hi\"); }\n", FileClass::Harness);
    assert!(harness.iter().all(|f| f.rule != RuleId::Logging));
}

#[test]
fn allow_annotation_suppresses_exactly_one_line() {
    let src = r#"
fn f() {
    // analyze: allow(logging): test fixture
    println!("allowed");
    println!("not allowed");
}
"#;
    let findings = check_file("crates/x/src/lib.rs", src, FileClass::Library);
    let logging: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::Logging).collect();
    assert_eq!(logging.len(), 1, "{logging:?}");
    assert_eq!(logging[0].line, 5);
}

// ---- Lexer property tests. ----------------------------------------------

use proptest::collection::vec;
use proptest::proptest;

/// Fragments chosen to collide lexer states: comment openers inside
/// strings, quotes inside comments, raw-string guards, lifetimes next to
/// char literals, multibyte text, and unterminated everything.
const FRAGMENTS: &[&str] = &[
    "fn ",
    "let x = 1;\n",
    "// line\n",
    "/* block */",
    "/*",
    "*/",
    "\n",
    "\"str\"",
    "\"",
    "\\\"",
    "r#\"raw\"#",
    "r#\"",
    "\"#",
    "b\"bytes\"",
    "'a",
    "'a,",
    "'x'",
    "'\\n'",
    "'",
    "ident",
    "_w0rd",
    "λµ→",
    "\"λ\"",
    "{",
    "}",
    "(",
    ")",
    ";",
    "unsafe",
    "lock()",
    "0x1f",
    "r",
    "#",
];

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// Tokens must tile the input: in-bounds, ordered, non-overlapping,
    /// on char boundaries, and slicing back out of the source must
    /// reproduce each token verbatim. Holds for arbitrary fragment soup,
    /// including malformed/unterminated code.
    #[test]
    fn lexer_round_trips_arbitrary_soup(idxs in vec(0usize..FRAGMENTS.len(), 0..60)) {
        let src: String = idxs.iter().map(|&i| FRAGMENTS[i]).collect();
        let tokens = lex(&src);
        let mut prev_end = 0usize;
        let mut prev_line = 1u32;
        for t in &tokens {
            assert!(t.start >= prev_end, "overlapping tokens in {src:?}");
            assert!(t.end > t.start, "empty token in {src:?}");
            assert!(t.end <= src.len(), "token past EOF in {src:?}");
            // Spans must be valid char boundaries or .get() returns None.
            let text = src.get(t.start..t.end);
            assert!(text.is_some(), "token splits a char in {src:?}");
            assert_eq!(text.unwrap(), t.text(&src));
            assert!(t.line >= prev_line, "line numbers regressed in {src:?}");
            assert_eq!(
                t.line as usize,
                1 + src[..t.start].bytes().filter(|&b| b == b'\n').count(),
                "wrong line for token at {} in {src:?}",
                t.start
            );
            prev_end = t.end;
            prev_line = t.line;
        }
    }

    /// The rule engine must never panic on arbitrary soup either — it
    /// runs on every file of the tree, malformed or not.
    #[test]
    fn rules_never_panic_on_arbitrary_soup(idxs in vec(0usize..FRAGMENTS.len(), 0..40)) {
        let src: String = idxs.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = check_file("crates/x/src/lib.rs", &src, FileClass::Library);
        let _ = check_file("tests/x.rs", &src, FileClass::Harness);
    }
}
