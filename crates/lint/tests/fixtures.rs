//! Fixture tests: every rule must flag its seeded violation at the
//! exact file/line — and nothing else — and the real workspace must
//! lint clean (the self-check that keeps the CI gate honest).

// Test-only crate: helper fns outside #[test] bodies may unwrap/expect
// (clippy's allow-unwrap-in-tests only covers #[test] functions).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use globe_lint::config::Doc;
use globe_lint::diag::{Diagnostic, Rule};
use globe_lint::lexer::lex;
use globe_lint::rules::locks::LockConfig;
use globe_lint::{rules, scan};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// `(rule, line)` pairs, sorted, for compact exact-match assertions.
fn shape(diags: &[Diagnostic]) -> Vec<(Rule, u32)> {
    let mut v: Vec<(Rule, u32)> = diags.iter().map(|d| (d.rule, d.line)).collect();
    v.sort();
    v
}

#[test]
fn panic_fixture_exact_findings() {
    let src = fixture("panic_violation.rs");
    let lexed = lex(&src);
    let diags = scan::apply_allows(
        "tests/fixtures/panic_violation.rs",
        &lexed,
        rules::panics::check("tests/fixtures/panic_violation.rs", &lexed),
    );
    // line 6 unwrap, line 8 panic!, line 19 bare allow, line 20 its
    // unsuppressed expect; the justified allow at 14/15 and the
    // #[cfg(test)] mod produce nothing.
    assert_eq!(
        shape(&diags),
        vec![
            (Rule::Panic, 6),
            (Rule::Panic, 8),
            (Rule::Panic, 19),
            (Rule::Panic, 20),
        ],
        "diags: {diags:#?}"
    );
    assert!(diags
        .iter()
        .all(|d| d.file == "tests/fixtures/panic_violation.rs"));
}

#[test]
fn time_fixture_exact_findings() {
    let src = fixture("time_violation.rs");
    let lexed = lex(&src);
    let diags = rules::time::check("tests/fixtures/time_violation.rs", &lexed);
    assert_eq!(
        shape(&diags),
        vec![(Rule::Time, 5), (Rule::Time, 10)],
        "diags: {diags:#?}"
    );
    assert!(diags[0].message.contains("deadline"));
}

#[test]
fn lock_fixture_exact_findings() {
    let cfg_src = fixture("../../lock_order.toml");
    let cfg = LockConfig::from_doc(&Doc::parse(&cfg_src).expect("parse lock_order.toml"))
        .expect("lock config");
    let src = fixture("lock_violation.rs");
    let lexed = lex(&src);
    // The stem "tcp_fabric" selects that file's alias table.
    let diags = rules::locks::check("tcp_fabric.rs", &lexed, &cfg);
    assert_eq!(
        shape(&diags),
        vec![(Rule::LockOrder, 7), (Rule::LockOrder, 14)],
        "diags: {diags:#?}"
    );
    assert!(diags[0].message.contains("inversion"));
    assert!(diags[1].message.contains("re-entry"));
}

/// The gate's promise: the shipped workspace is clean, with every allow
/// carrying a reason. Runs the full pass exactly as the CLI does.
#[test]
fn self_check_workspace_is_clean() {
    let diags = globe_lint::run(&workspace_root()).expect("lint pass runs");
    assert!(
        diags.is_empty(),
        "workspace must lint clean; found:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
