//! Shared token-stream analyses: `#[cfg(test)]` module ranges (lint
//! rules only bind on production code) and the allow-comment grammar
//! that suppresses a single finding with a mandatory reason.

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{Comment, Lexed, TokKind, Token};

/// Token-index ranges (half-open) covered by `#[cfg(test)] mod … { … }`
/// blocks. Violations inside them are not reported: test code may
/// unwrap and subtract freely.
pub fn test_mod_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            // Skip the attribute (7 tokens: # [ cfg ( test ) ]), then
            // any further attributes, then expect `mod name {`.
            let mut j = i + 7;
            while j < tokens.len() && tokens[j].is_punct("#") {
                j = skip_attribute(tokens, j);
            }
            if j + 2 < tokens.len()
                && tokens[j].is_ident("mod")
                && tokens[j + 1].kind == TokKind::Ident
            {
                // Find the opening brace (inline `mod m {}`; a
                // `mod m;` declaration has no body here).
                let k = j + 2;
                if tokens[k].is_punct("{") {
                    let end = matching_brace(tokens, k);
                    ranges.push((i, end));
                    i = end;
                    continue;
                }
            }
        }
        i += 1;
    }
    ranges
}

/// Whether token `i` starts exactly `#[cfg(test)]`.
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    tokens.len() > i + 6
        && tokens[i].is_punct("#")
        && tokens[i + 1].is_punct("[")
        && tokens[i + 2].is_ident("cfg")
        && tokens[i + 3].is_punct("(")
        && tokens[i + 4].is_ident("test")
        && tokens[i + 5].is_punct(")")
        && tokens[i + 6].is_punct("]")
}

/// Skips a `#[...]` attribute starting at the `#`; returns the index
/// past the closing `]`.
pub fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    debug_assert!(tokens[i].is_punct("#"));
    let mut j = i + 1;
    if j < tokens.len() && tokens[j].is_punct("[") {
        let mut depth = 0usize;
        while j < tokens.len() {
            if tokens[j].is_punct("[") {
                depth += 1;
            } else if tokens[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
    }
    j
}

/// Index one past the brace matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    debug_assert!(tokens[open].is_punct("{"));
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct("{") {
            depth += 1;
        } else if tokens[i].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Whether token index `i` falls inside any of `ranges`.
pub fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(a, b)| i >= a && i < b)
}

/// One parsed allow comment: `lint: allow(<rule>) — <reason>`.
///
/// The em-dash (or a plain ` - `) separating the rule from the reason
/// is mandatory: an allow with no reason is itself a violation. The
/// comment suppresses findings of `<rule>` on its own line and on the
/// line directly below (comment-above style).
#[derive(Debug)]
pub struct Allow {
    pub rule: String,
    pub line: u32,
    pub has_reason: bool,
}

/// Extracts every allow comment in the file.
pub fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("lint: allow(") {
            let tail = &rest[pos + "lint: allow(".len()..];
            let Some(close) = tail.find(')') else {
                break;
            };
            let rule = tail[..close].trim().to_string();
            let after = &tail[close + 1..];
            let after_trim = after.trim_start();
            let has_reason = ["—", "–", "- ", "-\t"]
                .iter()
                .any(|sep| after_trim.starts_with(sep))
                && after_trim
                    .trim_start_matches(['—', '–', '-', ' ', '\t'])
                    .chars()
                    .any(|ch| ch.is_alphanumeric());
            allows.push(Allow {
                rule,
                line: c.line,
                has_reason,
            });
            rest = after;
        }
    }
    allows
}

/// Applies allow comments to raw findings: suppressed findings are
/// dropped; allows with a missing reason are converted into findings of
/// their own (the gate demands *justified* suppressions).
pub fn apply_allows(file: &str, lexed: &Lexed, mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let allows = parse_allows(&lexed.comments);
    diags.retain(|d| {
        !allows.iter().any(|a| {
            a.has_reason && a.rule == d.rule.name() && (a.line == d.line || a.line + 1 == d.line)
        })
    });
    for a in &allows {
        let rule = match a.rule.as_str() {
            "panic" => Rule::Panic,
            "time" => Rule::Time,
            "lock-order" => Rule::LockOrder,
            other => {
                diags.push(Diagnostic {
                    rule: Rule::Panic,
                    file: file.to_string(),
                    line: a.line,
                    message: format!(
                        "allow comment names unknown rule `{other}` (known: panic, time, lock-order)"
                    ),
                });
                continue;
            }
        };
        if !a.has_reason {
            diags.push(Diagnostic {
                rule,
                file: file.to_string(),
                line: a.line,
                message: format!(
                    "allow comment for `{}` is missing a reason: write `lint: allow({}) — <why this is safe>`",
                    a.rule, a.rule
                ),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let lexed = lex(src);
        let ranges = test_mod_ranges(&lexed.tokens);
        assert_eq!(ranges.len(), 1);
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(in_ranges(&ranges, unwrap_idx));
        let c_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("c"))
            .expect("c token");
        assert!(!in_ranges(&ranges, c_idx));
    }

    #[test]
    fn allow_requires_reason() {
        let allows = parse_allows(
            &lex("// lint: allow(panic)\n// lint: allow(time) — data-independent order\n").comments,
        );
        assert_eq!(allows.len(), 2);
        assert!(!allows[0].has_reason);
        assert!(allows[1].has_reason);
        assert_eq!(allows[1].rule, "time");
    }

    #[test]
    fn ascii_dash_reason_accepted() {
        let allows =
            parse_allows(&lex("// lint: allow(lock-order) - intentionally nested\n").comments);
        assert!(allows[0].has_reason);
    }
}
