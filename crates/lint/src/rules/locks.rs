//! Rule `lock-order`: nested mutex acquisitions must follow the
//! declared partial order.
//!
//! The pass extracts every `.lock()` call per function body in the
//! runtime files, tracks which guards are plausibly held when the next
//! one is taken (let-bound guards live to the end of their block,
//! temporaries to the end of their statement, `drop(guard)` releases
//! early), canonicalises receiver names through the per-file alias
//! tables in `lock_order.toml`, and checks every nested pair against
//! the declared total order. Same-lock re-entry is always a finding
//! (the vendored `parking_lot::Mutex` is not re-entrant); a nested lock
//! whose name is not declared at all is a finding too, so the order
//! file must be extended deliberately rather than drifting.
//!
//! Closure bodies (`|…| { … }` and `move || { … }`) are analysed as
//! separate contexts: a guard held where the closure is *written* is
//! not assumed held where the closure *runs*.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{Lexed, TokKind, Token};
use crate::scan::{in_ranges, test_mod_ranges};

/// The declared order plus per-file receiver aliases.
#[derive(Debug, Default)]
pub struct LockConfig {
    /// Canonical lock-class names, outermost first. Total order: a
    /// nested acquisition must move strictly left-to-right.
    pub order: Vec<String>,
    /// file-stem → (receiver name → canonical name).
    pub aliases: BTreeMap<String, BTreeMap<String, String>>,
}

impl LockConfig {
    /// Parses the `lock_order.toml` document.
    pub fn from_doc(doc: &crate::config::Doc) -> Result<LockConfig, String> {
        let order = doc
            .arrays
            .get("order")
            .cloned()
            .ok_or("lock_order.toml: missing top-level `order = [...]`")?;
        let mut aliases: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        for (key, value) in &doc.strings {
            if let Some(rest) = key.strip_prefix("aliases.") {
                let (file, receiver) = rest
                    .split_once('.')
                    .ok_or_else(|| format!("lock_order.toml: bad alias key `{key}`"))?;
                aliases
                    .entry(file.to_string())
                    .or_default()
                    .insert(receiver.to_string(), value.clone());
            }
        }
        for map in aliases.values() {
            for target in map.values() {
                if !order.contains(target) {
                    return Err(format!(
                        "lock_order.toml: alias target `{target}` is not in `order`"
                    ));
                }
            }
        }
        Ok(LockConfig { order, aliases })
    }

    fn rank(&self, name: &str) -> Option<usize> {
        self.order.iter().position(|n| n == name)
    }

    fn canonical(&self, file_stem: &str, receiver: &str) -> String {
        if let Some(map) = self.aliases.get(file_stem) {
            if let Some(c) = map.get(receiver) {
                return c.clone();
            }
        }
        receiver.to_string()
    }
}

/// A guard currently assumed held.
#[derive(Debug, Clone)]
struct Held {
    /// Canonical lock-class name.
    name: String,
    /// The `let` binding, for `drop(x)` release; `None` for temporaries.
    binding: Option<String>,
    /// Brace depth the guard was taken at.
    depth: usize,
    /// Temporary guards die at the end of their statement.
    temp: bool,
}

/// Scans one file. `file` is the diagnostics path; the alias table is
/// selected by the file stem (`tcp_fabric` for `…/tcp_fabric.rs`).
pub fn check(file: &str, lexed: &Lexed, cfg: &LockConfig) -> Vec<Diagnostic> {
    let stem = file
        .rsplit('/')
        .next()
        .unwrap_or(file)
        .trim_end_matches(".rs")
        .to_string();
    let tokens = &lexed.tokens;
    let tests = test_mod_ranges(tokens);
    let mut diags = Vec::new();

    let mut i = 0usize;
    while i < tokens.len() {
        if in_ranges(&tests, i) {
            i += 1;
            continue;
        }
        if tokens[i].is_ident("fn") {
            if let Some((body_start, body_end)) = fn_body(tokens, i) {
                walk_body(file, &stem, tokens, body_start, body_end, cfg, &mut diags);
                i = body_end;
                continue;
            }
        }
        i += 1;
    }
    diags
}

/// Finds the `{`..`}` token range of the body of the `fn` at `i`.
fn fn_body(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    let mut paren = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("(") {
            paren += 1;
        } else if t.is_punct(")") {
            paren -= 1;
        } else if t.is_punct(";") && paren == 0 {
            return None; // trait method declaration, no body
        } else if t.is_punct("{") && paren == 0 {
            return Some((j, crate::scan::matching_brace(tokens, j)));
        }
        j += 1;
    }
    None
}

/// Walks one function body tracking held guards and recording nested
/// acquisition findings.
fn walk_body(
    file: &str,
    stem: &str,
    tokens: &[Token],
    start: usize,
    end: usize,
    cfg: &LockConfig,
    diags: &mut Vec<Diagnostic>,
) {
    let mut held: Vec<Held> = Vec::new();
    // Stacks saved on entering a closure body, keyed by the depth the
    // closure body's brace opened at.
    let mut saved: Vec<(usize, Vec<Held>)> = Vec::new();
    let mut depth = 0usize;
    let mut i = start;

    while i < end {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
            if closure_brace(tokens, i, start) {
                saved.push((depth, std::mem::take(&mut held)));
            }
            // A brace also ends the statement the temporaries lived in.
            held.retain(|g| !g.temp);
        } else if t.is_punct("}") {
            held.retain(|g| g.depth < depth);
            if let Some((d, outer)) = saved.last() {
                if *d == depth {
                    held = outer.clone();
                    saved.pop();
                }
            }
            depth = depth.saturating_sub(1);
        } else if t.is_punct(";") {
            held.retain(|g| !g.temp);
        } else if t.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
            && tokens.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && tokens.get(i + 3).is_some_and(|n| n.is_punct(")"))
        {
            let victim = &tokens[i + 2].text;
            held.retain(|g| g.binding.as_deref() != Some(victim));
            i += 4;
            continue;
        } else if t.is_ident("lock")
            && i > 0
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
            && tokens.get(i + 2).is_some_and(|n| n.is_punct(")"))
        {
            let receiver = receiver_name(tokens, i - 1, start);
            let name = cfg.canonical(stem, &receiver);
            for g in &held {
                report_pair(file, tokens[i].line, &g.name, &name, cfg, diags);
            }
            let (binding, is_let) = let_binding(tokens, i, start);
            held.push(Held {
                name,
                binding,
                depth,
                temp: !is_let,
            });
        }
        i += 1;
    }
}

/// Whether the `{` at `i` opens a closure body: the preceding
/// significant token is a closure-parameter `|` or `||` (or `move`
/// never appears directly before `{` without them).
fn closure_brace(tokens: &[Token], i: usize, start: usize) -> bool {
    if i == start {
        return false;
    }
    let Some(prev) = i.checked_sub(1).and_then(|j| tokens.get(j)) else {
        return false;
    };
    if prev.is_punct("||") {
        return true;
    }
    if !prev.is_punct("|") {
        // `|args| -> Ret {` — tolerate a return type between `|` and `{`.
        if prev.kind == TokKind::Ident || prev.is_punct(">") {
            let mut j = i - 1;
            let mut steps = 0;
            while j > start && steps < 8 {
                if tokens[j].is_punct("|") || tokens[j].is_punct("||") {
                    return tokens.get(j + 1).is_some_and(|t| t.is_punct("->"))
                        || tokens[j].is_punct("||");
                }
                if tokens[j].is_punct("{") || tokens[j].is_punct("}") || tokens[j].is_punct(";") {
                    return false;
                }
                j -= 1;
                steps += 1;
            }
        }
        return false;
    }
    // Closing `|` of a parameter list: scan back for the opening `|`
    // within the same statement.
    let mut j = i - 2;
    while j > start {
        let t = &tokens[j];
        if t.is_punct("|") {
            return true;
        }
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return false;
        }
        if j == 0 {
            break;
        }
        j -= 1;
    }
    false
}

/// Canonical receiver of the postfix chain ending at the `.` before
/// `lock` (token index `dot`): the last top-level identifier that is
/// *not* a method call (`self.endpoints.get(&n).expect("..")` →
/// `endpoints`; `spaces[&node]` → `spaces`), falling back to the last
/// method name (`self.lane(obj)` → `lane`).
fn receiver_name(tokens: &[Token], dot: usize, start: usize) -> String {
    // Walk backwards collecting top-level chain identifiers.
    let mut j = dot;
    let mut plain: Option<String> = None;
    let mut call: Option<String> = None;
    while let Some(k) = j.checked_sub(1) {
        if k < start {
            break;
        }
        let t = &tokens[k];
        if t.is_punct(")") || t.is_punct("]") {
            let open = if t.text == ")" { "(" } else { "[" };
            let close = t.text.clone();
            let mut depth = 0i32;
            let mut m = k;
            loop {
                let tm = &tokens[m];
                if tm.is_punct(&close) {
                    depth += 1;
                } else if tm.is_punct(open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                let Some(next) = m.checked_sub(1) else { break };
                if next < start {
                    break;
                }
                m = next;
            }
            // The ident before `(` is a call name; before `[` it is a
            // plain indexed field.
            if let Some(p) = m.checked_sub(1) {
                if p >= start && tokens[p].kind == TokKind::Ident {
                    if close == ")" {
                        call.get_or_insert_with(|| tokens[p].text.clone());
                    } else if tokens[p].text != "self" {
                        plain.get_or_insert_with(|| tokens[p].text.clone());
                    }
                    j = p;
                    continue;
                }
            }
            j = m;
            continue;
        }
        if t.is_punct("?") || t.is_punct(".") {
            j = k;
            continue;
        }
        if t.kind == TokKind::Ident {
            if t.text != "self" && plain.is_none() {
                plain = Some(t.text.clone());
            }
            j = k;
            // Chain continues only through a further `.` / `?`.
            if j.checked_sub(1)
                .and_then(|p| tokens.get(p))
                .is_some_and(|p| p.is_punct(".") || p.is_punct("?"))
            {
                continue;
            }
            break;
        }
        break;
    }
    plain.or(call).unwrap_or_else(|| "<unknown>".to_string())
}

/// Whether the statement containing the `.lock()` at `i` is a
/// `let [mut] name = …` binding; returns the binding name.
fn let_binding(tokens: &[Token], i: usize, start: usize) -> (Option<String>, bool) {
    // Scan back to the statement start.
    let mut j = i;
    while j > start {
        let t = &tokens[j - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        j -= 1;
    }
    if tokens.get(j).is_some_and(|t| t.is_ident("let")) {
        let mut k = j + 1;
        if tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        if let Some(name) = tokens.get(k).filter(|t| t.kind == TokKind::Ident) {
            return (Some(name.text.clone()), true);
        }
    }
    (None, false)
}

/// Records findings for one nested pair `outer → inner`.
fn report_pair(
    file: &str,
    line: u32,
    outer: &str,
    inner: &str,
    cfg: &LockConfig,
    diags: &mut Vec<Diagnostic>,
) {
    if outer == inner {
        diags.push(Diagnostic {
            rule: Rule::LockOrder,
            file: file.to_string(),
            line,
            message: format!(
                "same-mutex re-entry: `{inner}` is acquired while a `{outer}` guard is still \
                 held — parking_lot mutexes are not re-entrant, this deadlocks"
            ),
        });
        return;
    }
    match (cfg.rank(outer), cfg.rank(inner)) {
        (Some(ro), Some(ri)) if ro > ri => diags.push(Diagnostic {
            rule: Rule::LockOrder,
            file: file.to_string(),
            line,
            message: format!(
                "lock-order inversion: `{inner}` acquired while holding `{outer}`, but the \
                 declared order is {:?} — this edge closes a deadlock cycle",
                cfg.order
            ),
        }),
        (Some(_), Some(_)) => {}
        _ => {
            let missing = if cfg.rank(outer).is_none() {
                outer
            } else {
                inner
            };
            diags.push(Diagnostic {
                rule: Rule::LockOrder,
                file: file.to_string(),
                line,
                message: format!(
                    "nested acquisition involves lock `{missing}` which is not declared in \
                     lock_order.toml — add it to `order` (or alias the receiver) so the pair \
                     can be checked"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Doc;
    use crate::lexer::lex;

    fn cfg() -> LockConfig {
        LockConfig::from_doc(
            &Doc::parse(
                "order = [\"endpoints\", \"spaces\", \"metrics\"]\n\
                 [aliases.f]\nendpoint = \"endpoints\"\nspace = \"spaces\"\n",
            )
            .expect("parse"),
        )
        .expect("config")
    }

    #[test]
    fn ordered_nesting_passes() {
        let src = "fn f(&self) { let mut endpoint = self.endpoints.get(&n).lock(); \
                    let mut space = self.spaces[&n].lock(); space.go(); }";
        assert!(check("f.rs", &lex(src), &cfg()).is_empty());
    }

    #[test]
    fn inversion_fires() {
        let src = "fn f(&self) { let mut space = self.spaces[&n].lock(); \
                    let mut endpoint = self.endpoints.get(&n).lock(); }";
        let diags = check("f.rs", &lex(src), &cfg());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("inversion"));
    }

    #[test]
    fn reentry_fires() {
        let src = "fn f(&self) { let a = self.metrics.lock(); let b = self.metrics.lock(); }";
        let diags = check("f.rs", &lex(src), &cfg());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("re-entry"));
    }

    #[test]
    fn block_scope_releases_guards() {
        let src = "fn f(&self) { { let mut space = self.spaces[&n].lock(); } \
                    let mut endpoint = self.endpoints.get(&n).lock(); }";
        assert!(check("f.rs", &lex(src), &cfg()).is_empty());
    }

    #[test]
    fn drop_releases_early() {
        let src = "fn f(&self) { let mut space = self.spaces[&n].lock(); drop(space); \
                    let mut endpoint = self.endpoints.get(&n).lock(); }";
        assert!(check("f.rs", &lex(src), &cfg()).is_empty());
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let src = "fn f(&self) { self.spaces[&n].lock().go(); \
                    let mut endpoint = self.endpoints.get(&n).lock(); }";
        assert!(check("f.rs", &lex(src), &cfg()).is_empty());
    }

    #[test]
    fn closures_are_separate_contexts() {
        let src = "fn f(&self) { let mut space = self.spaces[&n].lock(); \
                    run(move |x| { let e = self.endpoints.get(&x).lock(); }); }";
        assert!(check("f.rs", &lex(src), &cfg()).is_empty());
    }

    #[test]
    fn undeclared_nested_lock_fires() {
        let src = "fn f(&self) { let a = self.spaces[&n].lock(); let b = self.mystery.lock(); }";
        let diags = check("f.rs", &lex(src), &cfg());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("mystery"));
    }

    #[test]
    fn receiver_canonicalisation() {
        let lexed = lex("self.endpoints.get(&node).expect(\"x\").lock()");
        let dot = lexed
            .tokens
            .iter()
            .rposition(|t| t.is_punct("."))
            .expect("dot");
        assert_eq!(receiver_name(&lexed.tokens, dot, 0), "endpoints");
        let lexed = lex("self.lane(handle.object).lock()");
        let dot = lexed
            .tokens
            .iter()
            .rposition(|t| t.is_punct("."))
            .expect("dot");
        assert_eq!(receiver_name(&lexed.tokens, dot, 0), "lane");
    }
}
