//! Diagnostics: one violation with its location, plus text and JSON
//! renderers for `--check` and `--json` output.

use std::fmt;

/// The lint rule a diagnostic belongs to. The names here are also the
/// allow-comment keys: `// lint: allow(panic) — reason`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `unwrap`/`expect`/`panic!`/`unreachable!` in non-test protocol
    /// code.
    Panic,
    /// Raw `-`/`duration_since` on time-valued operands outside the
    /// clock implementation.
    Time,
    /// A nested lock acquisition violating the declared partial order.
    LockOrder,
}

impl Rule {
    /// The allow-comment key and JSON label.
    pub const fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::Time => "time",
            Rule::LockOrder => "lock-order",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One violation at a file:line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Renders diagnostics as a JSON array (machine-readable `--json` mode).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            d.rule,
            escape(&d.file),
            d.line,
            escape(&d.message),
            if i + 1 == diags.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_shapes() {
        let diags = vec![Diagnostic {
            rule: Rule::Panic,
            file: "a \"b\".rs".into(),
            line: 7,
            message: "line\nbreak".into(),
        }];
        let json = to_json(&diags);
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("\\n"));
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
