//! Configuration files for the lint pass, parsed with a deliberately
//! tiny TOML-subset reader (the build environment has no crates.io
//! access, and the config file only needs string values, string
//! arrays, and `[section.sub]` tables).
//!
//! Supported grammar per line:
//! - `# comment` / blank
//! - `[section]` / `[section.sub]` (dotted, unquoted keys)
//! - `key = "value"`
//! - `key = ["a", "b", ...]` (single line)

use std::collections::BTreeMap;

/// A parsed TOML-subset document: scalar strings and string arrays,
/// keyed by `section.key` (top-level keys have no `section.` prefix).
#[derive(Debug, Default)]
pub struct Doc {
    pub strings: BTreeMap<String, String>,
    pub arrays: BTreeMap<String, Vec<String>>,
}

impl Doc {
    /// Parses `src`, failing loudly on anything outside the subset so a
    /// malformed config cannot silently disable a rule.
    pub fn parse(src: &str) -> Result<Doc, String> {
        let mut doc = Doc::default();
        let mut section = String::new();
        for (idx, raw) in src.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section header", idx + 1))?;
                section = name.trim().to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", idx + 1))?;
            let key = key.trim();
            let value = value.trim();
            let full_key = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            if let Some(inner) = value.strip_prefix('[') {
                let inner = inner
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: arrays must be single-line", idx + 1))?;
                let mut items = Vec::new();
                for item in split_top_level_commas(inner) {
                    let item = item.trim();
                    if item.is_empty() {
                        continue;
                    }
                    items.push(unquote(item).map_err(|e| format!("line {}: {e}", idx + 1))?);
                }
                doc.arrays.insert(full_key, items);
            } else {
                doc.strings.insert(
                    full_key,
                    unquote(value).map_err(|e| format!("line {}: {e}", idx + 1))?,
                );
            }
        }
        Ok(doc)
    }

    /// All `section.key = "value"` pairs under one section, with the
    /// section prefix stripped.
    pub fn section_strings(&self, section: &str) -> BTreeMap<String, String> {
        let prefix = format!("{section}.");
        self.strings
            .iter()
            .filter_map(|(k, v)| {
                k.strip_prefix(&prefix)
                    .map(|rest| (rest.to_string(), v.clone()))
            })
            .collect()
    }
}

fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                items.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&s[start..]);
    items
}

fn unquote(s: &str) -> Result<String, String> {
    let inner = s
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got `{s}`"))?;
    Ok(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let doc = Doc::parse(
            r#"
# comment
order = ["a", "b", "c"]
[aliases.tcp_fabric]
endpoint = "endpoints"
space = "spaces"
"#,
        )
        .expect("valid config");
        assert_eq!(doc.arrays["order"], vec!["a", "b", "c"]);
        let aliases = doc.section_strings("aliases.tcp_fabric");
        assert_eq!(aliases["endpoint"], "endpoints");
        assert_eq!(aliases["space"], "spaces");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Doc::parse("key value-without-equals").is_err());
        assert!(Doc::parse("key = unquoted").is_err());
        assert!(Doc::parse("[unterminated").is_err());
    }
}
