//! Minimal TOML-subset parser for `Lint.toml`: `[section]` headers,
//! `key = "string"`, `key = true|false`, `key = 123`, and string arrays
//! (single- or multi-line). Comments start with `#`. This deliberately
//! avoids any external TOML dependency — uc-lint must stay zero-dep.
//!
//! Beyond values, the parser records *where* each string item appeared
//! (1-based line numbers) so the stale-config rule can point its
//! diagnostics at the exact `Lint.toml` line that names a file or crate
//! that no longer exists.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(String),
    Bool(bool),
    Int(i64),
    List(Vec<String>),
}

#[derive(Debug, Default)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
    /// (section, key) -> each string item with the line it appeared on
    /// (list elements individually; scalar strings as one entry).
    item_lines: BTreeMap<(String, String), Vec<(String, u32)>>,
}

/// Strip a trailing `#` comment that is outside any string literal.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_scalar(v: &str) -> Result<Value, String> {
    let v = v.trim();
    if let Some(stripped) = v.strip_prefix('"') {
        let Some(end) = stripped.rfind('"') else {
            return Err(format!("unterminated string: {v}"));
        };
        return Ok(Value::Str(stripped[..end].to_string()));
    }
    if v == "true" {
        return Ok(Value::Bool(true));
    }
    if v == "false" {
        return Ok(Value::Bool(false));
    }
    v.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("unrecognized value: {v}"))
}

fn parse_list(body: &str) -> Result<Value, String> {
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match parse_scalar(part)? {
            Value::Str(s) => out.push(s),
            other => return Err(format!("non-string array element: {other:?}")),
        }
    }
    Ok(Value::List(out))
}

/// Extract every `"..."` literal from one physical (comment-stripped)
/// line, pairing it with `line_no`.
fn strings_on_line(text: &str, line_no: u32, out: &mut Vec<(String, u32)>) {
    let mut rest = text;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let Some(len) = after.find('"') else { break };
        out.push((after[..len].to_string(), line_no));
        rest = &after[len + 1..];
    }
}

impl Config {
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let line_no = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(end) = rest.find(']') else {
                    return Err(format!("bad section header: {raw}"));
                };
                section = rest[..end].trim().to_string();
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(format!("expected key = value: {raw}"));
            };
            let key = line[..eq].trim().to_string();
            let mut value = line[eq + 1..].trim().to_string();
            let mut items: Vec<(String, u32)> = Vec::new();
            strings_on_line(&value, line_no, &mut items);
            if value.starts_with('[') {
                // Array, possibly spanning lines: accumulate until the
                // bracket closes (brackets never nest in our config).
                while !value.contains(']') {
                    let Some((nidx, next)) = lines.next() else {
                        return Err(format!("unterminated array for key {key}"));
                    };
                    let next = strip_comment(next).trim();
                    strings_on_line(next, nidx as u32 + 1, &mut items);
                    value.push(' ');
                    value.push_str(next);
                }
                let open = value.find('[').unwrap_or(0);
                let close = value.rfind(']').unwrap_or(value.len() - 1);
                let parsed = parse_list(&value[open + 1..close])?;
                cfg.item_lines.insert((section.clone(), key.clone()), items);
                cfg.sections.entry(section.clone()).or_default().insert(key, parsed);
            } else {
                let parsed = parse_scalar(&value)?;
                cfg.item_lines.insert((section.clone(), key.clone()), items);
                cfg.sections.entry(section.clone()).or_default().insert(key, parsed);
            }
        }
        Ok(cfg)
    }

    pub fn list(&self, section: &str, key: &str) -> Vec<String> {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::List(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }

    pub fn str(&self, section: &str, key: &str) -> Option<String> {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Every string item of the key with the `Lint.toml` line it sits on.
    pub fn items(&self, section: &str, key: &str) -> Vec<(String, u32)> {
        self.item_lines
            .get(&(section.to_string(), key.to_string()))
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_lists_and_comments() {
        let cfg = Config::parse(
            "# top comment\n\
             [determinism]\n\
             allow_files = [\n  \"a/b.rs\", # why a\n  \"c/d.rs\",\n]\n\
             [instrument]\n\
             impl_type = \"UnityCatalog\" # the service\n",
        )
        .map_err(|e| panic!("{e}"))
        .unwrap_or_default();
        assert_eq!(cfg.list("determinism", "allow_files"), vec!["a/b.rs", "c/d.rs"]);
        assert_eq!(cfg.str("instrument", "impl_type").as_deref(), Some("UnityCatalog"));
        assert!(cfg.list("missing", "key").is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("not a kv line\n").is_err());
        assert!(Config::parse("[hygiene]\nallow_crates = [\"a\"").is_err());
    }

    #[test]
    fn tracks_item_and_key_lines() {
        let cfg = Config::parse(
            "[determinism]\n\
             allow_files = [\n  \"a/b.rs\",\n  \"c/d.rs\", # note\n]\n\
             [instrument]\n\
             impl_type = \"Svc\"\n",
        )
        .map_err(|e| panic!("{e}"))
        .unwrap_or_default();
        assert_eq!(
            cfg.items("determinism", "allow_files"),
            vec![("a/b.rs".to_string(), 3), ("c/d.rs".to_string(), 4)]
        );
        assert_eq!(cfg.items("instrument", "impl_type"), vec![("Svc".to_string(), 7)]);
    }
}
