//! Brace-matched item scanner: finds function items (with pub-ness and
//! the enclosing `impl` type) and masks `#[cfg(test)]` / `#[test]`
//! regions. Works on the token stream from `lexer`.

use crate::lexer::{Kind, Token};

#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// True only for bare `pub` — `pub(crate)` / `pub(super)` are not
    /// public entry points and stay false.
    pub is_pub: bool,
    pub line: u32,
    /// Token index range of the body `{ ... }`, inclusive of both braces.
    /// `None` for bodiless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    pub impl_type: Option<String>,
}

#[derive(Debug)]
pub struct FileScan {
    pub fns: Vec<FnItem>,
    /// Per-token mask: true when the token is inside a `#[cfg(test)]` or
    /// `#[test]` attributed item (including the attribute itself).
    pub test_mask: Vec<bool>,
}

fn is_punct(t: &Token, s: &str) -> bool {
    t.kind == Kind::Punct && t.text == s
}

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == Kind::Ident && t.text == s
}

/// Find the index of the matching close brace for the open brace at `open`.
/// Returns the last token index when unbalanced (forgiving).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        if is_punct(&tokens[i], "{") {
            depth += 1;
        } else if is_punct(&tokens[i], "}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Span of the item following an attribute: ends at the first `;` at
/// brace depth zero, or at the close of the first top-level `{ ... }`.
fn item_end(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    // Skip any further stacked attributes.
    while i + 1 < tokens.len() && is_punct(&tokens[i], "#") && is_punct(&tokens[i + 1], "[") {
        let close = matching_bracket(tokens, i + 1);
        i = close + 1;
    }
    while i < tokens.len() {
        if is_punct(&tokens[i], ";") {
            return i;
        }
        if is_punct(&tokens[i], "{") {
            return matching_brace(tokens, i);
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

fn matching_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < tokens.len() {
        if is_punct(&tokens[i], "[") {
            depth += 1;
        } else if is_punct(&tokens[i], "]") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

fn mask_test_regions(tokens: &[Token], mask: &mut [bool]) {
    let mut i = 0usize;
    while i + 1 < tokens.len() {
        if is_punct(&tokens[i], "#") && is_punct(&tokens[i + 1], "[") {
            let close = matching_bracket(tokens, i + 1);
            let attr = &tokens[i + 1..=close];
            // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]` — but
            // not `#[cfg(not(test))]`, which marks *non*-test code.
            let is_test_attr = attr.iter().any(|t| t.kind == Kind::Ident && t.text == "test")
                && !attr.iter().any(|t| t.kind == Kind::Ident && t.text == "not");
            if is_test_attr {
                let end = item_end(tokens, close + 1);
                for m in mask.iter_mut().take(end + 1).skip(i) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
}

/// Resolve the `impl` *type* name for an `impl` keyword at index `i`:
/// the first identifier at angle-depth zero after `for` if present
/// (`impl Trait for Type`), otherwise the first such identifier after any
/// generic parameter list. Returns (type_name, index_of_open_brace).
fn impl_header(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut angle = 0i64;
    let mut after_for = false;
    let mut first: Option<String> = None;
    let mut for_name: Option<String> = None;
    let mut j = i + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if is_punct(t, "{") && angle == 0 {
            let name = for_name.or(first)?;
            return Some((name, j));
        }
        if is_punct(t, ";") && angle == 0 {
            return None;
        }
        if is_punct(t, "<") {
            angle += 1;
        } else if is_punct(t, ">") {
            angle -= 1;
        } else if angle == 0 && t.kind == Kind::Ident {
            if t.text == "for" {
                after_for = true;
            } else if after_for {
                if for_name.is_none() {
                    for_name = Some(t.text.clone());
                }
            } else if first.is_none() && t.text != "dyn" {
                first = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Walk back from `fn` over qualifiers (`const`, `async`, `unsafe`,
/// `extern "C"`) to decide whether the item is a bare `pub`.
fn is_bare_pub(tokens: &[Token], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        if t.kind == Kind::Str {
            continue; // extern "C"
        }
        if t.kind == Kind::Ident
            && matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern")
        {
            continue;
        }
        if is_punct(t, ")") {
            // pub(crate) / pub(super) / pub(in ...): restricted, not an
            // entry point. Walk past it and stop.
            return false;
        }
        return is_ident(t, "pub");
    }
    false
}

pub fn scan(tokens: &[Token]) -> FileScan {
    let mut test_mask = vec![false; tokens.len()];
    mask_test_regions(tokens, &mut test_mask);

    // Pre-pass: which `{` tokens open an impl body, and for which type.
    let mut impl_open: std::collections::BTreeMap<usize, String> = std::collections::BTreeMap::new();
    for i in 0..tokens.len() {
        if is_ident(&tokens[i], "impl") {
            if let Some((name, open)) = impl_header(tokens, i) {
                impl_open.insert(open, name);
            }
        }
    }

    let mut fns = Vec::new();
    let mut impl_stack: Vec<Option<String>> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if is_punct(t, "{") {
            impl_stack.push(impl_open.get(&i).cloned());
        } else if is_punct(t, "}") {
            impl_stack.pop();
        } else if is_ident(t, "fn")
            && i + 1 < tokens.len()
            && tokens[i + 1].kind == Kind::Ident
        {
            let name = tokens[i + 1].text.clone();
            let line = t.line;
            let is_pub = is_bare_pub(tokens, i);
            // Find the body: first `{` before a depth-0 `;`, tracking
            // parens so `fn f(x: impl Fn() -> T)` does not confuse us.
            let mut j = i + 2;
            let mut paren = 0i64;
            let mut body = None;
            while j < tokens.len() {
                let u = &tokens[j];
                if is_punct(u, "(") || is_punct(u, "[") {
                    paren += 1;
                } else if is_punct(u, ")") || is_punct(u, "]") {
                    paren -= 1;
                } else if is_punct(u, ";") && paren == 0 {
                    break; // trait method declaration, no body
                } else if is_punct(u, "{") && paren == 0 {
                    body = Some((j, matching_brace(tokens, j)));
                    break;
                }
                j += 1;
            }
            let impl_type = impl_stack.iter().rev().find_map(|e| e.clone());
            fns.push(FnItem { name, is_pub, line, body, impl_type });
        }
        i += 1;
    }

    FileScan { fns, test_mask }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn finds_pub_fns_and_impl_types() {
        let src = "impl Service { pub fn a(&self) {} pub(crate) fn b(&self) {} fn c() {} }\n\
                   pub fn free() {}";
        let s = scan(&lex(src));
        let got: Vec<(String, bool, Option<String>)> = s
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.is_pub, f.impl_type.clone()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".into(), true, Some("Service".into())),
                ("b".into(), false, Some("Service".into())),
                ("c".into(), false, Some("Service".into())),
                ("free".into(), true, None),
            ]
        );
    }

    #[test]
    fn impl_trait_for_type_uses_type() {
        let src = "impl Display for Uid { fn fmt(&self) {} }";
        let s = scan(&lex(src));
        assert_eq!(s.fns[0].impl_type.as_deref(), Some("Uid"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn inner() { bad(); } }";
        let tokens = lex(src);
        let s = scan(&tokens);
        // Every token of the tests mod is masked; `live` is not.
        let live_idx = tokens.iter().position(|t| t.text == "live");
        let bad_idx = tokens.iter().position(|t| t.text == "bad");
        assert_eq!(live_idx.map(|i| s.test_mask[i]), Some(false));
        assert_eq!(bad_idx.map(|i| s.test_mask[i]), Some(true));
    }
}
