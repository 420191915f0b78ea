//! A lightweight Rust lexer: just enough fidelity to walk real source —
//! raw/byte strings, nested block comments, lifetimes vs char literals —
//! without pulling in a full parser. Token text is preserved so rules can
//! pattern-match on identifier sequences; string literals keep their
//! *contents* (no quotes) so instrumentation rules can read op names.

/// Token classes the rules care about. Everything that is not one of the
/// named classes is a single `Punct` (with `::` fused into one token so
/// path patterns like `SystemTime :: now` are three tokens, not four).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ident,
    Punct,
    Str,
    Char,
    Lifetime,
    Num,
}

#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Kind,
    pub text: String,
    pub line: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex a whole source file. Never fails: unterminated constructs consume
/// to end-of-file, which is the forgiving behavior a linter wants.
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < n {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers doc comments).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Nested block comment.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw / byte string prefixes: r"", r#""#, b"", br#""#.
        if c == 'r' || c == 'b' {
            let mut j = i;
            let mut saw_r = false;
            if b[j] == 'b' {
                j += 1;
                if j < n && b[j] == 'r' {
                    saw_r = true;
                    j += 1;
                }
            } else {
                saw_r = true;
                j += 1;
            }
            let mut hashes = 0usize;
            if saw_r {
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
            }
            if j < n && b[j] == '"' && (saw_r || hashes == 0) {
                // It really is a (raw/byte) string literal.
                let start_line = line;
                let raw = saw_r && (hashes > 0 || b[i] == 'r' || (b[i] == 'b' && b[i + 1] == 'r'));
                let mut text = String::new();
                i = j + 1;
                'strloop: while i < n {
                    if b[i] == '\n' {
                        line += 1;
                        text.push('\n');
                        i += 1;
                        continue;
                    }
                    if !raw && b[i] == '\\' && i + 1 < n {
                        text.push(b[i]);
                        text.push(b[i + 1]);
                        i += 2;
                        continue;
                    }
                    if b[i] == '"' {
                        // Raw strings need `"` followed by `hashes` hashes.
                        let mut k = i + 1;
                        let mut seen = 0usize;
                        while seen < hashes && k < n && b[k] == '#' {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            i = k;
                            break 'strloop;
                        }
                    }
                    text.push(b[i]);
                    i += 1;
                }
                out.push(Token { kind: Kind::Str, text, line: start_line });
                continue;
            }
            // Fall through: plain identifier starting with r/b.
        }
        if is_ident_start(c) {
            let mut text = String::new();
            while i < n && is_ident_continue(b[i]) {
                text.push(b[i]);
                i += 1;
            }
            out.push(Token { kind: Kind::Ident, text, line });
            continue;
        }
        if c.is_ascii_digit() {
            let mut text = String::new();
            while i < n
                && (is_ident_continue(b[i])
                    || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
            {
                text.push(b[i]);
                i += 1;
            }
            out.push(Token { kind: Kind::Num, text, line });
            continue;
        }
        if c == '"' {
            let start_line = line;
            let mut text = String::new();
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    text.push(b[i]);
                    text.push(b[i + 1]);
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    i += 1;
                    break;
                }
                if b[i] == '\n' {
                    line += 1;
                }
                text.push(b[i]);
                i += 1;
            }
            out.push(Token { kind: Kind::Str, text, line: start_line });
            continue;
        }
        if c == '\'' {
            // Lifetime vs char literal. `'a` (ident not closed by a quote)
            // is a lifetime; `'a'`, `'\n'`, `'\u{1F600}'` are chars.
            if i + 1 < n && b[i + 1] == '\\' {
                // Escaped char literal: scan to the closing quote.
                let start_line = line;
                let mut text = String::new();
                i += 1;
                while i < n && b[i] != '\'' {
                    if b[i] == '\\' && i + 1 < n {
                        text.push(b[i]);
                        text.push(b[i + 1]);
                        i += 2;
                        continue;
                    }
                    text.push(b[i]);
                    i += 1;
                }
                i += 1; // closing quote
                out.push(Token { kind: Kind::Char, text, line: start_line });
                continue;
            }
            if i + 1 < n && is_ident_start(b[i + 1]) {
                let mut j = i + 1;
                while j < n && is_ident_continue(b[j]) {
                    j += 1;
                }
                if j < n && b[j] == '\'' {
                    // 'x' — a char literal.
                    let text: String = b[i + 1..j].iter().collect();
                    out.push(Token { kind: Kind::Char, text, line });
                    i = j + 1;
                } else {
                    // 'lifetime
                    let text: String = b[i + 1..j].iter().collect();
                    out.push(Token { kind: Kind::Lifetime, text, line });
                    i = j;
                }
                continue;
            }
            // `'('` style single-punct char, or a stray quote.
            if i + 2 < n && b[i + 2] == '\'' {
                out.push(Token { kind: Kind::Char, text: b[i + 1].to_string(), line });
                i += 3;
                continue;
            }
            i += 1;
            continue;
        }
        // `::` fused; everything else is a single-char punct.
        if c == ':' && i + 1 < n && b[i + 1] == ':' {
            out.push(Token { kind: Kind::Punct, text: "::".into(), line });
            i += 2;
            continue;
        }
        out.push(Token { kind: Kind::Punct, text: c.to_string(), line });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn fuses_path_separator() {
        assert_eq!(texts("SystemTime::now()"), vec!["SystemTime", "::", "now", "(", ")"]);
    }

    #[test]
    fn raw_strings_do_not_leak_tokens() {
        let lexed = lex(r####"let s = r#"SystemTime::now() "quoted" "#; x"####);
        let idents: Vec<&str> = lexed
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "s", "x"]);
        // the raw-string content is carried on one Str token
        assert!(lexed
            .iter()
            .any(|t| t.kind == Kind::Str && t.text.contains("SystemTime::now")));
    }

    #[test]
    fn nested_block_comments() {
        assert_eq!(texts("a /* one /* two */ still comment */ b"), vec!["a", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lexed = lex("fn f<'a>(x: &'a str) { let c = 'a'; let nl = '\\n'; }");
        let lifetimes: Vec<&str> = lexed
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars = lexed.iter().filter(|t| t.kind == Kind::Char).count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn tracks_lines_across_strings_and_comments() {
        let lexed = lex("a\n\"two\nline\"\n/*\n*/\nb");
        let a = &lexed[0];
        let b = &lexed[2];
        assert_eq!((a.text.as_str(), a.line), ("a", 1));
        assert_eq!((b.text.as_str(), b.line), ("b", 6));
    }
}
