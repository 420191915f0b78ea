//! JSON text: the one reader and the one printer.
//!
//! [`Reader`] is a cursor over validated UTF-8 text. [`Reader::parse_value`]
//! builds a [`Value`] tree; typed targets (`Deserialize::from_json`) pull
//! tokens straight off the same cursor instead, so a struct decode never
//! builds the tree, and a string with no escapes is copied once, into the
//! `String` that keeps it. The grammar is RFC 8259's: no leading zeros, no
//! bare `.` or exponent, no raw control characters inside strings.
//!
//! The printer writes compact text into one buffer; [`write_value`] prints
//! a tree, and typed values print themselves (`Serialize::write_json`)
//! byte for byte the same.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::{Error, Number, Value};

/// A cursor over JSON text.
pub struct Reader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(src: &'a str) -> Self {
        Reader { src, bytes: src.as_bytes(), pos: 0 }
    }

    /// Succeeds when only whitespace is left.
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing characters")),
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    /// The next byte after whitespace, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, what: &str) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        let found = self.bytes[self.pos..].starts_with(kw.as_bytes());
        if found {
            self.pos += kw.len();
        }
        found
    }

    /// One value, as a tree.
    pub fn parse_value(&mut self) -> Result<Value, Error> {
        Ok(match self.peek() {
            Some(b'"') => Value::String(self.str()?.into_owned()),
            Some(b'[') => {
                let (mut items, mut first) = (Vec::new(), true);
                while self.next_element(&mut first)? {
                    items.push(self.parse_value()?);
                }
                Value::Array(items)
            }
            Some(b'{') => {
                let (mut entries, mut first) = (Vec::new(), true);
                while let Some(key) = self.next_key(&mut first)? {
                    entries.push((key.into_owned(), self.parse_value()?));
                }
                Value::Object(entries)
            }
            Some(b'-' | b'0'..=b'9') => Value::Number(self.number()?),
            Some(_) if self.keyword("null") => Value::Null,
            Some(_) if self.keyword("true") => Value::Bool(true),
            Some(_) if self.keyword("false") => Value::Bool(false),
            _ => return Err(self.err("unexpected character")),
        })
    }

    /// Step over one value, validating it as [`Reader::parse_value`] does
    /// without building it.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                self.string_body(None)
            }
            Some(b'[') => {
                let mut first = true;
                while self.next_element(&mut first)? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut first = true;
                while self.next_key(&mut first)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            // A scalar's tree holds nothing on the heap.
            _ => self.parse_value().map(drop),
        }
    }

    /// Advance to the next element of an array: the first call consumes
    /// the `[`, and `false` means the `]` was consumed.
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, Error> {
        if std::mem::take(first) {
            self.expect(b'[', "expected '['")?;
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(false);
            }
            return Ok(true);
        }
        match self.peek() {
            Some(b',') => self.pos += 1,
            Some(b']') => {
                self.pos += 1;
                return Ok(false);
            }
            _ => return Err(self.err("expected ',' or ']'")),
        }
        Ok(true)
    }

    /// Advance to the next member of an object and return its key, with
    /// the `:` consumed: the first call consumes the `{`, and `None` means
    /// the `}` was consumed.
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>, Error> {
        if std::mem::take(first) {
            self.expect(b'{', "expected '{'")?;
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(None);
            }
        } else {
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(None);
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
        let key = self.str()?;
        self.expect(b':', "expected ':'")?;
        Ok(Some(key))
    }

    /// A string: borrowed from the text when it has no escapes; otherwise
    /// decoded, run by run, into a buffer the size of the escaped text.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"', "expected '\"'")?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Borrowed(&self.src[start..self.pos - 1]));
                }
                b'\\' => break,
                _ if b < 0x20 => break,
                _ => self.pos += 1,
            }
        }
        self.pos = start;
        self.string_body(None)?;
        let mut out = String::with_capacity(self.pos - 1 - start);
        self.pos = start;
        self.string_body(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    /// Read a string's body through its closing quote, appending the
    /// decoded text to `out` when there is one. Runs between escapes are
    /// sliced at ASCII delimiters, so they are never re-validated.
    fn string_body(&mut self, mut out: Option<&mut String>) -> Result<(), Error> {
        loop {
            let run = self.pos;
            while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            if let Some(out) = out.as_mut() {
                out.push_str(&self.src[run..self.pos]);
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if let Some(out) = out.as_mut() {
                        out.push(c);
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape (past its `\`) stands for.
    fn escape(&mut self) -> Result<char, Error> {
        let esc = *self.bytes.get(self.pos).ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    if !self.keyword("\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                } else {
                    first
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits =
            self.bytes.get(self.pos..self.pos + 4).ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &d in digits {
            code = code * 16 + (d as char).to_digit(16).ok_or_else(|| self.err("bad \\u escape"))?;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Consume a run of digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number: an integer that fits keeps its sign's integer type
    /// (`U64` when non-negative, `I64` when negative); anything else is
    /// an `F64`.
    pub fn number(&mut self) -> Result<Number, Error> {
        self.peek();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("bad number")),
        }
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            is_float = true;
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
            is_float = true;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("bad number"));
            }
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Number::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Number::U64(v));
            }
        }
        text.parse::<f64>().map(Number::F64).map_err(|_| self.err("bad number"))
    }
}

/// Print a tree: compact when `indent` is `None`, else pretty with that
/// many spaces per level.
pub fn write_value(out: &mut String, value: &Value, indent: Option<usize>) {
    write_at(out, value, indent, 0);
}

fn write_at(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_at(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_at(out, v, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    let _ = match n {
        Number::I64(v) => write!(out, "{v}"),
        Number::U64(v) => write!(out, "{v}"),
        // Debug formatting keeps a decimal point ("1.0") and is the
        // shortest representation that round-trips.
        Number::F64(v) if v.is_finite() => write!(out, "{v:?}"),
        Number::F64(_) => out.write_str("null"),
    };
}

/// Print a string, quoted; runs with nothing to escape are copied whole.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}
