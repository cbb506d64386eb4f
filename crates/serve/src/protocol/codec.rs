//! The reader and writer behind [`super::Wire`]: one strict pass over a
//! line that fills the message, and one pre-sized `String` out, with no
//! `serde::Value` tree in between.
//!
//! [`Reader`] accepts exactly the grammar of the vendored `serde::json`
//! parser (the same number grammar, escapes and surrogate pairs, raw
//! control characters inside strings) and fails with the same messages at
//! the same byte offsets. The field codecs ([`num`], [`flag`], [`text`],
//! [`ids`], [`nested`]) convert one scanned value the way the vendored
//! `Deserialize` impls convert a `Value`, with the same error text, and
//! write it the way `serde::json::to_string` prints it. The one exception
//! is depth: nesting past [`MAX_DEPTH`] fails here, however deep the
//! vendored parser would have recursed.

use super::MAX_DEPTH;
use serde::Error as SerdeError;
use std::borrow::Cow;

/// One scanned JSON value. Containers are only validated: a field that
/// wants one reads the span [`Reader::value`] returns beside it.
pub(super) enum Tok<'a> {
    Null,
    Bool(bool),
    /// An integer literal that fits `u64`.
    U64(u64),
    /// A negative integer literal that fits `i64` (and `-0`).
    I64(i64),
    /// Any other number.
    F64,
    Str(Cow<'a, str>),
    Array,
    Object,
}

impl Tok<'_> {
    /// The vendored `Value::kind` name, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Tok::Null => "null",
            Tok::Bool(_) => "bool",
            Tok::U64(_) | Tok::I64(_) => "integer",
            Tok::F64 => "number",
            Tok::Str(_) => "string",
            Tok::Array => "array",
            Tok::Object => "object",
        }
    }
}

/// Which fields of a message have been read, and the conversion error the
/// vendored `from_value` would have reported: the one of the earliest
/// field in declaration order, reported only once the whole line has
/// parsed.
#[derive(Default)]
pub(super) struct Checks {
    seen: u32,
    error: Option<(u32, String)>,
}

impl Checks {
    /// Marks field `key` as read; `false` if it already was. A repeated
    /// key keeps its first value and is only checked as JSON.
    pub(super) fn first(&mut self, key: u32) -> bool {
        let bit = 1 << key;
        let first = self.seen & bit == 0;
        self.seen |= bit;
        first
    }

    /// Records that field `key`, named `name`, did not convert.
    pub(super) fn fail(&mut self, key: u32, name: &str, e: String) {
        if self.error.as_ref().is_none_or(|&(k, _)| key < k) {
            self.error = Some((key, format!("field {name:?}: {e}")));
        }
    }

    /// The message's verdict once its line has parsed: field 0, `head`,
    /// is required.
    pub(super) fn finish(self, head: &str) -> Result<(), SerdeError> {
        if self.seen & 1 == 0 {
            return Err(SerdeError::new(format!("missing field {head:?}")));
        }
        match self.error {
            Some((_, e)) => Err(SerdeError::new(e)),
            None => Ok(()),
        }
    }
}

/// Reads one message line (already trimmed): `member(key, value, span)`
/// sees every member of the top-level object in line order, duplicates
/// included. Anything but an object is still parsed in full — a syntax
/// error wins — and then refused as `"{what}: expected a JSON object"`.
pub(super) fn read_object<'a>(
    line: &'a str,
    what: &str,
    mut member: impl FnMut(&str, Tok<'a>, &'a str),
) -> Result<(), SerdeError> {
    let mut r = Reader {
        text: line,
        pos: 0,
        depth: 0,
    };
    r.skip_ws();
    if r.peek() != Some(b'{') {
        r.value()?;
        r.end()?;
        return Err(SerdeError::new(format!("{what}: expected a JSON object")));
    }
    r.pos += 1;
    r.depth = 1;
    let mut first = true;
    while let Some((key, tok, span)) = r.member(first)? {
        first = false;
        member(&key, tok, span);
    }
    r.end()
}

/// A cursor over JSON text.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), SerdeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(SerdeError::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Steps into an array or object at `pos`, refusing one level past
    /// [`MAX_DEPTH`]. The caller steps back out with `depth -= 1`.
    fn open(&mut self) -> Result<(), SerdeError> {
        if self.depth == MAX_DEPTH {
            return Err(SerdeError::new(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Nothing but whitespace may follow the top-level value.
    fn end(&mut self) -> Result<(), SerdeError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(SerdeError::new(format!(
                "trailing characters at byte {} of JSON input",
                self.pos
            )));
        }
        Ok(())
    }

    /// One value and its text (leading whitespace skipped, not included).
    fn value(&mut self) -> Result<(Tok<'a>, &'a str), SerdeError> {
        self.skip_ws();
        let start = self.pos;
        let tok = match self.peek() {
            None => return Err(SerdeError::new("unexpected end of JSON input")),
            Some(b'n') => self.keyword("null", Tok::Null)?,
            Some(b't') => self.keyword("true", Tok::Bool(true))?,
            Some(b'f') => self.keyword("false", Tok::Bool(false))?,
            Some(b'"') => Tok::Str(self.string()?),
            Some(b'[') => {
                self.open()?;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                } else {
                    loop {
                        self.value()?;
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                break;
                            }
                            _ => {
                                return Err(SerdeError::new(format!(
                                    "expected ',' or ']' at byte {}",
                                    self.pos
                                )))
                            }
                        }
                    }
                }
                self.depth -= 1;
                Tok::Array
            }
            Some(b'{') => {
                self.open()?;
                let mut first = true;
                while self.member(first)?.is_some() {
                    first = false;
                }
                self.depth -= 1;
                Tok::Object
            }
            Some(_) => self.number()?,
        };
        Ok((tok, &self.text[start..self.pos]))
    }

    /// The next `"key": value` of an object whose `{` is consumed, or
    /// `None` once its `}` is.
    fn member(
        &mut self,
        first: bool,
    ) -> Result<Option<(Cow<'a, str>, Tok<'a>, &'a str)>, SerdeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                return Ok(None);
            }
            Some(b',') if !first => self.pos += 1,
            _ if first => {}
            _ => {
                return Err(SerdeError::new(format!(
                    "expected ',' or '}}' at byte {}",
                    self.pos
                )))
            }
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        let (tok, span) = self.value()?;
        Ok(Some((key, tok, span)))
    }

    fn keyword(&mut self, word: &str, tok: Tok<'a>) -> Result<Tok<'a>, SerdeError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(tok)
        } else {
            Err(SerdeError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// A string, borrowed from the line unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, SerdeError> {
        self.expect(b'"')?;
        let start = self.pos;
        let mut out = String::new();
        let mut run = start;
        loop {
            // Everything but `"` and `\` is taken as it stands, raw
            // control characters and multi-byte UTF-8 included.
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            match self.peek() {
                None => return Err(SerdeError::new("unterminated string in JSON input")),
                Some(b'"') => {
                    self.pos += 1;
                    if run == start {
                        return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
                    }
                    out.push_str(&self.text[run..self.pos - 1]);
                    return Ok(Cow::Owned(out));
                }
                _ => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    self.escape(&mut out)?;
                    run = self.pos;
                }
            }
        }
    }

    /// The escape after a `\`, appended to `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), SerdeError> {
        let Some(esc) = self.peek() else {
            return Err(SerdeError::new("unterminated escape in JSON input"));
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect \uXXXX low half.
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(SerdeError::new("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(
                    char::from_u32(code).ok_or_else(|| SerdeError::new("invalid \\u escape"))?,
                );
            }
            _ => {
                return Err(SerdeError::new(format!(
                    "invalid escape '\\{}'",
                    esc as char
                )))
            }
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, SerdeError> {
        let bytes = self.text.as_bytes();
        if self.pos + 4 > bytes.len() {
            return Err(SerdeError::new("truncated \\u escape"));
        }
        let v = std::str::from_utf8(&bytes[self.pos..self.pos + 4])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| SerdeError::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// A number token: the longest run of `-`, digits, `.`, `e`, `E` and
    /// `+`, held to the JSON number grammar.
    fn number(&mut self) -> Result<Tok<'a>, SerdeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(SerdeError::new(format!(
                "invalid character at byte {start}"
            )));
        }
        if !valid_json_number(text) {
            return Err(SerdeError::new(format!("invalid number {text:?}")));
        }
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Tok::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Tok::I64(i));
            }
        }
        text.parse::<f64>()
            .map(|_| Tok::F64)
            .map_err(|_| SerdeError::new(format!("invalid number {text:?}")))
    }
}

/// The RFC 8259 number grammar:
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
fn valid_json_number(text: &str) -> bool {
    let b = text.as_bytes();
    let digits = |i: &mut usize| {
        let from = *i;
        while matches!(b.get(*i), Some(b'0'..=b'9')) {
            *i += 1;
        }
        *i > from
    };
    let mut i = usize::from(b.first() == Some(&b'-'));
    match b.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if b.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == b.len()
}

/// Appends the decimal digits of `v`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Only ASCII digits were written.
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap_or_default());
}

/// The vendored unsigned conversion: a non-negative integer literal in
/// range of the target type.
fn unsigned(tok: &Tok, max: u64, ty: &str) -> Result<u64, String> {
    let raw = match *tok {
        Tok::U64(u) => u,
        Tok::I64(i) if i >= 0 => i as u64,
        ref other => return Err(format!("expected unsigned integer, got {}", other.kind())),
    };
    if raw > max {
        return Err(format!("integer {raw} out of range for {ty}"));
    }
    Ok(raw)
}

/// `u64` fields.
pub(super) mod num {
    use super::Tok;

    pub(in super::super) fn read(tok: Tok, _span: &str) -> Result<Option<u64>, String> {
        match tok {
            Tok::Null => Ok(None),
            tok => super::unsigned(&tok, u64::MAX, "u64").map(Some),
        }
    }

    pub(in super::super) fn write(out: &mut String, v: &u64) {
        super::push_u64(out, *v);
    }

    pub(in super::super) fn hint(_: &Option<u64>) -> usize {
        32
    }
}

/// `bool` fields.
pub(super) mod flag {
    use super::Tok;

    pub(in super::super) fn read(tok: Tok, _span: &str) -> Result<Option<bool>, String> {
        match tok {
            Tok::Null => Ok(None),
            Tok::Bool(b) => Ok(Some(b)),
            other => Err(format!("expected bool, got {}", other.kind())),
        }
    }

    pub(in super::super) fn write(out: &mut String, v: &bool) {
        out.push_str(if *v { "true" } else { "false" });
    }

    pub(in super::super) fn hint(_: &Option<bool>) -> usize {
        24
    }
}

/// `String` fields, and the required head field of each message.
pub(super) mod text {
    use super::Tok;

    /// A field that must be a string (`null` included in what it is not).
    pub(in super::super) fn required(tok: Tok) -> Result<String, String> {
        match tok {
            Tok::Str(s) => Ok(s.into_owned()),
            other => Err(format!("expected string, got {}", other.kind())),
        }
    }

    pub(in super::super) fn read(tok: Tok, _span: &str) -> Result<Option<String>, String> {
        match tok {
            Tok::Null => Ok(None),
            tok => required(tok).map(Some),
        }
    }

    /// Quoted, with `\" \\ \n \r \t` and lowercase `\u00xx` for the other
    /// control characters; everything else, non-ASCII included, raw.
    pub(in super::super) fn write(out: &mut String, s: &str) {
        out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[run..i]);
            if esc.is_empty() {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            } else {
                out.push_str(esc);
            }
            run = i + 1;
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    pub(in super::super) fn hint(s: &Option<String>) -> usize {
        s.as_ref().map_or(0, |s| 24 + s.len())
    }
}

/// `Vec<u32>` fields (the stream frames' assignment arrays).
pub(super) mod ids {
    use super::{Reader, Tok};

    pub(in super::super) fn read(tok: Tok, span: &str) -> Result<Option<Vec<u32>>, String> {
        match tok {
            Tok::Null => return Ok(None),
            Tok::Array => {}
            other => return Err(format!("expected array, got {}", other.kind())),
        }
        // The span already parsed as an array: only conversions can fail.
        let mut r = Reader {
            text: span,
            pos: 1,
            depth: 1,
        };
        let mut out = Vec::new();
        loop {
            r.skip_ws();
            match r.peek() {
                Some(b']') => return Ok(Some(out)),
                Some(b',') => r.pos += 1,
                _ => {}
            }
            let (tok, _) = r.value().map_err(|e| e.to_string())?;
            out.push(super::unsigned(&tok, u32::MAX.into(), "u32")? as u32);
        }
    }

    pub(in super::super) fn write(out: &mut String, v: &[u32]) {
        out.push('[');
        for (i, &x) in v.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            super::push_u64(out, x.into());
        }
        out.push(']');
    }

    pub(in super::super) fn hint(v: &Option<Vec<u32>>) -> usize {
        v.as_ref().map_or(0, |v| 24 + 11 * v.len())
    }
}

/// Nested values (edits, events, stages, stats, metrics): the vendored
/// serde over their own span.
pub(super) mod nested {
    use super::Tok;
    use serde::{json, Deserialize, Serialize};

    pub(in super::super) fn read<'de, T: Deserialize<'de>>(
        tok: Tok,
        span: &str,
    ) -> Result<Option<T>, String> {
        match tok {
            Tok::Null => Ok(None),
            _ => json::from_str(span).map(Some).map_err(|e| e.to_string()),
        }
    }

    pub(in super::super) fn write<T: Serialize>(out: &mut String, v: &T) {
        out.push_str(&json::to_string(v));
    }

    pub(in super::super) fn hint<T>(v: &Option<T>) -> usize {
        v.as_ref().map_or(0, |_| 96)
    }
}
