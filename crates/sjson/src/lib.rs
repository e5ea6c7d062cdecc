#![warn(missing_docs)]

//! # sjson — minimal JSON for the scholar stack
//!
//! A small, dependency-free JSON layer: one reader and one writer. It
//! covers exactly what the workspace needs — corpus JSONL records,
//! partial configuration files, and machine-readable CLI/bench output —
//! with a tree-model [`Value`] and ergonomic accessors.
//!
//! The reader is [`Scanner`], a pull scanner over borrowed text with
//! line/column error reporting. [`parse`] builds a [`Value`] on it; a
//! loader that wants a few fields of each record scans them in place,
//! copying a string only when it holds an escape.
//!
//! Both writers (compact and pretty) render through two byte-level
//! primitives, [`write_str`] and [`write_number`], which servers and
//! the corpus writer also call directly to emit JSON without building a
//! [`Value`].
//!
//! Object key order is preserved (insertion order), which keeps emitted
//! JSON stable and diffs readable.

use std::borrow::Cow;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Look up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an `i64`, if it is integral and in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && n.is_finite() => {
                if *n >= i64::MIN as f64 && *n <= i64::MAX as f64 {
                    Some(*n as i64)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The number as a `u64`, if it is integral and non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self.as_i64() {
            Some(n) if n >= 0 => Some(n as u64),
            _ => None,
        }
    }

    /// The number as a `usize`, if it is integral and non-negative.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|n| n as usize)
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// `true` if this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Serialize compactly (no whitespace), through [`write_str`] and
    /// [`write_number`].
    pub fn to_string_compact(&self) -> String {
        render(|out| write_compact(self, out))
    }

    /// Serialize with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        render(|out| write_pretty(self, 0, out))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}
impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Number(n as f64)
    }
}
impl From<i32> for Value {
    fn from(n: i32) -> Self {
        Value::Number(n as f64)
    }
}
impl From<u64> for Value {
    /// Lossy above 2^53: like JavaScript, numbers are stored as `f64`,
    /// so integers beyond `2^53` round to the nearest representable
    /// double (e.g. `2^53 + 1` becomes `2^53`).
    fn from(n: u64) -> Self {
        Value::Number(n as f64)
    }
}
impl From<usize> for Value {
    /// Lossy above 2^53, like `From<u64>`.
    fn from(n: usize) -> Self {
        Value::Number(n as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}
impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Self {
        Value::Array(items)
    }
}

/// Convenience builder for objects with preserved key order.
#[derive(Debug, Default, Clone)]
pub struct ObjectBuilder {
    pairs: Vec<(String, Value)>,
}

impl ObjectBuilder {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a key/value pair.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.pairs.push((key.to_string(), value.into()));
        self
    }

    /// Finish into a [`Value::Object`].
    pub fn build(self) -> Value {
        Value::Object(self.pairs)
    }
}

/// A parse error with 1-based position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at line {} column {}", self.message, self.line, self.column)
    }
}

impl std::error::Error for Error {}

/// Parse a complete JSON document; trailing non-whitespace is an error.
/// The tree is built from a [`Scanner`], so this and every field
/// scanner share one grammar.
pub fn parse(input: &str) -> Result<Value, Error> {
    let mut s = Scanner::new(input);
    let v = tree(&mut s)?;
    s.finish()?;
    Ok(v)
}

/// The value at the scanner's position, as a tree.
fn tree(s: &mut Scanner<'_>) -> Result<Value, Error> {
    Ok(match s.peek()? {
        Kind::Null => {
            s.null()?;
            Value::Null
        }
        Kind::Bool => Value::Bool(s.bool()?),
        Kind::Number => Value::Number(s.number()?),
        Kind::String => Value::String(s.string()?.into_owned()),
        Kind::Array => {
            s.begin_array()?;
            let mut items = Vec::new();
            while s.next_item()? {
                items.push(tree(s)?);
            }
            Value::Array(items)
        }
        Kind::Object => {
            s.begin_object()?;
            let mut pairs = Vec::new();
            while let Some(key) = s.next_key()? {
                pairs.push((key.into_owned(), tree(s)?));
            }
            Value::Object(pairs)
        }
    })
}

/// Containers nest at most this deep; a value inside the deepest one is
/// an error.
const MAX_DEPTH: usize = 128;

/// What kind of value starts at a [`Scanner`]'s position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull scanner over one JSON document that borrows from its text: the
/// one JSON grammar of the workspace, under [`parse`] and under any
/// reader that wants a few fields without a tree.
///
/// [`Scanner::peek`] names the next value; a typed read consumes it
/// ([`Scanner::string`] hands back a slice of the input unless the string
/// holds an escape) and [`Scanner::skip`] consumes any value, validating
/// it in full. Containers are walked with
/// [`begin_object`](Scanner::begin_object) + [`next_key`](Scanner::next_key)
/// and [`begin_array`](Scanner::begin_array) +
/// [`next_item`](Scanner::next_item), each key or item followed by
/// exactly one value read. [`Scanner::finish`] rejects trailing input.
/// Errors carry the same text and position whichever way a document is
/// read.
///
/// ```
/// let mut s = sjson::Scanner::new(r#"{"id": "a1", "n": [1, 2]}"#);
/// s.begin_object().unwrap();
/// let mut id = None;
/// while let Some(key) = s.next_key().unwrap() {
///     match &*key {
///         "id" => id = Some(s.string().unwrap()),
///         _ => s.skip().unwrap(),
///     }
/// }
/// s.finish().unwrap();
/// assert_eq!(id.as_deref(), Some("a1"));
/// ```
#[derive(Debug)]
pub struct Scanner<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// A container was just opened: the next `next_key`/`next_item` reads
    /// its first entry (or its end) rather than a separator.
    fresh: bool,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Scanner { text, pos: 0, depth: 0, fresh: false }
    }

    /// The kind of the next value, without consuming it.
    pub fn peek(&mut self) -> Result<Kind, Error> {
        match self.start()? {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Read a string value: borrowed from the input unless it holds an
    /// escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.start()?;
        self.quoted()
    }

    /// Read a number value.
    pub fn number(&mut self) -> Result<f64, Error> {
        self.start()?;
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("invalid number")),
        }
        if self.byte() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.byte(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number (digit required after '.')"));
            }
            self.digits();
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.byte(), Some(b'0'..=b'9')) {
                return Err(self.err("invalid number (digit required in exponent)"));
            }
            self.digits();
        }
        let text = std::str::from_utf8(&bytes[start..self.pos])
            .expect("a number is made of the ASCII bytes matched above");
        text.parse::<f64>().map_err(|_| self.err("number out of range"))
    }

    /// Read `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        let value = self.start()? != Some(b'f');
        self.literal(if value { "true" } else { "false" })?;
        Ok(value)
    }

    /// Read `null`.
    pub fn null(&mut self) -> Result<(), Error> {
        self.start()?;
        self.literal("null")
    }

    /// Consume the next value whatever it is, checking its grammar and
    /// depth exactly as a typed read would.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.string().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Enter an object; walk it with [`Scanner::next_key`].
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.start()?;
        self.open(b'{')
    }

    /// The next key of the object being walked, or `None` once its `}`
    /// is consumed. Each key must be followed by one value read.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_entry(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        self.skip_ws();
        if self.byte() != Some(b'"') {
            return Err(self.err("expected string key"));
        }
        let key = self.quoted()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Enter an array; walk it with [`Scanner::next_item`].
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.start()?;
        self.open(b'[')
    }

    /// `true` when the array being walked has another item, which must
    /// then be read; `false` once its `]` is consumed.
    pub fn next_item(&mut self) -> Result<bool, Error> {
        self.next_entry(b']', "expected ',' or ']' in array")
    }

    /// End the document: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos < self.text.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    /// Skip whitespace up to the next value and check it is not nested
    /// too deep; hands back its first byte.
    fn start(&mut self) -> Result<Option<u8>, Error> {
        self.skip_ws();
        if self.depth >= MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        Ok(self.byte())
    }

    fn open(&mut self, bracket: u8) -> Result<(), Error> {
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Past the separator before the next entry of the open container:
    /// `false` (and the container closed) at `close`.
    fn next_entry(&mut self, close: u8, separator_error: &str) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::take(&mut self.fresh);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(separator_error)),
        }
    }

    /// A string whose opening quote is at the position. The unescaped
    /// prefix is scanned in place; only a string holding a backslash is
    /// copied.
    fn quoted(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.err("control character in string")),
            }
            let run = self.pos;
            self.plain_run();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Advance over bytes a string copies verbatim. It stops only at an
    /// ASCII byte (`"`, `\`, a control) or the end, so always on a
    /// character boundary.
    fn plain_run(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos +=
            rest.iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20).unwrap_or(rest.len());
    }

    /// The character a backslash escape at the position stands for: the
    /// workspace's one unescape table, the inverse of [`write_str`].
    fn escape(&mut self) -> Result<char, Error> {
        self.pos += 1;
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits after `\u`, and the low half of a surrogate
    /// pair when they name a high one.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        if !(0xD800..0xDC00).contains(&hi) {
            return char::from_u32(hi).ok_or_else(|| self.err("invalid unicode escape"));
        }
        if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
            return Err(self.err("unpaired high surrogate"));
        }
        self.pos += 2;
        let lo = self.hex4()?;
        if !(0xDC00..0xE000).contains(&lo) {
            return Err(self.err("invalid low surrogate"));
        }
        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
        char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate pair"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let v = std::str::from_utf8(digits)
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("invalid literal (expected '{word}')")))
        }
    }

    fn digits(&mut self) {
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// An error at the position, with its 1-based line and column.
    fn err(&self, message: &str) -> Error {
        let (mut line, mut column) = (1, 1);
        for &b in &self.text.as_bytes()[..self.pos.min(self.text.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        Error { line, column, message: message.to_string() }
    }
}

/// Append `s` to `out` as a quoted, escaped JSON string.
///
/// This and [`write_number`] are the workspace's one JSON writer:
/// [`Value::to_string_compact`] renders through them, and so does every
/// body a server assembles byte by byte, so the two agree by
/// construction. `"`, `\` and the control characters below `0x20` are
/// escaped (`\b \t \n \f \r` by name, the rest as `\u00xx`); everything
/// else, `DEL` and multi-byte UTF-8 included, is copied verbatim. Never
/// allocates once `out` has room.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    let bytes = s.as_bytes();
    // Copy runs of bytes that need no escape in one go. Every escaped
    // byte is ASCII, so a run never ends inside a UTF-8 sequence.
    let mut run = 0;
    let mut unicode = *b"\\u0000";
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0C => b"\\f",
            0x00..=0x1F => {
                unicode[4] = HEX[usize::from(b >> 4)];
                unicode[5] = HEX[usize::from(b & 0xF)];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Append the JSON rendering of `n` to `out`: integral values below
/// `1e15` in magnitude as plain integers, `-0.0` with its sign, other
/// finite values in Rust's shortest round-trip form, and NaN/±∞ as
/// `null` (JSON has neither; this is serde_json's convention). Never
/// allocates once `out` has room.
pub fn write_number(out: &mut Vec<u8>, n: f64) {
    use std::io::Write;
    if !n.is_finite() {
        out.extend_from_slice(b"null");
    } else if n == 0.0 && n.is_sign_negative() {
        // The integer fast path below would drop the sign bit; emit it
        // explicitly so -0.0 round-trips.
        out.extend_from_slice(b"-0.0");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        if n < 0.0 {
            out.push(b'-');
        }
        write_u64(out, n.abs() as u64);
    } else {
        // `Display` for f64 formats on the stack; writing into a Vec
        // cannot fail.
        let _ = write!(out, "{n}");
    }
}

/// Append the decimal digits of `v` to `out` without allocating (the
/// integer half of [`write_number`], also what HTTP heads use for
/// status codes and lengths).
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut tmp = [0u8; 20];
    let mut n = tmp.len();
    loop {
        n -= 1;
        tmp[n] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&tmp[n..]);
}

/// Render into a fresh buffer and hand it back as a `String`.
fn render(f: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    f(&mut out);
    // The writers copy `&str` input whole or split it only at ASCII
    // bytes, and everything they add is ASCII.
    String::from_utf8(out).expect("the JSON writers emit UTF-8")
}

fn write_compact(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_str(out, s),
        Value::Array(items) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_compact(item, out);
            }
            out.push(b']');
        }
        Value::Object(pairs) => {
            out.push(b'{');
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_str(out, k);
                out.push(b':');
                write_compact(val, out);
            }
            out.push(b'}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut Vec<u8>) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.extend_from_slice(b"[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b",\n");
                }
                out.extend_from_slice(pad_in.as_bytes());
                write_pretty(item, indent + 1, out);
            }
            out.push(b'\n');
            out.extend_from_slice(pad.as_bytes());
            out.push(b']');
        }
        Value::Object(pairs) if !pairs.is_empty() => {
            out.extend_from_slice(b"{\n");
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.extend_from_slice(b",\n");
                }
                out.extend_from_slice(pad_in.as_bytes());
                write_str(out, k);
                out.extend_from_slice(b": ");
                write_pretty(val, indent + 1, out);
            }
            out.push(b'\n');
            out.extend_from_slice(pad.as_bytes());
            out.push(b'}');
        }
        other => write_compact(other, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Value::Number(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn preserves_key_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "m"]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\ttab \"quote\" back\\slash \u{0001} ünïcode 🎓";
        let mut enc = Vec::new();
        write_str(&mut enc, original);
        let back = parse(std::str::from_utf8(&enc).unwrap()).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    /// The escaper as it was written before the byte writer, kept here
    /// as the reference the byte writer must reproduce.
    fn reference_str(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{0008}' => out.push_str("\\b"),
                '\u{000C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// The `format!`-based number writer the byte writer replaced.
    fn reference_number(n: f64) -> String {
        if !n.is_finite() {
            "null".to_string()
        } else if n == 0.0 && n.is_sign_negative() {
            "-0.0".to_string()
        } else if n.fract() == 0.0 && n.abs() < 1e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }

    fn str_bytes(s: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_str(&mut out, s);
        out
    }

    fn number_bytes(n: f64) -> Vec<u8> {
        let mut out = Vec::new();
        write_number(&mut out, n);
        out
    }

    #[test]
    fn byte_writer_escapes_like_value_rendering() {
        // Every control byte, the two escaped printables, DEL and
        // multi-byte UTF-8 (2-, 3- and 4-byte sequences), one at a time
        // and all together.
        let mut cases: Vec<String> = (0u8..0x20).map(|b| char::from(b).to_string()).collect();
        cases.extend(["\"", "\\", "\u{7f}", "é", "€", "🎓", "", "plain"].map(String::from));
        cases.push(cases.concat());
        for s in &cases {
            let via_value = Value::String(s.clone()).to_string_compact();
            assert_eq!(str_bytes(s), via_value.as_bytes(), "{s:?}");
            assert_eq!(via_value, reference_str(s), "{s:?}");
            assert_eq!(parse(&via_value).unwrap().as_str(), Some(s.as_str()));
        }
        // The two named escapes a hand-kept mirror once got wrong.
        assert_eq!(str_bytes("\u{8}\u{c}"), b"\"\\b\\f\"");
        assert_eq!(str_bytes("\u{0}\u{1f}"), b"\"\\u0000\\u001f\"");
    }

    #[test]
    fn byte_writers_match_the_format_reference() {
        // xorshift64: seeded, so a failing case replays.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut numbers = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            -f64::from_bits(0x0000_0000_dead_beef),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1e15,
            -1e15,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15 + 2.0,
            1e15 - 0.5,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            1.0,
            -1.0,
            0.5,
            1.0 / 3.0,
            1e-300,
            123_456_789.123_456_79,
        ];
        for _ in 0..20_000 {
            let bits = next();
            numbers.push(f64::from_bits(bits));
            // Integral values either side of the 1e15 fast-path bound.
            numbers.push((bits % 4_000_000_000_000_000) as f64 - 2e15);
            numbers.push((bits % 2001) as f64 - 1000.0);
            // Subnormals: a zero exponent with random mantissa and sign.
            numbers.push(f64::from_bits(bits & 0x800f_ffff_ffff_ffff));
        }
        for n in numbers {
            assert_eq!(
                number_bytes(n),
                reference_number(n).as_bytes(),
                "{n:e} ({:#x})",
                n.to_bits()
            );
            assert_eq!(Value::Number(n).to_string_compact(), reference_number(n));
        }

        let pool: Vec<char> = (0u8..0x20)
            .map(char::from)
            .chain(['"', '\\', '/', '\u{7f}', 'a', 'Z', ' ', 'é', '€', '🎓', '\u{10ffff}'])
            .collect();
        for _ in 0..5_000 {
            let len = (next() % 24) as usize;
            let s: String = (0..len)
                .map(|_| {
                    let r = next();
                    if r % 4 == 0 {
                        // Any scalar value at all.
                        char::from_u32((r >> 8) as u32 % 0x11_0000).unwrap_or('\u{fffd}')
                    } else {
                        pool[(r >> 8) as usize % pool.len()]
                    }
                })
                .collect();
            assert_eq!(str_bytes(&s), reference_str(&s).as_bytes(), "{s:?}");
        }
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
        assert_eq!(parse(r#""🎓""#).unwrap().as_str(), Some("🎓"));
        assert!(parse(r#""\ud83c""#).is_err());
        assert!(parse(r#""\udf93""#).is_err());
    }

    #[test]
    fn error_reports_line_and_column() {
        let err = parse("{\"a\": 1,\n\"b\": }").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn rejects_trailing_garbage_and_malformed_input() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{,}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("01").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(1000) + &"]".repeat(1000);
        assert!(parse(&deep).is_err());
        // 128 containers nest; a value inside the 128th does not.
        let nest = |n: usize, inner: &str| "[".repeat(n) + inner + &"]".repeat(n);
        assert!(parse(&nest(128, "")).is_ok());
        let err = parse(&nest(128, "1")).unwrap_err();
        assert_eq!((err.message.as_str(), err.column), ("maximum nesting depth exceeded", 129));
        assert_eq!(parse(&nest(129, "")).unwrap_err().column, 129);
    }

    #[test]
    fn a_long_string_literal_parses_in_linear_time() {
        // The old per-character parse re-validated the rest of the input
        // at every character: minutes for this literal in a debug build.
        let len = if cfg!(miri) { 4 << 10 } else { 4 << 20 };
        let original: String = "é\"\\\u{1}🎓abc".chars().cycle().take(len).collect();
        let mut enc = Vec::new();
        write_str(&mut enc, &original);
        let back = parse(std::str::from_utf8(&enc).unwrap()).unwrap();
        assert_eq!(back.as_str(), Some(original.as_str()));
    }

    #[test]
    fn scanner_borrows_strings_without_escapes() {
        let mut s = Scanner::new(r#"{"plain": "as is", "esc\u0061ped": "a\tb", "n": [1, -0.5e1]}"#);
        s.begin_object().unwrap();
        let key = s.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Borrowed("plain")));
        assert!(matches!(s.string().unwrap(), Cow::Borrowed("as is")));
        let key = s.next_key().unwrap().unwrap();
        assert!(matches!(key, Cow::Owned(ref k) if k == "escaped"));
        assert!(matches!(s.string().unwrap(), Cow::Owned(ref v) if v == "a\tb"));
        assert_eq!(s.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(s.peek().unwrap(), Kind::Array);
        s.begin_array().unwrap();
        let mut numbers = Vec::new();
        while s.next_item().unwrap() {
            numbers.push(s.number().unwrap());
        }
        assert_eq!(numbers, [1.0, -5.0]);
        assert_eq!(s.next_key().unwrap(), None);
        s.finish().unwrap();
    }

    #[test]
    fn skip_checks_exactly_what_parse_checks() {
        // Skipping a document must fail where building its tree fails,
        // with the same text and position, and pass where it passes.
        let docs = [
            r#"{"a": [1, {"b": null}, "x\u00e9\ud83c\udf93"], "c": true, "d": false}"#,
            "  [ ]  ",
            "{\"a\": 1,\n\"b\": }",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{,}",
            "[1,]",
            "[1 2]",
            "{",
            "[",
            "",
            "01",
            "1.",
            "1e",
            "-",
            "nul",
            "tru",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\ud83c\"",
            "\"\\ud83c\\u0041\"",
            "\"\\udf93\"",
            "\"tab\there\"",
            "\"unterminated",
            "{} extra",
        ];
        for doc in docs {
            let mut s = Scanner::new(doc);
            let skipped = s.skip().and_then(|()| s.finish());
            match (parse(doc), skipped) {
                (Ok(_), Ok(())) => {}
                (Err(p), Err(k)) => assert_eq!(p, k, "{doc:?}"),
                (p, k) => panic!("{doc:?}: parse {p:?}, skip {k:?}"),
            }
        }
    }

    #[test]
    fn numbers_roundtrip_precisely() {
        for &x in &[0.1, 1.0 / 3.0, 1e-300, 123_456_789.123_456_79, -0.0, 1e15 + 1.0] {
            let s = Value::Number(x).to_string_compact();
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back, x, "{x} serialized as {s}");
        }
    }

    #[test]
    fn integers_serialize_without_fraction() {
        assert_eq!(Value::Number(42.0).to_string_compact(), "42");
        assert_eq!(Value::Number(-7.0).to_string_compact(), "-7");
        assert_eq!(Value::from(3usize).to_string_compact(), "3");
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let s = Value::Number(-0.0).to_string_compact();
        assert_eq!(s, "-0.0");
        let back = parse(&s).unwrap().as_f64().unwrap();
        assert_eq!(back, 0.0);
        assert!(back.is_sign_negative(), "-0.0 must round-trip with its sign bit");
        // And plain zero stays unsigned.
        assert_eq!(Value::Number(0.0).to_string_compact(), "0");
    }

    #[test]
    fn u64_exactness_boundary_at_2_53() {
        let exact = 1u64 << 53; // 9007199254740992: representable
        let inexact = exact + 1; // 9007199254740993: rounds to 2^53
        let below = exact - 1; // largest integer where all are exact

        for n in [below, exact] {
            let s = Value::from(n).to_string_compact();
            assert_eq!(parse(&s).unwrap().as_u64(), Some(n), "{n} via {s}");
        }

        // From<u64> is documented lossy: 2^53 + 1 rounds.
        let lossy = Value::from(inexact);
        assert_eq!(lossy.as_u64(), Some(exact), "From<u64> rounds to nearest double");
    }

    #[test]
    fn surrogate_pair_escapes_decode_and_roundtrip() {
        // U+1F393 (🎓) spelled as the surrogate pair 🎓.
        let v = parse("\"\\ud83c\\udf93 graduation\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F393} graduation"));
        // The writer emits raw UTF-8, which must parse back identically.
        let re = parse(&v.to_string_compact()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Value::Number(f64::NAN).to_string_compact(), "null");
        assert_eq!(Value::Number(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn compact_roundtrip() {
        let src = r#"{"id":"a1","year":1995,"refs":["a0"],"merit":0.25,"ok":true}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string_compact(), src);
    }

    #[test]
    fn pretty_output_is_parseable_and_indented() {
        let v = parse(r#"{"a": [1, 2], "b": {"c": true}}"#).unwrap();
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": [\n"));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn object_builder_builds_in_order() {
        let v = ObjectBuilder::new()
            .field("rank", 1usize)
            .field("id", "a0")
            .field("score", 0.5)
            .build();
        assert_eq!(v.to_string_compact(), r#"{"rank":1,"id":"a0","score":0.5}"#);
    }

    #[test]
    fn integer_accessors() {
        let v = parse(r#"{"n": 7, "f": 7.5, "neg": -2}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("n").unwrap().as_usize(), Some(7));
        assert_eq!(v.get("f").unwrap().as_i64(), None);
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-2));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
    }
}
