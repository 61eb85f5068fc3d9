//! Hand-rolled JSON writer and parser.
//!
//! The telemetry crate exports Chrome trace-event files and JSONL metric
//! snapshots without any external serialization dependency, so it carries
//! its own small writer. The matching recursive-descent [`parse`] exists
//! so integration tests can validate exported traces (balanced `B`/`E`
//! events, monotonic timestamps) without `serde_json`.

use std::fmt::Write as _;

/// Incremental JSON writer with automatic comma placement.
///
/// Call `begin_object`/`begin_array`, then `key` + a value method inside
/// objects or just value methods inside arrays. The writer keeps a stack
/// of "has this container already emitted an element" flags, so callers
/// never manage commas.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    // One flag per open container: true once the first element was written.
    stack: Vec<bool>,
    // Set between `key()` and the value that follows it.
    pending_key: bool,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes writing and returns the accumulated JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        self.out
    }

    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(started) = self.stack.last_mut() {
            if *started {
                self.out.push(',');
            }
            *started = true;
        }
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Closes `}`.
    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.before_value();
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Closes `]`.
    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Writes an object key; the next value call becomes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        if let Some(started) = self.stack.last_mut() {
            if *started {
                self.out.push(',');
            }
            *started = true;
        }
        escape_into(k, &mut self.out);
        self.out.push(':');
        self.pending_key = true;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.before_value();
        escape_into(s, &mut self.out);
        self
    }

    /// Writes an unsigned integer value.
    pub fn number_u64(&mut self, v: u64) -> &mut Self {
        self.before_value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes a finite float with three decimals (the Chrome trace `ts`
    /// microsecond convention); non-finite values become `0`.
    pub fn number_f64(&mut self, v: f64) -> &mut Self {
        self.before_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v:.3}");
        } else {
            self.out.push('0');
        }
        self
    }
}

/// Escapes `s` as a JSON string literal (including the quotes) into `out`.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys kept as-is).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as object fields, if it is one.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What was wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is not.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect a low surrogate.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume the rest of a UTF-8 sequence verbatim. The
                    // input is a &str, so sequences are already valid.
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|c| c >= 0x80 && (c & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name").string("p2f \"wait\"\n");
        w.key("events").begin_array();
        w.begin_object();
        w.key("ts").number_f64(12.3456);
        w.key("ok").number_u64(1);
        w.end_object();
        w.number_u64(7);
        w.end_array();
        w.key("neg").number_f64(-3.0);
        w.end_object();
        let text = w.finish();
        assert_eq!(
            text,
            r#"{"name":"p2f \"wait\"\n","events":[{"ts":12.346,"ok":1},7],"neg":-3.000}"#
        );
    }

    #[test]
    fn writer_output_round_trips_through_parser() {
        let mut w = JsonWriter::new();
        w.begin_array();
        for i in 0..3u64 {
            w.begin_object();
            w.key("i").number_u64(i);
            w.key("label").string("tab\there");
            w.end_object();
        }
        w.end_array();
        let doc = parse(&w.finish()).expect("writer output must parse");
        let arr = doc.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("i").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            arr[2].get("label").and_then(Json::as_str),
            Some("tab\there")
        );
    }

    #[test]
    fn parser_handles_escapes_numbers_and_literals() {
        let doc = parse(r#"{"a": [1, -2.5, 1e3, true, false, null], "s": "xAé😀"}"#).unwrap();
        let a = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[5], Json::Null);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("xAé😀"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"k\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
