//! A minimal JSON value, parser and emitter — the wire substrate of the
//! daemon protocol.
//!
//! The workspace has no crates.io access, so (in the pattern of the
//! `crates/rand` shim) the protocol layer carries
//! its own JSON implementation: a recursive-descent parser with a depth
//! guard, and an emitter whose number formatting round-trips `f64`s
//! exactly (integers print without a fractional part; everything else
//! uses Rust's shortest-round-trip `{:?}` float formatting).
//!
//! Parsing is linear in the input: the parser walks each byte a bounded
//! number of times, and copies every unescaped string run as one slice
//! of the (already valid UTF-8) input. A request line from an untrusted
//! peer therefore costs time proportional to its size.
//!
//! Every value the parser accepts emits back to text that parses to the
//! same value. Number literals outside the finite `f64` range (`1e400`)
//! are rejected with a [`JsonError`] instead of parsing to infinity,
//! which JSON cannot express (the emitter writes non-finite numbers as
//! `null`).
//!
//! ```
//! use dehealth_service::json::Json;
//!
//! let v = Json::parse(r#"{"cmd": "stats", "ids": [1, 2.5, null]}"#).unwrap();
//! assert_eq!(v.get("cmd").and_then(Json::as_str), Some("stats"));
//! assert_eq!(Json::parse(&v.emit()).unwrap(), v);
//! ```

use std::fmt;

/// Maximum nesting depth the parser accepts (arrays/objects); deeper
/// input is rejected instead of risking a stack overflow.
const MAX_DEPTH: usize = 64;

/// A JSON value. Objects preserve key order (the emitter is
/// deterministic); numbers are `f64`, which covers every integer the
/// protocol carries (user ids and counters stay far below 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: a static description and the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Convenience constructor: a number from a `usize`.
    ///
    /// # Panics
    /// Panics above 2^53 (counters and ids never get near it), where
    /// `f64` would silently round.
    #[must_use]
    pub fn int(v: usize) -> Json {
        assert!(v <= (1usize << 53), "integer too large for exact f64");
        Json::Num(v as f64)
    }

    /// Parse one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    ///
    /// # Errors
    /// A [`JsonError`] describing the first malformed byte.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text: s, bytes: s.as_bytes(), at: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(JsonError { message: "trailing characters", at: p.at });
        }
        Ok(v)
    }

    /// Serialize to a single-line JSON string.
    #[must_use]
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => emit_number(*v, out),
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (`None` on non-objects and absent keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as an exact non-negative integer (`None` for
    /// non-numbers, negatives, and values with a fractional part).
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= (1u64 << 53) as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Integers emit without a fractional part; everything else uses `{:?}`,
/// Rust's shortest representation that round-trips the exact `f64`.
/// Non-finite values (which JSON cannot express) emit as `null`.
fn emit_number(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 && (v != 0.0 || v.is_sign_positive()) {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v:?}");
    }
}

fn emit_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
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

struct Parser<'a> {
    /// The input; string runs are copied out of it as slices.
    text: &'a str,
    /// `text` as bytes, for the byte-level scan.
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError { message, at: self.at }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn eat_literal(&mut self, lit: &[u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(lit) {
            self.at += lit.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_literal(b"null", Json::Null),
            Some(b't') => self.eat_literal(b"true", Json::Bool(true)),
            Some(b'f') => self.eat_literal(b"false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(b':', "expected ':'")?;
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.at;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.at += 1;
            }
            p.at > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.at]).expect("number bytes are ASCII");
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("invalid number")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.at += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.bytes[self.at..].starts_with(b"\\u") {
                                    self.at += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the whole unescaped run in one slice. It stops
                    // only at an ASCII byte or the end of input, so both
                    // ends are char boundaries of the valid input.
                    let start = self.at;
                    while let Some(&b) = self.bytes.get(self.at) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.at += 1;
                    }
                    out.push_str(&self.text[start..self.at]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.bytes.len() < self.at + 4 {
            return Err(self.err("truncated unicode escape"));
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.bytes[self.at];
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = v * 16 + d;
            self.at += 1;
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in ["null", "true", "false", "0", "-7", "2.5", "\"hi\"", "[]", "{}"] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.emit(), text, "{text}");
        }
    }

    #[test]
    fn nested_roundtrip() {
        let text = r#"{"cmd":"attack","posts":[[0,1,"hello \"world\"\n"],[2,0,"x"]],"k":10}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.emit()).unwrap(), v);
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("attack"));
        assert_eq!(v.get("k").and_then(Json::as_usize), Some(10));
        let posts = v.get("posts").and_then(Json::as_array).unwrap();
        assert_eq!(posts[0].as_array().unwrap()[2].as_str(), Some("hello \"world\"\n"));
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1.234_567_890_123_456_7e300, -0.0] {
            let text = Json::Num(v).emit();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::int(42).emit(), "42");
        assert_eq!(Json::Num(-3.0).emit(), "-3");
        assert_eq!(Json::Num(2.5).emit(), "2.5");
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""\u00e9\ud83c\udf0d""#).unwrap();
        assert_eq!(v.as_str(), Some("é🌍"));
        // Multi-byte runs between escapes are copied intact.
        let v = Json::parse(r#""héllo\n wörld 🌍\t\"end\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("héllo\n wörld 🌍\t\"endA"));
        // Raw UTF-8 passes through and re-parses.
        let s = Json::Str("é🌍 ± µ".into());
        assert_eq!(Json::parse(&s.emit()).unwrap(), s);
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        for text in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1,}",
            "01x",
            "1.",
            "1e",
            "nulL",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "[1] trailing",
            "\u{1}",
            "1e400",
            "-1e400",
            "[0, 1.5e99999]",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should fail");
        }
        // Overflowing literals are typed errors, not infinities that
        // would emit as `null`; underflow to zero stays a finite number.
        assert_eq!(Json::parse("1e400"), Err(JsonError { message: "number out of range", at: 5 }));
        assert_eq!(Json::parse("1e-400"), Ok(Json::Num(0.0)));
        // Depth guard.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        let cases = [
            ("\"abc", "unterminated string", 4),
            ("\"ab\u{1}c\"", "control character in string", 3),
            ("\"é\u{1f}\"", "control character in string", 3),
            ("\"ok\\x\"", "invalid escape", 4),
            ("\"\\ud800x\"", "lone high surrogate", 7),
            ("\"\\ud800\\u0041\"", "invalid low surrogate", 13),
        ];
        for (text, message, at) in cases {
            assert_eq!(Json::parse(text), Err(JsonError { message, at }), "{text:?}");
        }
    }

    /// Parse time must grow linearly with the string length: 4× the
    /// bytes may cost about 4× the time, never the 16× of a scan that
    /// re-reads the rest of the input for every character.
    #[test]
    fn string_parse_time_is_linear_in_the_input() {
        use std::time::{Duration, Instant};
        fn document(bytes: usize) -> String {
            let unit = "plain ascii text, ünïcödé ✓ 🌍 and escapes \\\" \\n \\u00e9 | ";
            let mut body = String::with_capacity(bytes + unit.len());
            while body.len() < bytes {
                body.push_str(unit);
            }
            format!(r#"{{"cmd":"attack","text":"{body}"}}"#)
        }
        fn best_of_3(text: &str) -> Duration {
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let v = Json::parse(text).unwrap();
                    let elapsed = start.elapsed();
                    assert!(v.get("text").and_then(Json::as_str).is_some_and(|s| s.len() > 1000));
                    elapsed
                })
                .min()
                .unwrap()
        }
        let small = document(256 * 1024);
        let large = document(1024 * 1024);
        let ratio = best_of_3(&large).as_secs_f64() / best_of_3(&small).as_secs_f64().max(1e-9);
        assert!(ratio < 8.0, "4x the input took {ratio:.1}x the time");
    }

    #[test]
    fn accessors_reject_wrong_types() {
        let v = Json::parse(r#"{"a": 1.5, "b": -2, "c": [true]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_usize), None);
        assert_eq!(v.get("b").and_then(Json::as_usize), None);
        assert_eq!(v.get("c").unwrap().as_array().unwrap()[0].as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("a"), None);
    }

    #[test]
    fn nonfinite_numbers_emit_null() {
        assert_eq!(Json::Num(f64::NAN).emit(), "null");
        assert_eq!(Json::Num(f64::INFINITY).emit(), "null");
    }
}
