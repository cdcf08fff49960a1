//! A minimal JSON value type: the workspace's one JSON writer and reader
//! (the offline build environment has no serde).
//!
//! Writers build a [`Json`] tree — [`Json::obj`], [`Json::u64`] and
//! [`Json::fixed`] cover the common members — and render it with `Display`
//! as compact JSON with a fixed escaping policy. The reader parses such
//! JSON back into a [`Json`] tree and re-emits it *byte-identically*:
//! numbers are kept as their raw source tokens and object members preserve
//! insertion order, so `Json::parse(text)?.to_string() == text` holds for
//! everything the workspace writes. That round-trip is pinned by tests and
//! is what lets the campaign service's clients parse, inspect, and forward
//! streamed reports without perturbing a byte.
//!
//! The parser accepts standard JSON (insignificant whitespace, all escape
//! forms, nested containers up to a fixed depth) and rejects everything else
//! with a [`JsonError`] carrying the byte offset — it parses untrusted
//! network input, so there is a hard recursion limit and no panics.

use std::fmt::{self, Write as _};

/// Maximum container nesting depth the parser accepts. Deep enough for any
/// report the workspace emits, shallow enough that adversarial input cannot
/// overflow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Numbers are stored as their raw source token (`Json::Num("3.20")` keeps
/// the trailing zero) so re-serialization is byte-identical; use
/// [`Json::as_u64`] / [`Json::as_f64`] to interpret them. Objects preserve
/// member order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as the raw token it was written as.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document. Trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] (with byte offset) on malformed input or
    /// nesting deeper than the parser's hard limit.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// An unsigned integer.
    pub fn u64(value: u64) -> Json {
        Json::Num(value.to_string())
    }

    /// `value` with exactly `decimals` fractional digits, or `null` when it
    /// is not finite: JSON has no NaN or infinity, and an undefined metric
    /// must not masquerade as a measured number.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        if value.is_finite() {
            Json::Num(format!("{value:.decimals$}"))
        } else {
            Json::Null
        }
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This number as a `u64`, if it is one (no fraction, in range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// This number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Appends `value` to `out` with the workspace's escaping policy: `"` and
/// `\` are backslash-escaped, `\n` stays readable, every other control
/// character becomes `\u00XX`, everything else passes through.
pub fn escape_json_str_into(out: &mut String, value: &str) {
    write_escaped(out, value).expect("writing to a String cannot fail");
}

fn write_escaped(out: &mut impl fmt::Write, value: &str) -> fmt::Result {
    // Every byte that needs escaping is ASCII, so scanning bytes never
    // splits a UTF-8 sequence; the runs between escapes go out whole.
    let mut start = 0;
    for (i, &b) in value.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.write_str(&value[start..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        start = i + 1;
    }
    out.write_str(&value[start..])
}

impl fmt::Display for Json {
    /// Compact serialization: numbers verbatim, members in order, the
    /// workspace escaping policy.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(tok) => f.write_str(tok),
            Json::Str(s) => {
                f.write_char('"')?;
                write_escaped(f, s)?;
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    item.fmt(f)?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    f.write_char('"')?;
                    write_escaped(f, key)?;
                    f.write_str("\":")?;
                    value.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected `{}`", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&code) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced pos
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str, so the
                    // encoding is already valid; find the next boundary.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input is valid UTF-8"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.error("invalid \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(Json::Num(token))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse_and_round_trip() {
        for text in [
            "null", "true", "false", "0", "-7", "3.20", "1.5e-3", "\"x\"",
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "{text}");
        }
    }

    #[test]
    fn numbers_keep_their_raw_token() {
        let v = Json::parse("[1.50,0.500,12]").unwrap();
        assert_eq!(v.to_string(), "[1.50,0.500,12]");
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_f64(), Some(1.5));
        assert_eq!(items[2].as_u64(), Some(12));
        assert_eq!(items[0].as_u64(), None, "fractional is not a u64");
    }

    #[test]
    fn objects_preserve_member_order() {
        let text = "{\"zebra\":1,\"alpha\":2,\"mid\":{\"b\":[true,null]}}";
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(v.get("alpha").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("mid").and_then(|m| m.get("b")).map(|b| b.to_string()),
            Some("[true,null]".to_string())
        );
    }

    #[test]
    fn writer_escapes_round_trip() {
        // Exactly the escaping policy of the hand-rolled writers.
        let text = "{\"label\":\"a \\\"quoted\\\\label\\\"\\n\\u0007\"}";
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(
            v.get("label").and_then(Json::as_str),
            Some("a \"quoted\\label\"\n\u{7}")
        );
    }

    #[test]
    fn constructors_render_fixed_decimals_and_null_for_non_finite() {
        let v = Json::obj([
            ("n", Json::u64(u64::MAX)),
            ("x", Json::fixed(2.0 / 3.0, 3)),
            ("r", Json::fixed(1_234_567.5, 0)),
            ("nan", Json::fixed(f64::NAN, 2)),
            ("inf", Json::fixed(f64::NEG_INFINITY, 2)),
        ]);
        assert_eq!(
            v.to_string(),
            "{\"n\":18446744073709551615,\"x\":0.667,\"r\":1234568,\"nan\":null,\"inf\":null}"
        );
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn whitespace_is_insignificant_but_not_re_emitted() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.to_string(), "{\"a\":[1,2]}");
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "{}extra",
            "nan",
        ] {
            let err = Json::parse(text).expect_err(text);
            assert!(!err.message.is_empty());
            assert!(err.offset <= text.len());
            assert!(err.to_string().contains("byte"));
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let err = Json::parse(&deep).expect_err("must reject");
        assert!(err.message.contains("deep"));
        // A depth well under the limit parses fine.
        let ok = "[".repeat(40) + &"]".repeat(40);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn accessor_type_mismatches_are_none() {
        let v = Json::parse("{\"s\":\"x\",\"n\":3}").unwrap();
        assert_eq!(v.get("s").and_then(Json::as_u64), None);
        assert_eq!(v.get("n").and_then(Json::as_str), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_array(), None);
        assert!(Json::parse("true").unwrap().as_bool() == Some(true));
    }
}
