//! A minimal JSON tree, writer, and parser.
//!
//! The vendored `serde` is a marker-trait facade with no serialization
//! machinery, so artifacts are built as explicit [`Json`] trees and
//! written/parsed here. Objects preserve insertion order (a `Vec` of
//! pairs, not a map), which keeps output byte-stable for determinism
//! assertions and git-friendly baselines.

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64` (ample for the counters and
/// microsecond latencies the artifacts carry).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// u64 → Json number. JSON numbers are `f64`: values above 2^53 are
    /// rounded here and refused by [`Json::as_u64`], so encode
    /// full-width identifiers (hashes, digests) as strings instead.
    pub fn u64(n: u64) -> Json {
        Json::Num(n as f64)
    }

    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, or `None` unless it is a finite,
    /// non-negative integer no larger than 2^53 (the largest range `f64`
    /// holds exactly). A bare `as` cast would turn `-1` into `0`, `1.5`
    /// into `1` and saturate `1e30`.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        let n = self.as_f64()?;
        ((0.0..=MAX_EXACT).contains(&n) && n == n.trunc()).then_some(n as u64)
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Compact single-line encoding.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty encoding with two-space indentation and a trailing newline
    /// (the format of committed `BENCH_*.json` baselines).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume all non-whitespace input).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

/// Deterministic number formatting: integers (the common case) print
/// without a fractional part; everything else uses shortest-roundtrip.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

/// How deep arrays and objects may nest before the parser rejects the
/// document: parsing, writing and dropping a tree all recurse on it, so
/// its depth must not be the input's to choose.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    /// Parse one array or object a level deeper (see [`MAX_DEPTH`]).
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nested more than {MAX_DEPTH} levels deep at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                other => return Err(format!("expected ',' or ']' , found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let len = utf8_len(rest[0]);
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    s.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let v = Json::obj(vec![
            ("name", Json::str("fig6a")),
            ("n", Json::u64(42)),
            ("pi", Json::Num(3.25)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Arr(vec![Json::u64(1), Json::u64(2)])),
        ]);
        let text = v.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(
            text,
            r#"{"name":"fig6a","n":42,"pi":3.25,"ok":true,"none":null,"arr":[1,2]}"#
        );
    }

    #[test]
    fn round_trip_pretty() {
        let v = Json::obj(vec![
            ("a", Json::Arr(vec![Json::str("x"), Json::Obj(vec![])])),
            ("b", Json::Arr(vec![])),
        ]);
        let text = v.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn string_escapes() {
        let v = Json::str("a\"b\\c\nd\te\u{1}");
        let text = v.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::str("Aé"));
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::str("西安↔东莞 café");
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
    }

    #[test]
    fn numbers() {
        for (text, n) in [("0", 0.0), ("-12", -12.0), ("3.5", 3.5), ("1e3", 1000.0)] {
            assert_eq!(Json::parse(text).unwrap(), Json::Num(n));
        }
        // Large integers print without an exponent.
        let mut s = String::new();
        write_num(&mut s, 1_234_567_890_123.0);
        assert_eq!(s, "1234567890123");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("nul").is_err());
    }

    /// Nesting recursed without bound: 200 000 `[` overflowed the stack
    /// (an abort, not even a panic).
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let n = 200_000;
        for text in [
            format!("{}{}", "[".repeat(n), "]".repeat(n)),
            "{\"a\":".repeat(n),
            "[{\"a\":".repeat(n),
        ] {
            assert!(Json::parse(&text).is_err());
        }
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past = format!("[{at_limit}]");
        assert!(Json::parse(&past).is_err());
    }

    #[test]
    fn get_and_accessors() {
        let v = Json::obj(vec![("k", Json::u64(7))]);
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(7));
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("k").is_none());
    }

    #[test]
    fn as_u64_accepts_exact_integers_only() {
        assert_eq!(Json::Num(0.0).as_u64(), Some(0));
        assert_eq!(Json::u64(1 << 53).as_u64(), Some(1 << 53));
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn as_u64_rejects_negative() {
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn as_u64_rejects_fraction() {
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn as_u64_rejects_beyond_exact_range() {
        assert_eq!(Json::parse("1e30").unwrap().as_u64(), None);
        assert_eq!(Json::Num((1u64 << 53) as f64 + 2.0).as_u64(), None);
    }

    #[test]
    fn as_u64_rejects_non_finite_and_non_numbers() {
        assert_eq!(Json::Num(f64::NAN).as_u64(), None);
        assert_eq!(Json::Num(f64::INFINITY).as_u64(), None);
        assert_eq!(Json::str("7").as_u64(), None);
    }
}
