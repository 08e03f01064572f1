//! A small hand-rolled JSON layer replacing the former `serde`/`serde_json`
//! dependency (the build environment has no crates.io access).
//!
//! [`JsonValue`] is a plain JSON document tree with a recursive-descent
//! parser and a compact renderer; [`ToJson`] / [`FromJson`] are the
//! serialization traits implemented by the workload descriptions and problem
//! types that the experiment harness persists. The problem types serialize
//! through their public constructor API (edges, capacities, demands), so
//! deserialization always yields fully indexed, queryable problems.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Largest integer exactly representable in an `f64` (2^53).
const MAX_SAFE_INTEGER: f64 = 9_007_199_254_740_992.0;

/// A JSON document tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys are sorted for stable output.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience numeric constructor.
    pub fn num(x: f64) -> JsonValue {
        JsonValue::Number(x)
    }

    /// Convenience integer constructor.
    pub fn int(x: usize) -> JsonValue {
        JsonValue::Number(x as f64)
    }

    /// The value of an object field, or an error naming the missing key.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        match self {
            JsonValue::Object(map) => map.get(key).ok_or_else(|| format!("missing field `{key}`")),
            other => Err(format!("expected object with field `{key}`, got {other:?}")),
        }
    }

    /// The numeric value, or an error.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Number(x) => Ok(*x),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// The numeric value as a `usize`, or an error (rejects values outside
    /// the exactly-representable integer range of `f64`).
    pub fn as_usize(&self) -> Result<usize, String> {
        let x = self.as_f64()?;
        if x < 0.0 || x.fract() != 0.0 || x > MAX_SAFE_INTEGER {
            return Err(format!("expected non-negative integer (<= 2^53), got {x}"));
        }
        usize::try_from(x as u64).map_err(|_| format!("integer {x} out of usize range"))
    }

    /// A `u64`, either from an exactly-representable JSON number or from a
    /// decimal string (how [`ToJson`] implementations serialize values that
    /// may exceed 2^53, e.g. workload seeds).
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonValue::String(text) => text
                .parse::<u64>()
                .map_err(|_| format!("expected u64 string, got `{text}`")),
            _ => {
                let x = self.as_f64()?;
                if x < 0.0 || x.fract() != 0.0 || x > MAX_SAFE_INTEGER {
                    return Err(format!("expected non-negative integer (<= 2^53), got {x}"));
                }
                Ok(x as u64)
            }
        }
    }

    /// Serializes a `u64` without loss: a plain number while exactly
    /// representable in `f64`, a decimal string beyond that.
    pub fn u64_value(x: u64) -> JsonValue {
        if (x as f64) <= MAX_SAFE_INTEGER && x as f64 as u64 == x {
            JsonValue::Number(x as f64)
        } else {
            JsonValue::String(x.to_string())
        }
    }

    /// The numeric value as a `u32`, or an error.
    pub fn as_u32(&self) -> Result<u32, String> {
        let x = self.as_usize()?;
        u32::try_from(x).map_err(|_| format!("integer {x} out of u32 range"))
    }

    /// The string value, or an error.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::String(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// The array elements, or an error.
    pub fn as_array(&self) -> Result<&[JsonValue], String> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// Renders the document as compact JSON: no whitespace between tokens,
    /// so no newline outside string values. The parser accepts whitespace,
    /// so documents rendered with indentation still load.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(x) => render_number(out, *x),
            JsonValue::String(s) => render_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(out, key);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

fn render_number(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.abs() < 9.0e15 {
        // Integer-valued: the digits of `x as i64`, written backwards into
        // a stack buffer (the same bytes `write!` would produce, `-0.0`
        // included, which renders as `0`).
        let mut digits = [0u8; 16];
        let mut at = digits.len();
        let mut n = x.abs() as u64;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if x < 0.0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else {
        let _ = write!(out, "{x}");
    }
}

fn render_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    // Copy each run of bytes that need no escape as one slice. Every
    // escaped byte is ASCII, so the runs end on char boundaries.
    let mut plain = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(HEX[usize::from(byte >> 4)] as char);
            out.push(HEX[usize::from(byte & 0xf)] as char);
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == token {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", token as char, *pos))
    }
}

/// Parses the four hex digits of a `\\uXXXX` escape starting at `start`.
fn parse_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let hex = bytes.get(start..start + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "invalid \\u escape".to_string())?;
    u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    JsonValue::String(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(JsonValue::String(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let mut code = parse_hex4(bytes, *pos + 1)?;
                                *pos += 4;
                                if (0xD800..0xDC00).contains(&code) {
                                    // UTF-16 high surrogate: a low surrogate
                                    // escape must follow (standard JSON
                                    // encoding of non-BMP characters).
                                    if bytes.get(*pos + 1..*pos + 3) != Some(br"\u") {
                                        return Err("unpaired UTF-16 surrogate".to_string());
                                    }
                                    let low = parse_hex4(bytes, *pos + 3)?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err("invalid UTF-16 low surrogate".to_string());
                                    }
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    *pos += 6;
                                }
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "invalid \\u code point".to_string())?,
                                );
                            }
                            other => return Err(format!("invalid escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Copy the run of plain bytes up to the next `"` or
                        // `\` as one slice. Both are ASCII, so the run ends
                        // on a char boundary.
                        let start = *pos;
                        while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                            *pos += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&bytes[start..*pos])
                                .map_err(|_| "invalid UTF-8 in string".to_string())?,
                        );
                    }
                }
            }
        }
        Some(b't') => {
            if bytes[*pos..].starts_with(b"true") {
                *pos += 4;
                Ok(JsonValue::Bool(true))
            } else {
                Err(format!("invalid literal at byte {pos}", pos = *pos))
            }
        }
        Some(b'f') => {
            if bytes[*pos..].starts_with(b"false") {
                *pos += 5;
                Ok(JsonValue::Bool(false))
            } else {
                Err(format!("invalid literal at byte {pos}", pos = *pos))
            }
        }
        Some(b'n') => {
            if bytes[*pos..].starts_with(b"null") {
                *pos += 4;
                Ok(JsonValue::Null)
            } else {
                Err(format!("invalid literal at byte {pos}", pos = *pos))
            }
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if start == *pos {
                return Err(format!("unexpected character at byte {pos}", pos = *pos));
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
            text.parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| format!("invalid number `{text}`"))
        }
    }
}

/// Types that serialize to a [`JsonValue`].
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> JsonValue;
}

/// Types that deserialize from a [`JsonValue`].
pub trait FromJson: Sized {
    /// Reconstructs the value, with a descriptive error on malformed input.
    fn from_json(value: &JsonValue) -> Result<Self, String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_document() {
        let doc = JsonValue::object(vec![
            ("name", JsonValue::String("net \"x\"\n".to_string())),
            ("count", JsonValue::int(42)),
            ("ratio", JsonValue::num(0.125)),
            ("flag", JsonValue::Bool(true)),
            ("none", JsonValue::Null),
            (
                "items",
                JsonValue::Array(vec![JsonValue::int(1), JsonValue::int(2)]),
            ),
            ("empty", JsonValue::Array(vec![])),
        ]);
        let text = doc.render();
        let back = JsonValue::parse(&text).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn render_pins_the_exact_bytes_of_a_nested_document() {
        let doc = JsonValue::object(vec![
            (
                "outer",
                JsonValue::Array(vec![
                    JsonValue::object(vec![("n", JsonValue::int(7)), ("x", JsonValue::num(0.5))]),
                    JsonValue::Array(vec![]),
                    JsonValue::object(vec![]),
                ]),
            ),
            ("s", JsonValue::String("a\"b\\c\n\u{1}".to_string())),
        ]);
        let expected = concat!(
            "{\"outer\":[{\"n\":7,\"x\":0.5},[],{}],",
            "\"s\":\"a\\\"b\\\\c\\n\\u0001\"}",
        );
        assert_eq!(doc.render(), expected);
        // The same document as the former indented renderer wrote it:
        // files written that way must keep loading.
        let indented = concat!(
            "{\n",
            "  \"outer\": [\n",
            "    {\n",
            "      \"n\": 7,\n",
            "      \"x\": 0.5\n",
            "    },\n",
            "    [],\n",
            "    {}\n",
            "  ],\n",
            "  \"s\": \"a\\\"b\\\\c\\n\\u0001\"\n",
            "}",
        );
        assert_eq!(JsonValue::parse(indented).unwrap(), doc);
    }

    #[test]
    fn render_pins_the_exact_bytes_of_numbers_and_escapes() {
        let numbers = [
            0.0,
            -0.0,
            7.0,
            -7.0,
            -123_456_789.0,
            8_999_999_999_999_999.0,
            -8_999_999_999_999_999.0,
            MAX_SAFE_INTEGER,
            1e16,
            0.5,
            -2.25,
        ];
        let doc = JsonValue::Array(numbers.iter().map(|&x| JsonValue::num(x)).collect());
        assert_eq!(
            doc.render(),
            concat!(
                "[0,0,7,-7,-123456789,8999999999999999,-8999999999999999,",
                "9007199254740992,10000000000000000,0.5,-2.25]",
            )
        );
        let escapes = JsonValue::String("q\"b\\s/n\nr\rt\tu\u{1}\u{1f}é€".to_string());
        assert_eq!(
            escapes.render(),
            "\"q\\\"b\\\\s/n\\nr\\rt\\tu\\u0001\\u001fé€\""
        );
        for plain in ["", "plain", "é€ π"] {
            assert_eq!(
                JsonValue::String(plain.to_string()).render(),
                format!("\"{plain}\"")
            );
        }
        let flags = JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Bool(false)]);
        assert_eq!(flags.render(), "[true,false]");
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(JsonValue::parse("{not json").is_err());
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("\"open").is_err());
        assert!(JsonValue::parse("{}}").is_err());
        assert!(JsonValue::parse("12e").is_err());
    }

    #[test]
    fn field_accessors() {
        let doc = JsonValue::parse("{\"a\": 3, \"b\": [1.5], \"c\": \"x\"}").unwrap();
        assert_eq!(doc.field("a").unwrap().as_usize().unwrap(), 3);
        assert_eq!(doc.field("b").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(doc.field("c").unwrap().as_str().unwrap(), "x");
        assert!(doc.field("missing").is_err());
        assert!(doc.field("c").unwrap().as_f64().is_err());
        assert!(doc.field("b").unwrap().as_array().unwrap()[0]
            .as_usize()
            .is_err());
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_surrogates_error() {
        let doc = JsonValue::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(doc.as_str().unwrap(), "\u{1F600}");
        assert!(JsonValue::parse("\"\\ud83d\"").is_err());
        assert!(JsonValue::parse("\"\\ud83d\\u0041\"").is_err());
    }

    #[test]
    fn oversized_numbers_are_rejected_not_saturated() {
        let doc = JsonValue::parse("{\"vertices\": 1e30}").unwrap();
        assert!(doc.field("vertices").unwrap().as_usize().is_err());
        assert!(doc.field("vertices").unwrap().as_u64().is_err());
    }

    #[test]
    fn u64_values_roundtrip_exactly() {
        for x in [0u64, 42, (1 << 53) - 1, (1 << 60) + 1, u64::MAX] {
            let rendered = JsonValue::u64_value(x).render();
            let back = JsonValue::parse(&rendered).unwrap().as_u64().unwrap();
            assert_eq!(back, x, "u64 {x} did not roundtrip");
        }
    }

    #[test]
    fn unicode_and_escapes() {
        let doc = JsonValue::parse("\"caf\\u00e9 \\t π\"").unwrap();
        assert_eq!(doc.as_str().unwrap(), "café \t π");
        // Multi-byte characters right next to escapes.
        let doc = JsonValue::parse("\"π\\n€\\\"日\\u00e9本\\\\\"").unwrap();
        assert_eq!(doc.as_str().unwrap(), "π\n€\"日é本\\");
    }
}
