//! Offline compatibility shim for the subset of `serde_json` this workspace
//! uses: [`to_string`] and [`from_str`] over the sibling `serde` shim's
//! [`Content`] data model, and a pull [`Reader`] that reads a known shape
//! without building a [`Content`] tree. Parse errors name the byte offset
//! where parsing stopped.
//!
//! Output is standard JSON. Floats print with Rust's shortest-roundtrip
//! formatting, so every finite `f64` (and any `f32` widened through `f64`)
//! parses back bit-identically. Non-finite floats serialize as `null`,
//! which float deserialization reads back as NaN.

use serde::{Content, Deserialize, Error, Serialize};
use std::fmt::Write;

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_content(&mut out, &value.serialize());
    Ok(out)
}

/// Parses a JSON string into a value.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let content = p.parse_value()?;
    p.finish()?;
    T::deserialize(&content)
}

/// A pull reader over JSON text, for a caller that knows the shape it
/// expects and reads it token by token into its own types. Each method
/// first skips whitespace. Strings unescape exactly as in [`from_str`],
/// through the same tokenizer, and every error names a byte offset.
pub struct Reader<'a> {
    p: Parser<'a>,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`. Text outside strings must be
    /// ASCII, and each string valid UTF-8.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            p: Parser { bytes, pos: 0 },
        }
    }

    /// Consumes the structural byte `b`, such as `{` or `,`.
    pub fn expect(&mut self, b: u8) -> Result<(), Error> {
        self.p.skip_ws();
        self.p.expect(b)
    }

    /// Consumes the structural byte `b` if it comes next, and says whether
    /// it did.
    pub fn eat(&mut self, b: u8) -> bool {
        self.p.skip_ws();
        let next = self.p.peek() == Some(b);
        if next {
            self.p.pos += 1;
        }
        next
    }

    /// Consumes the object key `name`, written without escapes, and the
    /// colon after it.
    pub fn key(&mut self, name: &str) -> Result<(), Error> {
        self.p.skip_ws();
        let rest = &self.p.bytes[self.p.pos..];
        let quoted = rest.len() > name.len() + 1
            && rest[0] == b'"'
            && rest[1..].starts_with(name.as_bytes())
            && rest[name.len() + 1] == b'"';
        if !quoted {
            return Err(self.p.err(format_args!("expected key {name:?}")));
        }
        self.p.pos += name.len() + 2;
        self.expect(b':')
    }

    /// Reads a string, unescaping it.
    pub fn string(&mut self) -> Result<String, Error> {
        self.p.skip_ws();
        self.p.parse_string()
    }

    /// Reads an unsigned integer that fits a `u64`: digits only, with no
    /// sign, fraction or exponent.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.p.skip_ws();
        let at = self.p.pos;
        if matches!(self.p.peek(), Some(b'0'..=b'9')) {
            if let Content::U64(v) = self.p.parse_number()? {
                return Ok(v);
            }
        }
        self.p.pos = at;
        Err(self.p.err("expected an unsigned integer"))
    }

    /// Checks that nothing but whitespace remains.
    pub fn end(&mut self) -> Result<(), Error> {
        self.p.finish()
    }
}

// ------------------------------------------------------------------ printing

fn write_content(out: &mut String, c: &Content) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(true) => out.push_str("true"),
        Content::Bool(false) => out.push_str("false"),
        Content::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Content::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Content::F64(v) => {
            if v.is_finite() {
                // `{}` on f64 is shortest-roundtrip; force a fractional or
                // exponent marker so the value re-parses as a float.
                let s = format!("{v}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Content::Str(s) => write_json_string(out, s),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_content(out, item);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(out, k);
                out.push(':');
                write_content(out, v);
            }
            out.push('}');
        }
    }
}

/// Appends `s` as a JSON string literal, quotes included, escaped exactly
/// as [`to_string`] escapes every string and map key: writers that stream
/// JSON piece by piece call it to produce the same bytes.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// An error about the text at the current offset.
    fn err(&self, what: impl std::fmt::Display) -> Error {
        Error::msg(format!("{what} at offset {}", self.pos))
    }

    /// Checks that nothing but whitespace remains.
    fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format_args!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Content, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Content::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Content::Bool(false)),
            Some(b'"') => Ok(Content::Str(self.parse_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Content::Seq(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Content::Map(entries));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(self.err(format_args!("unexpected {:?}", other.map(|b| b as char)))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !(self.eat_keyword("\\u")) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format_args!("invalid escape \\{}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash
                    // at once, validating it once. Both delimiters are
                    // ASCII, so the run ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Content, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Content::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Content::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| self.err(format_args!("invalid number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(from_str::<i32>("-7").unwrap(), -7);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(!from_str::<bool>("false").unwrap());
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
    }

    #[test]
    fn floats_roundtrip_bit_exact() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, 123_456_789.123_456_79, -0.0] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
        for bits in [0x3f80_0001u32, 0x0000_0001, 0x7f7f_ffff] {
            let x = f32::from_bits(bits);
            let s = to_string(&x).unwrap();
            let back: f32 = from_str(&s).unwrap();
            assert_eq!(back.to_bits(), bits, "{s}");
        }
    }

    #[test]
    fn numbers_keep_their_kinds_at_the_edges() {
        let parse = |text: &str| {
            let mut p = Parser {
                bytes: text.as_bytes(),
                pos: 0,
            };
            p.parse_value().and_then(|c| p.finish().map(|()| c))
        };
        assert_eq!(parse("0"), Ok(Content::U64(0)));
        assert_eq!(parse("007"), Ok(Content::U64(7)));
        assert_eq!(parse("18446744073709551615"), Ok(Content::U64(u64::MAX)));
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Content::F64(18446744073709551616.0))
        );
        assert_eq!(parse("-0"), Ok(Content::I64(0)));
        assert_eq!(parse("-9223372036854775808"), Ok(Content::I64(i64::MIN)));
        assert_eq!(parse("1e3"), Ok(Content::F64(1000.0)));
        assert_eq!(
            parse("[7,8]"),
            Ok(Content::Seq(vec![Content::U64(7), Content::U64(8)]))
        );
        assert!(parse("12-3").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn whole_floats_keep_float_syntax() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
    }

    #[test]
    fn nan_becomes_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert!(from_str::<f64>("null").unwrap().is_nan());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "he said \"hi\"\nline2\tπ\u{1F600}".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        // Explicit surrogate-pair escape parses too.
        assert_eq!(
            from_str::<String>("\"\\ud83d\\ude00\"").unwrap(),
            "\u{1F600}"
        );
    }

    #[test]
    fn escapes_next_to_multibyte_runs() {
        let s = "π\"é\\\n😀".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(json, "\"π\\\"é\\\\\\n😀\"");
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(
            from_str::<String>("\"\\tπ\\u00e9x\\\\\"").unwrap(),
            "\tπéx\\"
        );
    }

    #[test]
    fn empty_and_multibyte_final_strings() {
        assert_eq!(from_str::<String>("\"\"").unwrap(), "");
        assert_eq!(from_str::<String>("\"aé\"").unwrap(), "aé");
        assert_eq!(from_str::<String>("\"😀\"").unwrap(), "😀");
        let v: Vec<String> = from_str("[\"\",\"ü\",\"\"]").unwrap();
        assert_eq!(v, ["", "ü", ""]);
        assert!(from_str::<String>("\"é").is_err(), "unterminated after é");
    }

    #[test]
    fn nested_containers_roundtrip() {
        let v: Vec<(u64, Option<f32>)> = vec![(1, Some(0.5)), (2, None)];
        let json = to_string(&v).unwrap();
        let back: Vec<(u64, Option<f32>)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u64>("4 2").is_err());
        assert!(from_str::<u64>("{").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn reader_pulls_a_known_shape_and_names_offsets() {
        let mut r = Reader::new(b" {\n\"k\" : [ \"a\\u00e9\\ud83d\\ude00\" , 7 ] } ");
        r.expect(b'{').unwrap();
        r.key("k").unwrap();
        r.expect(b'[').unwrap();
        assert_eq!(r.string().unwrap(), "aé😀");
        assert!(r.eat(b','));
        assert!(!r.eat(b','));
        assert_eq!(r.u64().unwrap(), 7);
        r.expect(b']').unwrap();
        r.expect(b'}').unwrap();
        r.end().unwrap();

        let err = |text: &str, read: fn(&mut Reader) -> Result<(), Error>| {
            read(&mut Reader::new(text.as_bytes())).unwrap_err().0
        };
        for bad in ["-1", "1.5", "1e3", "18446744073709551616", "\"7\"", ""] {
            assert_eq!(
                err(bad, |r| r.u64().map(drop)),
                "expected an unsigned integer at offset 0",
                "{bad:?}"
            );
        }
        assert_eq!(
            err(" \"kk\":", |r| r.key("k")),
            "expected key \"k\" at offset 1"
        );
        assert_eq!(err("\"k\" 1", |r| r.key("k")), "expected ':' at offset 4");
        assert_eq!(
            err("\"a\\q\"", |r| r.string().map(drop)),
            "invalid escape \\q at offset 4"
        );
        assert_eq!(
            err("1 x", |r| r.u64().and_then(|_| r.end())),
            "trailing characters at offset 2"
        );
    }
}
