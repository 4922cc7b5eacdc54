//! Minimal JSON document builder and parser (the container is offline, so
//! no serde). The parser exists for the compile service's wire protocol:
//! newline-delimited request/response objects built and read with the
//! same [`Json`] type the reports already use.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so an unbounded depth lets one line of `[`
/// overflow a daemon connection thread's stack; protocol documents nest a
/// handful of levels.
pub(crate) const MAX_DEPTH: usize = 128;

/// A JSON value, rendered via [`fmt::Display`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Number(f64),
    /// A string (escaped on render).
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An ordered object (insertion order preserved).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn string<S: Into<String>>(s: S) -> Json {
        Json::String(s.into())
    }

    /// A numeric value.
    pub fn number(n: f64) -> Json {
        Json::Number(n)
    }

    /// An array from any iterator of values.
    pub fn array<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// An object from `(key, value)` pairs, keeping their order.
    pub fn object<'a, I: IntoIterator<Item = (&'a str, Json)>>(fields: I) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parses a JSON document (the service protocol's request/response
    /// lines). Rejects trailing non-whitespace.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos < p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
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
}

struct Parser<'a> {
    /// The document; string runs are copied out of it as `&str`.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{token}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let value = if open == b'[' { self.array() } else { self.object() };
                self.depth -= 1;
                value
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the plain run up to the next quote or backslash in one
            // go. Both are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            self.pos = find_stop(self.bytes, start, decode_stops);
            out.push_str(&self.text[start..self.pos]);
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if c == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let end = self.pos + 4;
                    let code = self
                        .bytes
                        .get(self.pos..end)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.err("malformed \\u escape"))?;
                    self.pos = end;
                    // Surrogates (the emitter never writes them for this
                    // protocol) decode as the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// `0x01` in every byte of a word.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;
/// `0x80` in every byte of a word.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Flags (with its high bit) every byte of `word` below `n`, for `n <= 0x80`.
/// A borrow only leaves a byte that is itself below `n`, so the lowest
/// flag always marks a true match; flags above it may be spurious.
const fn bytes_below(word: u64, n: u8) -> u64 {
    word.wrapping_sub(LOW_BITS * n as u64) & !word & HIGH_BITS
}

/// Flags every byte of `word` equal to `b` (same lowest-flag guarantee).
const fn bytes_equal(word: u64, b: u8) -> u64 {
    bytes_below(word ^ (LOW_BITS * b as u64), 1)
}

/// Bytes that end a plain run when decoding: `"` and `\`.
const fn decode_stops(word: u64) -> u64 {
    bytes_equal(word, b'"') | bytes_equal(word, b'\\')
}

/// Bytes that end a plain run when encoding: `"`, `\` and control bytes.
const fn encode_stops(word: u64) -> u64 {
    decode_stops(word) | bytes_below(word, 0x20)
}

/// Index of the first byte at or after `from` that `stops` flags, or
/// `bytes.len()`. Scans one little-endian `u64` word at a time; the last
/// partial word is padded with spaces, which no `stops` flags.
fn find_stop(bytes: &[u8], mut from: usize, stops: impl Fn(u64) -> u64) -> usize {
    while from < bytes.len() {
        let word = match bytes.get(from..from + 8) {
            Some(chunk) => u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
            None => {
                let mut padded = [b' '; 8];
                padded[..bytes.len() - from].copy_from_slice(&bytes[from..]);
                u64::from_le_bytes(padded)
            }
        };
        let hits = stops(word);
        if hits != 0 {
            return from + (hits.trailing_zeros() / 8) as usize;
        }
        from += 8;
    }
    bytes.len()
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let bytes = s.as_bytes();
    let mut pos = 0;
    loop {
        // Every stop byte is ASCII, so each plain run is whole UTF-8.
        let stop = find_stop(bytes, pos, encode_stops);
        f.write_str(&s[pos..stop])?;
        let Some(&b) = bytes.get(stop) else {
            return f.write_str("\"");
        };
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        pos = stop + 1;
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) if !n.is_finite() => f.write_str("null"),
            // Integers render without a trailing ".0" so counts look like
            // counts.
            Json::Number(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                write!(f, "{}", *n as i64)
            }
            Json::Number(n) => write!(f, "{n}"),
            Json::String(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Json::object([
            ("name", Json::string("qft")),
            ("n", Json::number(16.0)),
            ("ratio", Json::number(2.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::array([Json::number(1.0), Json::number(2.0)])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"qft","n":16,"ratio":2.5,"ok":true,"none":null,"xs":[1,2]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(Json::string("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::string("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::number(f64::NAN).to_string(), "null");
        assert_eq!(Json::number(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn parse_inverts_render() {
        let doc = Json::object([
            ("name", Json::string("qft \"big\"\n")),
            ("n", Json::number(16.0)),
            ("ratio", Json::number(-2.5e-3)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::array([Json::number(1.0), Json::string("π unicode")])),
            ("nested", Json::object([("k", Json::array([]))])),
        ]);
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_string(), doc.to_string());
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : \"x\\u0041/\" } ").unwrap();
        assert_eq!(parsed.get("a"), Some(&Json::array([Json::number(1.0), Json::number(2.0)])));
        assert_eq!(parsed.get("b").and_then(Json::as_str), Some("xA/"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\":}", "tru", "1 2", "{'a':1}", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // A 300 KB line of '[' is an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(300_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(300_000)).is_err());
    }

    /// A small deterministic generator (xorshift64) for the property tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Characters the codec treats differently: the two delimiters, every
    /// control byte, DEL, plain ASCII and 2-, 3- and 4-byte UTF-8.
    fn random_char(rng: &mut Rng) -> char {
        const SPECIAL: [char; 8] = ['"', '\\', '/', '\u{7f}', 'é', 'π', '€', '𝄞'];
        match rng.below(4) {
            0 => char::from(rng.below(0x20) as u8),
            1 => SPECIAL[rng.below(SPECIAL.len())],
            2 => char::from_u32(0x80 + rng.below(0x10_ff80) as u32).unwrap_or('\u{fffd}'),
            _ => char::from(b' ' + rng.below(0x5f) as u8),
        }
    }

    /// Lengths around multiples of the 8-byte scan word.
    fn random_len(rng: &mut Rng) -> usize {
        8 * rng.below(6) + rng.below(3) + 7 - rng.below(2)
    }

    /// The escaping contract, one character at a time.
    fn escaped_by_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn strings_round_trip_through_render_and_parse() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        for _ in 0..4_000 {
            let len = random_len(&mut rng);
            let s: String = (0..len).map(|_| random_char(&mut rng)).collect();
            let rendered = Json::string(s.as_str()).to_string();
            assert_eq!(rendered, escaped_by_char(&s), "render of {s:?}");
            assert_eq!(
                Json::parse(&rendered),
                Ok(Json::String(s.clone())),
                "parse of {rendered:?}"
            );
            // Runs inside documents: keys and array items end where they should.
            let doc = Json::object([(s.as_str(), Json::array([Json::string(s.as_str())]))]);
            assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
        }
    }

    #[test]
    fn every_escape_form_decodes() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for _ in 0..4_000 {
            let (mut text, mut expected) = (String::from("\""), String::new());
            for _ in 0..random_len(&mut rng) {
                let (escape, c) = match rng.below(4) {
                    0 => {
                        let (e, c) = [
                            ("\\\"", '"'),
                            ("\\\\", '\\'),
                            ("\\/", '/'),
                            ("\\n", '\n'),
                            ("\\r", '\r'),
                            ("\\t", '\t'),
                            ("\\b", '\u{8}'),
                            ("\\f", '\u{c}'),
                        ][rng.below(8)];
                        (e.to_string(), c)
                    }
                    1 => {
                        let code = rng.below(0x1_0000) as u32;
                        let e = if rng.below(2) == 0 {
                            format!("\\u{code:04x}")
                        } else {
                            format!("\\u{code:04X}")
                        };
                        (e, char::from_u32(code).unwrap_or('\u{fffd}'))
                    }
                    _ => match random_char(&mut rng) {
                        '"' | '\\' => continue,
                        c => (c.to_string(), c),
                    },
                };
                text.push_str(&escape);
                expected.push(c);
            }
            text.push('"');
            assert_eq!(Json::parse(&text), Ok(Json::String(expected)), "parse of {text:?}");
        }
    }

    #[test]
    fn string_errors_name_their_byte_offset() {
        for (text, err) in [
            ("\"abc", "unterminated string at byte 4"),
            ("\"ééé", "unterminated string at byte 7"),
            ("[\"a\\\"", "unterminated string at byte 5"),
            ("\"ab\\", "unterminated escape at byte 4"),
            ("\"é\\", "unterminated escape at byte 4"),
            ("\"a\\q\"", "unknown escape at byte 4"),
            ("\"éé\\x\"", "unknown escape at byte 7"),
            ("\"\\u12\"", "malformed \\u escape at byte 3"),
            ("\"\\u12g4\"", "malformed \\u escape at byte 3"),
            ("\"\\u00é\"", "malformed \\u escape at byte 3"),
            ("\"a\\u", "malformed \\u escape at byte 4"),
            ("{\"k\\z\":1}", "unknown escape at byte 5"),
            ("\"ok\" x", "trailing content at byte 5"),
        ] {
            assert_eq!(Json::parse(text), Err(err.to_string()), "{text:?}");
        }
    }

    #[test]
    fn multi_byte_strings_parse_and_render_in_linear_time() {
        let s = "é".repeat(1 << 19); // 1 MiB of two-byte UTF-8
        let request =
            Json::object([("op", Json::string("compile")), ("qasm", Json::string(s.as_str()))]);
        let start = std::time::Instant::now();
        let text = request.to_string();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed.get("qasm").and_then(Json::as_str), Some(s.as_str()));
        assert!(elapsed.as_secs_f64() < 1.0, "1 MiB codec round trip took {elapsed:?}");
    }

    #[test]
    fn accessors_read_typed_fields() {
        let doc = Json::parse(r#"{"op":"compile","nodes":4,"verbose":true}"#).unwrap();
        assert_eq!(doc.get("op").and_then(Json::as_str), Some("compile"));
        assert_eq!(doc.get("nodes").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("verbose").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("op"), None);
    }
}
