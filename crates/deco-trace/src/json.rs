//! A minimal codec for flat JSON objects (one nesting level, scalar
//! values), shared by [`crate::event::TraceEvent::from_jsonl`], the
//! report codec in `deco-core::jsonl`, and the `deco-serve` wire protocol.
//! The workspace is std-only, and every line format we produce or consume
//! — trace JSONL, report lines, serve frames — is a flat object of
//! strings/numbers/bools/null, so a full JSON tree is deliberately out of
//! scope.
//!
//! Three pieces: [`parse_object`] (text → key/value pairs),
//! [`ObjectWriter`] (the encode-side twin — builds one canonical line,
//! escaping handled), and [`Fields`] (typed, error-reporting access to a
//! parsed object for codecs that parse back into structs).

/// A scalar JSON value (the only values flat line formats use).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string (escapes decoded).
    String(String),
    /// A JSON number.
    Number(f64),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

/// Parses one flat JSON object into its key/value pairs, in source order.
///
/// # Errors
///
/// A human-readable description of the first syntax problem: input that is
/// not an object, nested arrays/objects, bad escapes, malformed numbers,
/// duplicate keys, or trailing garbage.
pub fn parse_object(input: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    if !p.eat(b'{') {
        return Err("expected a JSON object".into());
    }
    let mut fields: Vec<(String, JsonValue)> = Vec::new();
    p.skip_ws();
    if !p.eat(b'}') {
        loop {
            p.skip_ws();
            let key = p.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            p.skip_ws();
            if !p.eat(b':') {
                return Err(format!("expected ':' after key {key:?}"));
            }
            p.skip_ws();
            let value = p.value()?;
            fields.push((key, value));
            p.skip_ws();
            if p.eat(b',') {
                continue;
            }
            if p.eat(b'}') {
                break;
            }
            return Err("expected ',' or '}' in object".into());
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing characters after object".into());
    }
    Ok(fields)
}

/// Appends `s` to `out` with JSON string escaping (the surrounding quotes
/// are the caller's). The escapes are exactly the ones [`parse_object`]
/// decodes, so writer and parser round-trip every Rust string.
pub fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Builds one flat line-JSON object — the encode twin of [`parse_object`].
/// Keys are written in call order; the output is canonical (no whitespace),
/// so equal field sequences encode to byte-equal lines.
///
/// ```
/// use deco_trace::json::{parse_object, JsonValue, ObjectWriter};
///
/// let mut w = ObjectWriter::new();
/// w.string("kind", "demo").u64("n", 7).bool("ok", true);
/// let line = w.finish();
/// assert_eq!(line, "{\"kind\":\"demo\",\"n\":7,\"ok\":true}");
/// assert_eq!(parse_object(&line).unwrap()[1].1, JsonValue::Number(7.0));
/// ```
#[derive(Debug, Clone)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> ObjectWriter {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Writes a string field (escaped).
    pub fn string(&mut self, key: &str, value: &str) -> &mut ObjectWriter {
        let buf = self.key(key);
        buf.push('"');
        escape_into(buf, value);
        buf.push('"');
        self
    }

    /// Writes an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut ObjectWriter {
        use std::fmt::Write as _;
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Writes a float field. Rust's shortest-round-trip formatting means
    /// the value parses back bit-identical; non-finite values (which JSON
    /// cannot represent) are written as `null`.
    pub fn f64(&mut self, key: &str, value: f64) -> &mut ObjectWriter {
        use std::fmt::Write as _;
        if value.is_finite() {
            let _ = write!(self.key(key), "{value}");
        } else {
            self.key(key).push_str("null");
        }
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut ObjectWriter {
        let word = if value { "true" } else { "false" };
        self.key(key).push_str(word);
        self
    }

    /// Closes the object and returns the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjectWriter {
    fn default() -> ObjectWriter {
        ObjectWriter::new()
    }
}

/// Typed, error-reporting access to a parsed flat object — the shape every
/// line codec wants: parse once, then pull named fields with "missing
/// field" / "wrong type" errors that name the field.
#[derive(Debug, Clone)]
pub struct Fields(Vec<(String, JsonValue)>);

impl Fields {
    /// Parses `line` as a flat JSON object.
    ///
    /// # Errors
    ///
    /// Propagates the [`parse_object`] syntax error.
    pub fn parse(line: &str) -> Result<Fields, String> {
        parse_object(line).map(Fields)
    }

    /// The raw field list, in source order.
    pub fn as_slice(&self) -> &[(String, JsonValue)] {
        &self.0
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not a string.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(JsonValue::String(s)) => Ok(s),
            Some(_) => Err(format!("field {key:?} is not a string")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// An optional string field (`None` when absent or `null`).
    ///
    /// # Errors
    ///
    /// Names the field when it is present but not a string.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            Some(JsonValue::String(s)) => Ok(Some(s)),
            Some(JsonValue::Null) | None => Ok(None),
            Some(_) => Err(format!("field {key:?} is not a string")),
        }
    }

    /// A required numeric field as `f64`.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not a number.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(JsonValue::Number(n)) => Ok(*n),
            Some(_) => Err(format!("field {key:?} is not a number")),
            None => Err(format!("missing field {key:?}")),
        }
    }

    /// A required non-negative integer field. Rejects fractional and
    /// out-of-range numbers instead of truncating them.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing, not a number, or not a `u64`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        let n = self.f64(key)?;
        if n >= 0.0 && n <= u64::MAX as f64 && n.fract() == 0.0 {
            Ok(n as u64)
        } else {
            Err(format!("field {key:?} is not an unsigned integer"))
        }
    }

    /// An optional non-negative integer field (`None` when absent).
    ///
    /// # Errors
    ///
    /// Names the field when it is present but not a `u64`.
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(_) => self.u64(key).map(Some),
        }
    }

    /// A required boolean field.
    ///
    /// # Errors
    ///
    /// Names the field when it is missing or not a boolean.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(JsonValue::Bool(b)) => Ok(*b),
            Some(_) => Err(format!("field {key:?} is not a boolean")),
            None => Err(format!("missing field {key:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'{') | Some(b'[') => Err("nested objects/arrays are not supported".into()),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal (expected {word})"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err("expected a string".into());
        }
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape sequence")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the run of unescaped bytes up to the next quote
                    // or backslash as one slice. Both are ASCII, so the run
                    // of the `&str` input ends on a character boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|_| "invalid UTF-8")?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        self.eat(b'-');
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        raw.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number {raw:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects_with_all_scalar_types() {
        let fields = parse_object(
            "{\"name\":\"solve/cycle\",\"mean_ns\":1234.5,\"ok\":true,\"skip\":false,\"x\":null}",
        )
        .unwrap();
        assert_eq!(fields.len(), 5);
        assert_eq!(fields[0].1, JsonValue::String("solve/cycle".into()));
        assert_eq!(fields[1].1, JsonValue::Number(1234.5));
        assert_eq!(fields[2].1, JsonValue::Bool(true));
        assert_eq!(fields[3].1, JsonValue::Bool(false));
        assert_eq!(fields[4].1, JsonValue::Null);
    }

    #[test]
    fn decodes_escapes() {
        let fields = parse_object("{\"k\":\"a\\n\\t\\\"b\\\\\\u0041\"}").unwrap();
        assert_eq!(fields[0].1, JsonValue::String("a\n\t\"b\\A".into()));
    }

    #[test]
    fn multibyte_text_round_trips_next_to_escapes() {
        for s in [
            "é",
            "é\n",
            "\"é",
            "ü\\\"€",
            "日本\t語",
            "𝄞a\u{0001}𝄞",
            "\\𝄞\\",
        ] {
            let mut w = ObjectWriter::new();
            w.string("s", s);
            let line = w.finish();
            let fields = parse_object(&line).unwrap();
            assert_eq!(fields[0].1, JsonValue::String(s.into()), "{line}");
        }
        let fields = parse_object("{\"k\":\"é\\u0041€\"}").unwrap();
        assert_eq!(fields[0].1, JsonValue::String("éA€".into()));
    }

    #[test]
    fn handles_empty_object_and_whitespace() {
        assert!(parse_object("  { }  ").unwrap().is_empty());
        let fields = parse_object("{ \"a\" : 1 , \"b\" : 2 }").unwrap();
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let mut w = ObjectWriter::new();
        w.string("s", "a\n\"b\\c\u{0001}")
            .u64("n", u64::MAX)
            .f64("f", -12.25)
            .f64("inf", f64::INFINITY)
            .bool("yes", true)
            .bool("no", false);
        let line = w.finish();
        let fields = Fields::parse(&line).unwrap();
        assert_eq!(fields.str("s").unwrap(), "a\n\"b\\c\u{0001}");
        // u64::MAX exceeds f64 precision; the codec's own integers stay
        // well below 2^53, where round-tripping is exact.
        assert_eq!(fields.f64("f").unwrap(), -12.25);
        assert_eq!(fields.get("inf"), Some(&JsonValue::Null));
        assert!(fields.bool("yes").unwrap());
        assert!(!fields.bool("no").unwrap());
        let mut w = ObjectWriter::new();
        w.u64("n", 1u64 << 53);
        let line = w.finish();
        assert_eq!(Fields::parse(&line).unwrap().u64("n").unwrap(), 1u64 << 53);
    }

    #[test]
    fn empty_writer_is_the_empty_object() {
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }

    #[test]
    fn fields_report_missing_and_mistyped_keys_by_name() {
        let fields = Fields::parse("{\"n\":1.5,\"s\":\"x\",\"b\":true}").unwrap();
        assert!(fields.str("gone").unwrap_err().contains("gone"));
        assert!(fields.u64("n").unwrap_err().contains("unsigned"));
        assert!(fields.f64("s").unwrap_err().contains('s'));
        assert!(fields.bool("n").unwrap_err().contains("boolean"));
        assert_eq!(fields.opt_str("gone").unwrap(), None);
        assert_eq!(fields.opt_str("s").unwrap(), Some("x"));
        assert!(fields.opt_str("n").is_err());
        assert_eq!(fields.opt_u64("gone").unwrap(), None);
        assert!(fields.opt_u64("n").is_err());
        assert_eq!(fields.f64("n").unwrap(), 1.5);
    }

    #[test]
    fn rejects_malformed_input() {
        for (input, needle) in [
            ("", "expected a JSON object"),
            ("[1]", "expected a JSON object"),
            ("{\"a\":1", "expected ',' or '}'"),
            ("{\"a\" 1}", "expected ':'"),
            ("{\"a\":{}}", "nested"),
            ("{\"a\":[1]}", "nested"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("{\"a\":1} x", "trailing"),
            ("{\"a\":tru}", "invalid literal"),
            ("{\"a\":--1}", "invalid number"),
            ("{\"a\":\"unterminated}", "unterminated string"),
            ("{\"a\":\"bad \\q\"}", "invalid escape"),
        ] {
            let err = parse_object(input).unwrap_err();
            assert!(err.contains(needle), "input {input:?}: {err}");
        }
    }
}
