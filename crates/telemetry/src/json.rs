//! The workspace's one JSON module: a string escaper for every
//! hand-written emitter and a bounded value parser for every reader.
//!
//! The workspace is std-only by design, so it emits JSON with
//! `format!` plus [`escape`] (Perfetto traces, `write_json` tables, the
//! sweep journal and failure manifest, warped-serve responses) and
//! reads it back with a recursive-descent [`parse`] into a plain
//! [`JsonValue`] tree (warped-serve request bodies, `GridTable`, the
//! sweep journal). This is deliberately *not* a general-purpose JSON
//! library: numbers collapse to `f64` (plenty for gating parameters,
//! scale factors and cycle counts below 2^53), object keys keep file
//! order, and the nesting depth is capped so a hostile body cannot
//! overflow the stack.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, keys in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object (first match); `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that
    /// round-trips exactly (so `3.5` or `-1` return `None`).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The object's keys in source order (empty for non-objects).
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            JsonValue::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Why a body failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the parser expected.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

const MAX_DEPTH: usize = 32;

/// Parses one JSON document (and nothing else: trailing non-whitespace
/// bytes are an error).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        b: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(p.err("trailing bytes after the document"));
    }
    Ok(v)
}

/// Escapes a string for embedding in emitted JSON.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn ws(&mut self) {
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn lit(&mut self, t: &str) -> bool {
        if self.b[self.pos..].starts_with(t.as_bytes()) {
            self.pos += t.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        match self.b.get(self.pos) {
            Some(b'n') if self.lit("null") => Ok(JsonValue::Null),
            Some(b't') if self.lit("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.lit("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.lit("]") {
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.ws();
                    if self.lit(",") {
                        continue;
                    }
                    if self.lit("]") {
                        return Ok(JsonValue::Arr(items));
                    }
                    return Err(self.err("expected ',' or ']'"));
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.ws();
                if self.lit("}") {
                    return Ok(JsonValue::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.lit(":") {
                        return Err(self.err("expected ':'"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.ws();
                    if self.lit(",") {
                        continue;
                    }
                    if self.lit("}") {
                        return Ok(JsonValue::Obj(members));
                    }
                    return Err(self.err("expected ',' or '}'"));
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|n: &f64| n.is_finite())
            .map(JsonValue::Num)
            .ok_or_else(|| self.err("malformed number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.lit("\"") {
            return Err(self.err("expected '\"'"));
        }
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.pos)
                .ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the whole run up to the next quote or escape.
                    let start = self.pos - 1;
                    let end = self.b[start..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .map_or(self.b.len(), |n| start + n);
                    let s = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_run_request_shape() {
        let v = parse(
            "{\"benchmark\":\"nw\",\"technique\":\"baseline\",\"scale\":1.0,\
             \"bet\":14,\"nested\":{\"a\":[1,2,null,true]}}",
        )
        .unwrap();
        assert_eq!(v.get("benchmark").unwrap().as_str(), Some("nw"));
        assert_eq!(v.get("scale").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("bet").unwrap().as_u64(), Some(14));
        assert_eq!(
            v.get("nested").unwrap().get("a"),
            Some(&JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.0),
                JsonValue::Null,
                JsonValue::Bool(true),
            ]))
        );
        assert_eq!(v.keys()[0], "benchmark");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("14").unwrap().as_u64(), Some(14));
    }

    #[test]
    fn rejects_malformed_bodies() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{} trailing",
            "\"unterminated",
            "nul",
            "1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(64) + &"]".repeat(64);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let original = "a\"b\\c\nd\te";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(original));
    }
}
