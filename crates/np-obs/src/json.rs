//! The workspace's one JSON codec: a small value parser and the string
//! escaper every renderer uses.
//!
//! The workspace's serde shim is a no-op (see `shims/README.md`), so the
//! serve wire format, device descriptors and bench trajectories are read
//! here by hand. This is a full little parser — objects, arrays, strings
//! with escapes, numbers, booleans, null — but deliberately nothing more:
//! no streaming, no borrowed slices. Numbers keep their source lexeme, so
//! integers decode exactly (no trip through `f64`) and a caller can apply
//! its own typed parse to the text it was given.

/// One parsed JSON value. Objects preserve key order and duplicate keys (no
/// hashing — the documents read here are small).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number, as its source lexeme (validated to parse as `f64`).
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: src.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric value as u64, when it is a non-negative whole number that
    /// fits. A digit-only lexeme decodes exactly; anything else (`1e3`,
    /// `4.0`) goes through `f64` and must be whole and below 2^64.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(lexeme) = self else { return None };
        if lexeme.bytes().all(|b| b.is_ascii_digit()) {
            return lexeme.parse().ok();
        }
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64).then_some(n as u64)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(lexeme) => lexeme.parse().ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Render `s` as a JSON string literal, surrounding quotes included.
/// Control characters use `\u00XX`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected {:?} at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            // Surrogate pairs are not needed by any document
                            // read here; reject rather than mis-decode.
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("\\u{code:04x} is not a scalar value"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // go (input is a &str and both stops are ASCII, so the
                    // run is valid UTF-8 by construction).
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        match lexeme.parse::<f64>() {
            Ok(_) => Ok(Json::Num(lexeme.to_string())),
            Err(_) => Err(format!("bad number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_objects() {
        let v = Json::parse(
            r#"{"id":"r-1","kernel":"__global__ void k() {}","slave_size":4,
                "deadline_ms":250,"tune":true,"tags":[1,2.5,null,false]}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r-1"));
        assert_eq!(v.get("slave_size").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("deadline_ms").and_then(Json::as_u64), Some(250));
        assert_eq!(v.get("tune").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("tags").and_then(Json::as_array).map(<[Json]>::len), Some(4));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1} é";
        let doc = format!("{{\"s\":{}}}", json_string(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "\"x", "{} {}", "1.2.3", "-"]
        {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn numbers_cover_integers_floats_and_negatives() {
        let v = Json::parse(
            "[0, -3, 2.75, 1e3, 18446744073709551615, 18446744073709551616, \
              9007199254740993, 1e20]",
        )
        .unwrap();
        let Json::Arr(xs) = v else { panic!() };
        assert_eq!(xs[0].as_u64(), Some(0));
        assert_eq!(xs[1].as_f64(), Some(-3.0));
        assert_eq!(xs[1].as_u64(), None, "negative numbers are not u64s");
        assert_eq!(xs[2].as_f64(), Some(2.75));
        assert_eq!(xs[2].as_u64(), None, "fractions are not u64s");
        assert_eq!(xs[3].as_u64(), Some(1000));
        assert_eq!(xs[4].as_u64(), Some(u64::MAX));
        assert_eq!(xs[5].as_u64(), None, "2^64 must not saturate to u64::MAX");
        assert_eq!(xs[6].as_u64(), Some(9_007_199_254_740_993), "2^53+1 decodes exactly");
        assert_eq!(xs[7].as_u64(), None, "1e20 is out of range");
        assert_eq!(xs[6], Json::Num("9007199254740993".to_string()), "lexeme is kept");
    }
}
