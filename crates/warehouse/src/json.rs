//! Minimal JSON parser producing the `serde` shim's [`Value`] model.
//!
//! The workspace's vendored `serde` shim only *renders* JSON (nothing
//! before `raceline serve` parsed it back), so the wire protocol
//! brings its own reader. It accepts exactly the JSON this workspace
//! emits: objects, arrays, strings with the shim's escapes, integers,
//! floats, booleans and null — enough to round-trip any request or
//! response header through [`Value::to_string`].

use serde::Value;

/// Deepest array/object nesting [`parse`] accepts. Wire headers are flat
/// objects and the deepest response (`diff`) nests three levels; the cap
/// keeps a line of `[`s from recursing through a handler thread's stack.
pub(crate) const MAX_DEPTH: usize = 32;

/// Parse one complete JSON value; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Field lookup on an object value.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Unsigned view of a numeric field.
pub fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match get(v, key)? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// String view of a field.
pub fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match get(v, key)? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Boolean view of a field.
pub fn get_bool(v: &Value, key: &str) -> Option<bool> {
    match get(v, key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos))
            }
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected byte {:?} at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
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
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogates are not emitted by the shim; map
                            // anything unpairable to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {start}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if float {
            text.parse::<f64>().map(Value::Float).map_err(|e| format!("bad number: {e}"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::Int).map_err(|e| format!("bad number: {e}"))
        } else {
            text.parse::<u64>().map(Value::UInt).map_err(|e| format!("bad number: {e}"))
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_shim_output() {
        let v = Value::Object(vec![
            ("cmd".to_string(), Value::Str("submit".to_string())),
            ("build".to_string(), Value::UInt(3)),
            ("neg".to_string(), Value::Int(-7)),
            ("rate".to_string(), Value::Float(0.5)),
            ("ok".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
            (
                "arr".to_string(),
                Value::Array(vec![Value::UInt(1), Value::Str("a\"b\\c\n\t".to_string())]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("truX").is_err());
    }

    #[test]
    fn nesting_is_capped_before_it_exhausts_the_stack() {
        // A 2 MiB thread stack (the handler default) overflowed on this
        // input before the cap.
        let deep = "[".repeat(100_000);
        let r = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&deep))
            .expect("spawn a parser thread")
            .join()
            .expect("the parser thread must not die");
        assert_eq!(r, Err(format!("nesting deeper than {MAX_DEPTH} at offset {MAX_DEPTH}")));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        assert!(parse(&format!("[{ok}]")).is_err());
        assert!(parse("{\"a\":[{\"b\":[1]}]}").is_ok());
    }

    #[test]
    fn accessors() {
        let v = parse("{\"cmd\":\"query\",\"len\":42,\"on\":false}").unwrap();
        assert_eq!(get_str(&v, "cmd"), Some("query"));
        assert_eq!(get_u64(&v, "len"), Some(42));
        assert_eq!(get_bool(&v, "on"), Some(false));
        assert_eq!(get_str(&v, "missing"), None);
    }
}
