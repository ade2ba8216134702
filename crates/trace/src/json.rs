//! The workspace's one JSON reader, and the string escaper of the Chrome
//! trace writer.
//!
//! The repo's documents — Chrome traces ([`crate::chrome`]), the lock
//! service's telemetry snapshot, `bench_sim`'s report — are written by
//! `format!` templates and checked by parsing them here first, so a check
//! reads values, not a line layout. [`parse`] builds a whole document's
//! tree, several times the text's size; [`parse_array`] hands a top-level
//! array over one element at a time, so a check of a multi-megabyte trace
//! holds one event. A non-negative integer that fits a `u64` stays exact
//! ([`Value::Int`]): keys are 64-bit hashes.

/// A parsed JSON value. Object members keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer literal that fits a `u64`, exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, without duplicate keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (`None` for any other value).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// `s` escaped for the inside of a JSON string literal: quote, backslash,
/// newline and tab by name, other control characters as `\u00XX`.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one JSON document (RFC 8259), rejecting duplicate object keys.
///
/// # Errors
///
/// What is wrong, and at which byte.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

/// Parses a document that is one JSON array, handing each element to `f`
/// in order as soon as it is read; the first error, the parser's or `f`'s,
/// ends the walk.
///
/// # Errors
///
/// What is wrong, and at which byte; or `f`'s error as it was returned.
pub fn parse_array(
    text: &str,
    mut f: impl FnMut(Value) -> Result<(), String>,
) -> Result<(), String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    if !p.eat(b'[') {
        return Err(p.error("expected an array"));
    }
    p.list(b']', |p| f(p.value()?))?;
    p.end()
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// Succeeds if only whitespace is left.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Reads the items of a list that `close` ends, each with `item`.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    fn member(&mut self) -> Result<(String, Value), String> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(b':') {
            return Err(self.error("expected ':'"));
        }
        Ok((key, self.value()?))
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        if self.eat(b'[') {
            let mut items = Vec::new();
            self.list(b']', |p| p.value().map(|v| items.push(v)))?;
            return Ok(Value::Arr(items));
        }
        if self.eat(b'{') {
            let mut members: Vec<(String, Value)> = Vec::new();
            self.list(b'}', |p| {
                let (key, v) = p.member()?;
                if members.iter().any(|(k, _)| *k == key) {
                    return Err(p.error(&format!("duplicate key {key:?} in the object")));
                }
                members.push((key, v));
                Ok(())
            })?;
            return Ok(Value::Obj(members));
        }
        match self.peek() {
            Some(b'"') => return self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            _ => {}
        }
        for (word, v) in [
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
            ("null", Value::Null),
        ] {
            if self.text[self.pos..].starts_with(word) {
                self.pos += word.len();
                return Ok(v);
            }
        }
        Err(self.error("expected a value"))
    }

    /// Consumes a run of digits and returns how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let leading_zero = self.peek() == Some(b'0');
        let int_digits = self.digits();
        let mut ok = int_digits == 1 || (int_digits > 1 && !leading_zero);
        let fraction = self.eat(b'.');
        if fraction {
            ok &= self.digits() > 0;
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        let raw = &self.text[start..self.pos];
        match raw.parse::<u64>() {
            _ if !ok => Err(self.error(&format!("malformed number {raw:?}"))),
            Ok(n) if !(negative || fraction || exponent) => Ok(Value::Int(n)),
            _ => Ok(Value::Num(raw.parse().expect("JSON's grammar is f64's"))),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        if hex.len() != 4 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(self.error("bad \\u escape"));
        }
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return Err(self.error("unterminated string or raw control character"));
            }
            let escaped = self
                .peek()
                .ok_or_else(|| self.error("unterminated escape"))?;
            self.pos += 1;
            out.push(match escaped {
                b'"' | b'\\' | b'/' => escaped as char,
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let mut code = self.hex4()?;
                    // A UTF-16 surrogate pair spells one character; a lone
                    // half is no character at all.
                    if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                        let low = self.hex4()?.wrapping_sub(0xDC00);
                        if low < 0x400 {
                            code = 0x10000 + ((code - 0xD800) << 10) + low;
                        }
                    }
                    char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"))?
                }
                _ => return Err(self.error("unknown escape")),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_kind_of_value() {
        let v = parse(r#" {"a": [-3e2, null, true], "b": {"c": "x\"\n\u00e9\ud83d\ude00\/"}} "#);
        let v = v.unwrap();
        let a = Value::Arr(vec![Value::Num(-300.0), Value::Null, Value::Bool(true)]);
        assert_eq!(v.get("a"), Some(&a));
        let c = v.get("b").and_then(|b| b.get("c"));
        assert_eq!(c, Some(&Value::Str("x\"\né😀/".to_string())));
    }

    #[test]
    fn integers_stay_exact_up_to_u64_max() {
        for n in [0, 16_294_208_416_658_607_535, u64::MAX] {
            assert_eq!(parse(&n.to_string()), Ok(Value::Int(n)));
        }
        // Past u64, negative or written with a fraction: an f64.
        assert_eq!(parse("18446744073709551616"), Ok(Value::Num(2f64.powi(64))));
        assert_eq!(parse("-1"), Ok(Value::Num(-1.0)));
        assert_eq!(parse("1.0"), Ok(Value::Num(1.0)));
    }

    #[test]
    fn rejects_malformed_input() {
        // The first six are the inputs `benchmark/src/json.rs`'s test rejects.
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "1 2",
            "[1,]",
            "{\"a\":1,}",
            "01",
            "1.",
            "+1",
            "\"\\x\"",
            "\"a\nb\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = parse(r#"{"a": 1, "b": {"a": 2}, "a": 3}"#).unwrap_err();
        assert!(err.contains("duplicate key \"a\""), "{err}");
    }

    #[test]
    fn parse_array_hands_over_each_element_in_order() {
        let mut seen = Vec::new();
        let walk = parse_array("[1, [], 2, 3]", |v| {
            if v == Value::Int(2) {
                return Err("stop".into());
            }
            seen.push(v);
            Ok(())
        });
        assert_eq!(walk, Err("stop".into()));
        assert_eq!(seen, [Value::Int(1), Value::Arr(vec![])]);
        for bad in ["{}", "[1,", "[1] 2"] {
            assert!(parse_array(bad, |_| Ok(())).is_err(), "{bad:?}");
        }
    }
}
