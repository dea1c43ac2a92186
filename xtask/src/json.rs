//! A small JSON reader for what xtask parses: `BENCHMARK.json`,
//! perfbench's result line and `analysis-baseline.json` (the workspace
//! has no serde). It reads objects, arrays, strings, numbers, booleans
//! and `null`; the only string escapes it knows are `\"`, `\\` and `\/`.

use std::collections::BTreeMap;

/// One parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document, surrounding whitespace allowed.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut rest = text.as_bytes();
        let value = value(&mut rest)?;
        if rest.trim_ascii().is_empty() {
            Ok(value)
        } else {
            Err(error("trailing characters", rest))
        }
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn error(what: &str, rest: &[u8]) -> String {
    let near = String::from_utf8_lossy(&rest[..rest.len().min(24)]);
    format!("JSON: {what} at `{near}`")
}

/// Consumes `want` if it is the next byte after any whitespace.
fn eat(s: &mut &[u8], want: u8) -> bool {
    *s = s.trim_ascii_start();
    let hit = s.first() == Some(&want);
    if hit {
        *s = &s[1..];
    }
    hit
}

fn value(s: &mut &[u8]) -> Result<Json, String> {
    *s = s.trim_ascii_start();
    for (word, value) in [
        ("true", Json::Bool(true)),
        ("false", Json::Bool(false)),
        ("null", Json::Null),
    ] {
        if let Some(rest) = s.strip_prefix(word.as_bytes()) {
            *s = rest;
            return Ok(value);
        }
    }
    if s.first() == Some(&b'"') {
        return string(s).map(Json::String);
    }
    if eat(s, b'[') {
        let mut items = Vec::new();
        list(s, b']', |s| {
            items.push(value(s)?);
            Ok(())
        })?;
        return Ok(Json::Array(items));
    }
    if eat(s, b'{') {
        let mut members = BTreeMap::new();
        list(s, b'}', |s| {
            let key = string(s)?;
            if !eat(s, b':') {
                return Err(error("expected `:`", s));
            }
            members.insert(key, value(s)?);
            Ok(())
        })?;
        return Ok(Json::Object(members));
    }
    let len = s
        .iter()
        .take_while(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        .count();
    let number = std::str::from_utf8(&s[..len])
        .ok()
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| error("expected a value", s))?;
    *s = &s[len..];
    Ok(Json::Number(number))
}

/// Parses comma-separated `item`s up to and including `close`.
fn list(
    s: &mut &[u8],
    close: u8,
    mut item: impl FnMut(&mut &[u8]) -> Result<(), String>,
) -> Result<(), String> {
    if eat(s, close) {
        return Ok(());
    }
    loop {
        item(s)?;
        if eat(s, close) {
            return Ok(());
        }
        if !eat(s, b',') {
            return Err(error("expected `,`", s));
        }
    }
}

fn string(s: &mut &[u8]) -> Result<String, String> {
    if !eat(s, b'"') {
        return Err(error("expected a string", s));
    }
    let mut out = Vec::new();
    loop {
        let cur: &[u8] = s;
        let (byte, rest) = match cur {
            [b'"', rest @ ..] => {
                *s = rest;
                return String::from_utf8(out).map_err(|_| error("invalid UTF-8", s));
            }
            [b'\\', c @ (b'"' | b'\\' | b'/'), rest @ ..] => (*c, rest),
            [c, rest @ ..] if *c != b'\\' => (*c, rest),
            _ => return Err(error("unsupported escape or open string", s)),
        };
        out.push(byte);
        *s = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_value_kind() {
        let v = Json::parse(" {\"a\": [1, -2.5e3, true, false, null], \"s\": \"x\\\"y\\\\—\"} ")
            .unwrap();
        let a = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!((a[2].as_bool(), a[3].as_bool()), (Some(true), Some(false)));
        assert_eq!(a[4], Json::Null);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x\"y\\—"));
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(BTreeMap::new()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "[1 2]", "nul", "1.2.3", "\"open", "\"\\n\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Json::parse("{\"a\" 1}").is_err() && Json::parse("{\"a\": 1} x").is_err());
    }
}
