//! A minimal JSON value and writer, for the stats object and the bench
//! reports (the build is offline, so no serde).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects use a `BTreeMap` so serialization is deterministic
/// (stable key order makes the e2e output diffable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always carried as f64; the integers written are small)
    Num(f64),
    /// A string
    Str(String),
    /// An array
    Arr(Vec<Json>),
    /// An object
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialize to a compact string (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                } else {
                    let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_compactly() {
        let v = Json::obj(vec![
            (
                "b",
                Json::Arr(vec![Json::Bool(true), Json::Str("x".into())]),
            ),
            ("a", Json::Num(1.0)),
            ("n", Json::Null),
            ("f", Json::Num(-3.5)),
        ]);
        assert_eq!(
            v.to_string_compact(),
            r#"{"a":1,"b":[true,"x"],"f":-3.5,"n":null}"#
        );
    }

    #[test]
    fn escapes_are_written() {
        let v = Json::Str("line\nquote\"tab\tback\\üñî\u{1}".to_string());
        assert_eq!(
            v.to_string_compact(),
            r#""line\nquote\"tab\tback\\üñî\u0001""#
        );
    }

    #[test]
    fn object_order_is_deterministic() {
        let a = Json::obj(vec![("b", Json::Num(1.0)), ("a", Json::Num(2.0))]);
        let b = Json::obj(vec![("a", Json::Num(2.0)), ("b", Json::Num(1.0))]);
        assert_eq!(a.to_string_compact(), b.to_string_compact());
    }
}
