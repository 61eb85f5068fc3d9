//! JSON output with every digit of a measured number.
//!
//! `frugal_telemetry::json` supplies the value type and the parser; its
//! writer rounds floats to three decimals (the Chrome-trace convention),
//! which would flatten a 0.8127 s set-up time, so the benchmark serialises
//! [`Json`] values itself with Rust's shortest round-trip float format.

use frugal_telemetry::json::{escape_into, Json};
use std::fmt::Write as _;

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn text(s: &str) -> Json {
    Json::Str(s.to_owned())
}

pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Serialises `value` on one line. Non-finite numbers become `null` (JSON
/// has no spelling for them).
pub fn to_line(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                escape_into(k, out);
                out.push(':');
                write_value(v, out);
            }
            out.push('}');
        }
    }
}

/// Field lookups that name the missing field in the error.
pub fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

pub fn field_f64(value: &Json, key: &str) -> Result<f64, String> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

pub fn field_str<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    field(value, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frugal_telemetry::json::parse;

    #[test]
    fn round_trips_through_the_telemetry_parser() {
        let doc = obj(vec![
            ("name", text("zipf \"quoted\"\n")),
            ("value", num(0.812_734_561_234)),
            ("big", num(1_234_567.891_011)),
            ("tiny", num(1.5e-9)),
            ("count", num(42.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Arr(vec![num(1.0), num(-2.5), text("x")])),
            ("nested", obj(vec![("unit", text("keys/s"))])),
        ]);
        let line = to_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), doc);
    }

    #[test]
    fn keeps_every_digit_and_nulls_non_finite() {
        assert_eq!(to_line(&num(0.1 + 0.2)), "0.30000000000000004");
        assert_eq!(to_line(&num(3.0)), "3");
        assert_eq!(to_line(&num(f64::NAN)), "null");
        assert_eq!(to_line(&num(f64::INFINITY)), "null");
    }

    #[test]
    fn field_helpers_name_what_is_missing() {
        let doc = obj(vec![("a", num(1.0)), ("s", text("x"))]);
        assert_eq!(field_f64(&doc, "a"), Ok(1.0));
        assert_eq!(field_str(&doc, "s"), Ok("x"));
        assert!(field_f64(&doc, "b").unwrap_err().contains("\"b\""));
        assert!(field_f64(&doc, "s").unwrap_err().contains("not a number"));
    }
}
