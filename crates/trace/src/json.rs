//! Minimal hand-rolled JSON: a writer, a recursive-descent parser and
//! the record codec shared by trace events and stored plans.
//!
//! The build environment has no crates.io access, so — like
//! `disq-bench`'s harness records — serialization is string assembly and
//! parsing is a small self-contained scanner. Only the subset the trace
//! format uses is supported: objects, arrays, strings, numbers, booleans
//! and `null`. JSON has no NaN or infinity: [`write_f64`] writes a
//! non-finite float as `null` (read back as `f64::NAN`), while the exact
//! codec of traces and the plan store ([`write_f64_exact`] /
//! [`Json::as_f64_exact`]) keeps every bit pattern.
//!
//! [`Field`] says how one member type is written and read back, and
//! [`record!`](crate::record) derives it for a struct from one member
//! list, so a record's encoder and decoder cannot drift apart. Trace
//! events' nested records and every record of a stored plan are declared
//! with it. Decoders check shapes only; checks across members run after.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`; the trace format keeps
    /// integers small enough for exact representation).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps key order deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content; `null` reads as NaN (the writer's encoding of
    /// non-finite floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// A float written by [`write_f64_exact`]: a number, or a
    /// `"bits:<16 hex digits>"` string. `null`, the older encoding of any
    /// non-finite float, reads as NaN.
    pub fn as_f64_exact(&self) -> Option<f64> {
        match self {
            Json::Str(s) => {
                let hex = s.strip_prefix("bits:")?;
                if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                    return None;
                }
                u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
            }
            other => other.as_f64(),
        }
    }

    /// Numeric content as `u64` (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Numeric content as `i64` (rejects fractions).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 => Some(*n as i64),
            _ => None,
        }
    }

    /// Boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array content, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float: Rust's shortest round-trip decimal form, or `null`
/// for non-finite values (JSON cannot carry NaN/inf).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends a float so that [`Json::as_f64_exact`] reads back the same
/// bits: the shortest round-trip decimal when finite (`-0.0` stays
/// `-0`), else `"bits:<16 hex digits>"` of its IEEE-754 pattern, so
/// ±inf and NaN payloads survive.
pub fn write_f64_exact(out: &mut String, v: f64) {
    if v.is_finite() {
        write_f64(out, v);
    } else {
        let _ = write!(out, "\"bits:{:016x}\"", v.to_bits());
    }
}

/// How one member type of a record is written to and read from JSON.
pub trait Field: Sized {
    /// Appends the JSON encoding of `self`.
    fn encode(&self, out: &mut String);
    /// Decodes member `name` of an object (`None` when the key is
    /// absent); `ctx` names the object in error messages.
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String>;
}

fn missing(ctx: &str, what: &str, name: &str) -> String {
    format!("{ctx}: missing {what} {name:?}")
}

/// Integers and booleans: written with `Display`, read through the
/// matching [`Json`] accessor or, when narrower than `u64`, range-checked.
macro_rules! scalar {
    ($($t:ty => $read:expr, $what:literal;)*) => {$(
        impl Field for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
                j.and_then($read)
                    .ok_or_else(|| missing(ctx, $what, name))?
                    .try_into()
                    .map_err(|_| format!("{ctx}: {name:?} out of range"))
            }
        }
    )*};
}

scalar! {
    u64 => Json::as_u64, "integer";
    u32 => Json::as_u64, "integer";
    usize => Json::as_u64, "integer";
    i64 => Json::as_i64, "integer";
    bool => Json::as_bool, "boolean";
}

impl Field for f64 {
    fn encode(&self, out: &mut String) {
        write_f64_exact(out, *self);
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_f64_exact)
            .ok_or_else(|| missing(ctx, "number", name))
    }
}

impl Field for String {
    fn encode(&self, out: &mut String) {
        write_str(out, self);
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| missing(ctx, "string", name))
    }
}

/// `None` is `null`, so the inner type must never encode as `null`.
impl<T: Field> Field for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        match j {
            Some(Json::Null) => Ok(None),
            j => T::decode(j, ctx, name).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.encode(out);
        }
        out.push(']');
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        j.and_then(Json::as_arr)
            .ok_or_else(|| missing(ctx, "array", name))?
            .iter()
            .map(|v| T::decode(Some(v), ctx, name))
            .collect()
    }
}

/// A borrowed value encodes as what it points to and decodes owned, so a
/// record can write a value it does not own.
impl<T: Field + Clone> Field for Cow<'_, T> {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }
    fn decode(j: Option<&Json>, ctx: &str, name: &str) -> Result<Self, String> {
        T::decode(j, ctx, name).map(Cow::Owned)
    }
}

/// Writes the members of one JSON object in order.
pub struct Members<'a> {
    out: &'a mut String,
    /// `{` before the first member, `,` after it.
    sep: char,
}

impl<'a> Members<'a> {
    /// Starts an object on `out`; it needs at least one member.
    pub fn open(out: &'a mut String) -> Self {
        Members { out, sep: '{' }
    }

    /// Writes member `name`'s key and returns the buffer for its value.
    pub fn member(&mut self, name: &str) -> &mut String {
        self.out.push(self.sep);
        self.sep = ',';
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
        self.out
    }

    /// Ends the object.
    pub fn close(self) {
        self.out.push('}');
    }
}

/// Member `name` of object `ctx` as the object a record decodes from.
pub fn object<'a>(j: Option<&'a Json>, ctx: &str, name: &str) -> Result<&'a Json, String> {
    j.filter(|j| matches!(j, Json::Obj(_)))
        .ok_or_else(|| missing(ctx, "object", name))
}

/// Implements [`Field`](crate::json::Field) for a struct from its member
/// list: members are written in the listed order and read back by key.
///
/// A member is a field name, then `as "key"` when its JSON key differs,
/// and `with reader` when it must be read more strictly than its type's
/// `Field` impl reads it (`reader(Option<&Json>, ctx, name)`). A trailing
/// `via constructor` decodes through `Self::constructor(members…)`, a
/// fallible constructor, instead of a struct literal. Decode errors name
/// the member holding the record and the member that failed, e.g.
/// `point: missing number "y"`.
#[macro_export]
macro_rules! record {
    (
        $ty:ty { $( $f:ident $(as $key:literal)? $(with $reader:ident)? ),+ $(,)? }
        $(via $ctor:ident)?
    ) => {
        impl $crate::json::Field for $ty {
            fn encode(&self, out: &mut String) {
                let mut m = $crate::json::Members::open(out);
                $(
                    let key = $crate::record!(@key $f $($key)?);
                    $crate::json::Field::encode(&self.$f, m.member(key));
                )+
                m.close();
            }

            fn decode(
                j: Option<&$crate::json::Json>,
                ctx: &str,
                name: &str,
            ) -> Result<Self, String> {
                let j = $crate::json::object(j, ctx, name)?;
                $(
                    let key = $crate::record!(@key $f $($key)?);
                    let $f = $crate::record!(@read [$($reader)?] j.get(key), name, key)?;
                )+
                $crate::record!(@build [$($ctor)?] name, $($f),+)
            }
        }
    };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:literal) => { $key };
    (@read [] $($arg:expr),+) => { $crate::json::Field::decode($($arg),+) };
    (@read [$reader:ident] $($arg:expr),+) => { $reader($($arg),+) };
    (@build [] $name:ident, $($f:ident),+) => { Ok(Self { $($f),+ }) };
    (@build [$ctor:ident] $name:ident, $($f:ident),+) => {
        Self::$ctor($($f),+).map_err(|e| format!("{}: {e}", $name))
    };
}

/// Maximum container nesting the parser accepts. Deeper documents return
/// an error instead of recursing toward a stack overflow — trace files
/// are adversarially treated (they may be truncated or corrupted on
/// disk), so the parser must fail, never crash.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, requiring it to span the whole input.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos, depth),
        Some(b'[') => parse_arr(b, pos, depth),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    let v: f64 = text
        .parse()
        .map_err(|e| format!("bad number {text:?}: {e}"))?;
    // Overflowing literals like `1e999` parse to ±inf; the writer encodes
    // non-finite floats as `null`, so a non-finite literal is corruption.
    if !v.is_finite() {
        return Err(format!("non-finite number {text:?}"));
    }
    Ok(Json::Num(v))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x80 => {
                out.push(c as char);
                *pos += 1;
            }
            Some(_) => {
                // Consume one multi-byte UTF-8 scalar. Decode from a
                // bounded 4-byte window — validating `&b[*pos..]` here
                // would make parsing quadratic in document size.
                let chunk = &b[*pos..(*pos + 4).min(b.len())];
                let s = match std::str::from_utf8(chunk) {
                    Ok(s) => s,
                    // A valid scalar followed by the start of the next
                    // one: keep the validated prefix.
                    Err(e) if e.valid_up_to() > 0 => {
                        std::str::from_utf8(&chunk[..e.valid_up_to()]).expect("validated prefix")
                    }
                    Err(e) => return Err(e.to_string()),
                };
                let c = s.chars().next().expect("non-empty chunk");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth + 1)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(parse("-3.25e2").unwrap(), Json::Num(-325.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn nested_structures_parse() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nbreak \"quoted\" back\\slash\ttab \u{1}";
        let mut encoded = String::new();
        write_str(&mut encoded, original);
        assert_eq!(parse(&encoded).unwrap().as_str(), Some(original));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.0, -1.5, 1.0 / 3.0, 1e-12, 123456.789, f64::MIN_POSITIVE] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {s} -> {back}");
        }
    }

    #[test]
    fn exact_floats_keep_every_bit_pattern() {
        for bits in [
            0x8000_0000_0000_0000u64, // -0.0
            0x7ff0_0000_0000_0000,    // +inf
            0xfff0_0000_0000_0000,    // -inf
            0x7ff8_0000_dead_beef,    // quiet NaN with a payload
            0xfff0_0000_0000_0001,    // negative signalling NaN
            0x3fd5_5555_5555_5555,    // 1/3
        ] {
            let mut s = String::new();
            write_f64_exact(&mut s, f64::from_bits(bits));
            let back = parse(&s).unwrap().as_f64_exact().unwrap();
            assert_eq!(back.to_bits(), bits, "{s}");
        }
        assert!(parse("null").unwrap().as_f64_exact().unwrap().is_nan());
        for bad in ["\"bits:7ff\"", "\"bits:+7ff000000000000\"", "\"x\"", "true"] {
            assert_eq!(parse(bad).unwrap().as_f64_exact(), None, "{bad}");
        }
    }

    #[test]
    fn non_finite_becomes_null() {
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
        assert!(parse(&s).unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("nul").is_err());
    }

    /// Every truncation of a representative document must error, never
    /// panic — JSONL traces are routinely cut short by crashes.
    #[test]
    fn every_prefix_of_a_document_is_rejected_cleanly() {
        let doc = r#"{"event":"x","s":"aé\n","n":[1,-2.5e3,null],"b":true}"#;
        for end in 0..doc.len() {
            if !doc.is_char_boundary(end) {
                continue;
            }
            let prefix = &doc[..end];
            assert!(parse(prefix).is_err(), "prefix {prefix:?} parsed");
        }
        assert!(parse(doc).is_ok());
    }

    #[test]
    fn invalid_escapes_rejected() {
        for bad in [
            r#""\q""#,        // unknown escape
            r#""\u12""#,      // truncated \u
            r#""\u12g4""#,    // non-hex digit
            r#""\ud800""#,    // lone surrogate → from_u32 fails
            r#""\u{1f4a9}""#, // rust-style escape is not JSON
            "\"\\",           // backslash at end of input
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
        // Valid \u escapes still work.
        assert_eq!(parse(r#""é""#).unwrap().as_str(), Some("é"));
    }

    #[test]
    fn non_finite_literals_rejected() {
        for bad in [
            "NaN",
            "Infinity",
            "-Infinity",
            "inf",
            "nan",
            "1e999",
            "-1e999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
        // ...but the writer's encoding of non-finite floats (null) parses.
        assert!(parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn malformed_numbers_rejected() {
        for bad in ["+", "-", ".", "e5", "1..2", "--3", "1e", "0x10"] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // One level under the cap parses fine.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        // Ten thousand levels must return an error, not blow the stack.
        let evil = format!("{}0{}", "[".repeat(10_000), "]".repeat(10_000));
        let err = parse(&evil).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Same for objects.
        let evil_obj = "{\"k\":".repeat(10_000);
        assert!(parse(&evil_obj).is_err());
    }

    #[test]
    fn object_without_string_key_rejected() {
        assert!(parse("{1:2}").is_err());
        assert!(parse("{\"a\" 2}").is_err());
        assert!(parse("{\"a\":2,}").is_err());
    }
}
