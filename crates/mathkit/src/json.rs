//! From-scratch JSON tree, serialiser and recursive-descent parser.
//!
//! The workspace ships trained-model checkpoints, experiment artefacts
//! and hardware reports as JSON, but builds in an offline environment
//! with no third-party crates. This module is the dependency-free
//! replacement: a [`Json`] value tree, a writer (compact and pretty), a
//! strict parser, and the [`ToJson`] / [`FromJson`] conversion traits
//! implemented by the snapshot and report types across the workspace.
//! Plain structs get both traits from one field list via
//! [`impl_json!`](crate::impl_json), so the encoder and decoder of an
//! artefact cannot drift apart.
//!
//! Object key order is preserved (insertion order), so serialisation is
//! deterministic — important for byte-identical experiment artefacts
//! under fixed seeds.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialised without a decimal point). `i128` storage
    /// covers the full `u64` and `i64` ranges exactly, so seeds and
    /// counters round-trip without precision loss.
    Int(i128),
    /// A floating-point number. Non-finite values serialise as `null`,
    /// matching the behaviour of mainstream JSON emitters.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Error produced by JSON parsing or [`FromJson`] conversion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a required object field, reporting the key on failure.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }

    /// The boolean value, if this is a `Bool`.
    pub(crate) fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_err("bool", other)),
        }
    }

    /// The numeric value as `f64` (accepts `Int` and `Float`).
    pub(crate) fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Int(i) => Ok(*i as f64),
            Json::Float(x) => Ok(*x),
            Json::Null => Ok(f64::NAN), // non-finite floats serialise as null
            other => Err(type_err("number", other)),
        }
    }

    /// The numeric value as `i128`, rejecting fractional floats.
    pub(crate) fn as_i128(&self) -> Result<i128, JsonError> {
        match self {
            Json::Int(i) => Ok(*i),
            Json::Float(x) if x.fract() == 0.0 && x.abs() < 9.0e18 => Ok(*x as i128),
            other => Err(type_err("integer", other)),
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_err("string", other)),
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_err("array", other)),
        }
    }

    /// Compact single-line serialisation.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty two-space-indented serialisation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(x) => write_f64(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document; trailing non-whitespace is an error.
    /// Nesting deeper than 128 containers is rejected with an error
    /// (rather than overflowing the stack on corrupted input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn type_err(wanted: &str, got: &Json) -> JsonError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) => "integer",
        Json::Float(_) => "float",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    JsonError::new(format!("expected {wanted}, found {kind}"))
}

fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() {
        // Keep a float marker (decimal point or exponent) so the value
        // parses back as Float, whatever its magnitude.
        if x.abs() < 1.0e15 {
            out.push_str(&format!("{x:.1}"));
        } else {
            out.push_str(&format!("{x:e}"));
        }
    } else {
        // Rust's shortest round-trip formatting.
        out.push_str(&x.to_string());
    }
}

fn write_string(out: &mut String, s: &str) {
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
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
}

/// Maximum container nesting accepted by the parser; corrupted or
/// hostile input past this depth gets a `JsonError` instead of a
/// stack overflow.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::new(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{what}`")))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') if self.eat_lit("null") => Ok(Json::Null),
            Some(b't') if self.eat_lit("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_lit("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.err("nesting deeper than 128 containers"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let r = self.array_inner();
        self.depth -= 1;
        r
    }

    fn array_inner(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "[")?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.enter()?;
        let r = self.object_inner();
        self.depth -= 1;
        r
    }

    fn object_inner(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "{")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', ":")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "\"")?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.eat_lit("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .or_else(|_| text.parse::<f64>().map(Json::Float))
                .map_err(|_| self.err("invalid number"))
        }
    }
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Reconstructs `Self` from a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_str()?.to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64()
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        // A plain `as f64` widening would serialise 0.1f32 as
        // 0.10000000149011612. Going through f32's shortest decimal
        // representation keeps artefacts readable and diffable while
        // still casting back to the identical f32.
        if self.is_finite() {
            Json::Float(
                self.to_string()
                    .parse::<f64>()
                    .expect("f32 display is valid f64"),
            )
        } else {
            Json::Float(f64::from(*self))
        }
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_f64()? as f32)
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let i = v.as_i128()?;
                <$t>::try_from(i)
                    .map_err(|_| JsonError::new(format!(
                        "{i} out of range for {}", stringify!($t)
                    )))
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr()? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            arr => Err(JsonError::new(format!(
                "expected a 2-element array, found {} elements",
                arr.len()
            ))),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|x| x.to_json()).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(|x| x.to_json()).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a struct from one list
/// of its fields. Each field serialises under its own name, in list
/// order, and decodes from the object key of that name; the list must
/// name every field. A missing key fails with ``missing field `name` ``.
///
/// ```
/// struct Point {
///     x: f64,
///     y: f64,
/// }
/// hybridem_mathkit::impl_json!(Point { x, y });
///
/// use hybridem_mathkit::json::{from_str, ToJson};
/// let j = Point { x: 1.0, y: 2.0 }.to_json();
/// assert_eq!(j.to_string_compact(), r#"{"x":1.0,"y":2.0}"#);
/// let p: Point = from_str(&j.to_string_compact()).unwrap();
/// assert_eq!((p.x, p.y), (1.0, 2.0));
/// let err = from_str::<Point>(r#"{"x":1.0}"#).err().unwrap();
/// assert!(err.to_string().contains("missing field `y`"));
/// ```
#[macro_export]
macro_rules! impl_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::object([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field))),+
                ])
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> ::std::result::Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json(v.field(stringify!($field))?)?),+
                })
            }
        }
    };
}

/// Serialises any [`ToJson`] value as a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Serialises any [`ToJson`] value as pretty-printed JSON.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses a JSON string into any [`FromJson`] type.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "3.25", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.to_string_compact()).unwrap();
            assert_eq!(v, back, "round-trip failed for {text}");
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v = Json::parse(r#"{"a": [1, 2.5, {"b": null}], "c": "x\n\"y\""}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "x\n\"y\"");
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn f32_round_trip_is_exact() {
        let xs: Vec<f32> = vec![0.1, -1.5e-8, 3.4e38, 7.0, std::f32::consts::PI];
        let text = to_string(&xs);
        let back: Vec<f32> = from_str(&text).unwrap();
        assert_eq!(xs, back);
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""é😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "é😀");
    }

    #[test]
    fn object_field_access_and_errors() {
        let v = Json::parse(r#"{"n": 3}"#).unwrap();
        assert_eq!(u32::from_json(v.field("n").unwrap()).unwrap(), 3);
        assert!(v.field("missing").is_err());
        assert!(v.field("n").unwrap().as_str().is_err());
        assert!(Json::parse("{broken").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        let hostile = "[".repeat(100_000);
        assert!(Json::parse(&hostile).is_err());
        let deep_obj = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
        // 100 levels (within the limit) still parse.
        let ok = format!("{}0{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn malformed_surrogate_pairs_error_instead_of_panicking() {
        // High surrogate followed by a non-low-surrogate escape.
        assert!(Json::parse("\"\\uD800\\u0041\"").is_err());
        // High surrogate with no second escape at all.
        assert!(Json::parse("\"\\uD800x\"").is_err());
        // Lone low surrogate.
        assert!(Json::parse("\"\\uDC00\"").is_err());
        // A valid pair still decodes.
        assert_eq!(
            Json::parse("\"\\uD83D\\uDE00\"").unwrap().as_str().unwrap(),
            "😀"
        );
    }

    #[test]
    fn full_u64_range_round_trips_exactly() {
        for v in [0u64, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let text = to_string(&v);
            let back: u64 = from_str(&text).unwrap();
            assert_eq!(v, back, "u64 {v} failed to round-trip via {text}");
        }
        // Out-of-range rejections still work.
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u8>("256").is_err());
    }

    #[test]
    fn large_integer_valued_floats_stay_floats() {
        for x in [1.0e16f64, -3.0e18, 1.0e15, 123.0] {
            let v = Json::Float(x);
            let back = Json::parse(&v.to_string_compact()).unwrap();
            assert_eq!(back, v, "float {x} re-parsed as a different variant");
        }
    }

    #[test]
    fn non_finite_floats_serialise_as_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        let restored: f64 = from_str("null").unwrap();
        assert!(restored.is_nan());
    }
}
