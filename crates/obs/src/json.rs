//! Minimal deterministic JSON: the repository's one JSON implementation.
//!
//! The manifests this crate emits are diffed byte-for-byte by the CI
//! regression gate, so their serialization must be fully under our
//! control: insertion-ordered object keys, 2-space indentation, no
//! dependence on any external serializer's formatting choices.
//!
//! Besides rendering, the module parses ([`Json::parse`]) and maps plain
//! data types to and from JSON trees ([`JsonCodec`], usually implemented
//! with [`json_codec!`](crate::json_codec)): workload traces, the server's
//! `stats` payload and the bench tables all go through it.

use std::fmt::{self, Write as _};

/// A JSON value with ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Unsigned integer (rendered as-is; no float conversion).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with Rust's shortest-roundtrip formatting, which
    /// is deterministic for a given bit pattern).
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Render with 2-space indentation and a trailing newline — the one
    /// canonical form every golden file uses.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Render on one line with no whitespace at all (`{"a":[1,2]}`), the
    /// form of trace files and of the wire `stats` payload.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// `indent` is the nesting depth when pretty-printing, `None` for
    /// compact output.
    fn render(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|n| n + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, inner);
                    item.render(out, inner);
                }
                new_line(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, inner);
                    escape_into(k, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.render(out, inner);
                }
                new_line(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse one JSON document. Whitespace may surround it; anything else
    /// after it is an error. Numbers without a fraction or exponent parse
    /// as integers ([`Json::U64`], or [`Json::I64`] when negative), so a
    /// float that renders without a fraction (`1.0` renders as `1`) comes
    /// back as an integer.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            src: text,
            pos: 0,
            depth: 0,
        };
        let v = p.value()?;
        if p.pos != text.len() {
            return Err(p.error("trailing data"));
        }
        Ok(v)
    }

    /// The value under `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The entries, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

fn new_line(out: &mut String, indent: Option<usize>) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n {
            out.push_str("  ");
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
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

/// Why a document could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text is not JSON: what was wrong, at which byte offset.
    Syntax(&'static str, usize),
    /// The text is JSON, but a field is missing or has the wrong type.
    Shape,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax(what, at) => write!(f, "invalid JSON at byte {at}: {what}"),
            JsonError::Shape => f.write_str("JSON value is missing a field or has a mistyped one"),
        }
    }
}

impl std::error::Error for JsonError {}

/// Deeper nesting is rejected rather than recursed into, so hostile input
/// cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// Recursive descent over `src`; `pos` only ever stops on character
/// boundaries, because every byte consumed one at a time is ASCII.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, what: &'static str) -> JsonError {
        JsonError::Syntax(what, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let found = self.src[self.pos..].starts_with(lit);
        if found {
            self.pos += lit.len();
        }
        found
    }

    /// One value with the whitespace around it.
    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let v = match self.peek() {
            Some(b'n') if self.eat("null") => Json::Null,
            Some(b't') if self.eat("true") => Json::Bool(true),
            Some(b'f') if self.eat("false") => Json::Bool(false),
            Some(b'"') => Json::Str(self.string()?),
            Some(b'[') => Json::Arr(self.items(b']', Self::value)?),
            Some(b'{') => Json::Obj(self.items(b'}', Self::entry)?),
            Some(b'-' | b'0'..=b'9') => self.number()?,
            _ => return Err(self.error("unexpected input")),
        };
        self.skip_ws();
        Ok(v)
    }

    /// One `"key": value` object entry.
    fn entry(&mut self) -> Result<(String, Json), JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(":") {
            return Err(self.error("expected ':'"));
        }
        Ok((key, self.value()?))
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        item: fn(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() != Some(close) {
            loop {
                items.push(item(self)?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.error("expected ',' or a closing bracket")),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        if !self.eat("\"") {
            return Err(self.error("expected '\"'"));
        }
        let mut out = String::new();
        loop {
            let c = self.src[self.pos..].chars().next();
            self.pos += c.map_or(0, char::len_utf8);
            match c {
                None => return Err(self.error("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => {
                    let esc = self.peek();
                    self.pos += 1;
                    out.push(match esc {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            let hex = (self.src.get(self.pos..self.pos + 4))
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                            self.pos += 4;
                            hex.and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?
                        }
                        _ => return Err(self.error("bad escape")),
                    });
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat("-");
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let parsed = if is_float {
            text.parse().ok().map(Json::F64)
        } else if text.starts_with('-') {
            text.parse().ok().map(Json::I64)
        } else {
            text.parse().ok().map(Json::U64)
        };
        parsed.ok_or(JsonError::Syntax("bad number", start))
    }
}

/// A plain data type with a fixed JSON shape.
///
/// Reading ignores object keys it does not know, and returns `None` when
/// a field is missing, has the wrong type or is out of range.
pub trait JsonCodec: Sized {
    /// The JSON tree of `self`.
    fn to_json_value(&self) -> Json;

    /// Read a value back out of a JSON tree.
    fn from_json_value(json: &Json) -> Option<Self>;

    /// Parse `text` and read a value out of it.
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Json::parse(text)?).ok_or(JsonError::Shape)
    }
}

macro_rules! uint_codec {
    ($($t:ty),*) => {$(
        impl JsonCodec for $t {
            fn to_json_value(&self) -> Json {
                Json::U64(*self as u64)
            }

            fn from_json_value(json: &Json) -> Option<Self> {
                match json {
                    Json::U64(v) => (*v).try_into().ok(),
                    _ => None,
                }
            }
        }
    )*};
}
uint_codec!(u32, u64, usize);

impl JsonCodec for String {
    fn to_json_value(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_json_value(json: &Json) -> Option<Self> {
        match json {
            Json::Str(s) => Some(s.clone()),
            _ => None,
        }
    }
}

impl<T: JsonCodec> JsonCodec for Vec<T> {
    fn to_json_value(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json_value).collect())
    }

    fn from_json_value(json: &Json) -> Option<Self> {
        match json {
            Json::Arr(items) => items.iter().map(T::from_json_value).collect(),
            _ => None,
        }
    }
}

/// The `name` entry of an object, for [`json_codec!`](crate::json_codec).
#[doc(hidden)]
pub fn entry<T: JsonCodec>(name: &str, value: &T) -> (String, Json) {
    (name.to_string(), value.to_json_value())
}

/// Read field `name` of object `json`, for [`json_codec!`](crate::json_codec).
#[doc(hidden)]
pub fn field<T: JsonCodec>(json: &Json, name: &str) -> Option<T> {
    T::from_json_value(json.get(name)?)
}

/// Implement [`JsonCodec`] from one list of field names that serves both
/// directions.
///
/// A struct becomes an object with one entry per listed field, in list
/// order. An enum of named-field variants is externally tagged:
/// `{"Variant":{"field":..}}`. A field left out of the list fails to
/// compile, because reading builds the value with a struct literal.
///
/// ```
/// use nbkv_obs::json::JsonCodec;
///
/// struct Point {
///     x: u64,
///     y: u64,
/// }
/// nbkv_obs::json_codec!(Point { x, y });
///
/// let text = Point { x: 1, y: 2 }.to_json_value().render_compact();
/// assert_eq!(text, r#"{"x":1,"y":2}"#);
/// assert_eq!(Point::from_json_str(&text).unwrap().y, 2);
/// ```
#[macro_export]
macro_rules! json_codec {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::json::JsonCodec for $ty {
            fn to_json_value(&self) -> $crate::Json {
                $crate::Json::Obj(vec![$($crate::json::entry(stringify!($field), &self.$field)),*])
            }

            fn from_json_value(json: &$crate::Json) -> Option<Self> {
                Some($ty { $($field: $crate::json::field(json, stringify!($field))?),* })
            }
        }
    };
    (enum $ty:ident { $($variant:ident { $($field:ident),* $(,)? }),* $(,)? }) => {
        impl $crate::json::JsonCodec for $ty {
            fn to_json_value(&self) -> $crate::Json {
                let (tag, body) = match self {
                    $($ty::$variant { $($field),* } => (
                        stringify!($variant),
                        vec![$($crate::json::entry(stringify!($field), $field)),*],
                    ),)*
                };
                $crate::Json::Obj(vec![(tag.to_string(), $crate::Json::Obj(body))])
            }

            fn from_json_value(json: &$crate::Json) -> Option<Self> {
                let [(tag, body)] = json.as_obj()? else {
                    return None;
                };
                $(if tag == stringify!($variant) {
                    return Some($ty::$variant { $($field: $crate::json::field(body, stringify!($field))?),* });
                })*
                None
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_objects() {
        let j = Json::Obj(vec![
            ("zeta".into(), Json::U64(1)),
            (
                "alpha".into(),
                Json::Arr(vec![Json::Bool(true), Json::I64(-5)]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let s = j.render_pretty();
        // Insertion order preserved, not sorted.
        let zi = s.find("zeta").unwrap();
        let ai = s.find("alpha").unwrap();
        assert!(zi < ai);
        assert!(s.contains("\"empty\": {}"));
        assert!(s.ends_with("}\n"));
        assert_eq!(
            j.render_compact(),
            r#"{"zeta":1,"alpha":[true,-5],"empty":{}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(j.render_pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn rendering_is_deterministic() {
        let j = Json::Obj(vec![
            ("f".into(), Json::F64(0.123456789)),
            ("n".into(), Json::U64(u64::MAX)),
        ]);
        assert_eq!(j.render_pretty(), j.render_pretty());
    }

    #[test]
    fn parses_what_it_renders() {
        let src = r#"{"a": 1, "b": [true, null, -5, 1.5, []], "c": "x\n\"y\"\u00e9", "d": {}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(
            v.get("b").unwrap(),
            &Json::parse("[true,null,-5,1.5,[]]").unwrap()
        );
        assert_eq!(v.get("c"), Some(&Json::Str("x\n\"y\"é".into())));
        assert_eq!(Json::parse(&v.render_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.render_pretty()).unwrap(), v);
        assert_eq!(Json::parse("-9223372036854775808"), Ok(Json::I64(i64::MIN)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "not json",
            "{\"a\":",
            "[1,]",
            "{} trailing",
            "\"open",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "18446744073709551616",
            "1.2.3",
            "{1:2}",
        ] {
            assert!(
                matches!(Json::parse(bad), Err(JsonError::Syntax(..))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot { at: u64 },
        Span { from: u64, len: usize },
    }
    crate::json_codec!(enum Shape { Dot { at }, Span { from, len } });

    /// Structs are covered where they are used (traces, the `stats`
    /// payload); this pins the enum arm's externally tagged form.
    #[test]
    fn codec_tags_enum_variants() {
        let s = Shape::Span { from: 3, len: 4 };
        let text = s.to_json_value().render_compact();
        assert_eq!(text, r#"{"Span":{"from":3,"len":4}}"#);
        assert_eq!(Shape::from_json_str(&text), Ok(s));
        let extra_key = r#"{"Dot":{"at":1,"extra":true}}"#;
        assert_eq!(Shape::from_json_str(extra_key), Ok(Shape::Dot { at: 1 }));
        for bad in [
            r#"{"Line":{"at":1}}"#,
            r#"{"Dot":{}}"#,
            r#"{"Dot":{"at":-1}}"#,
            r#"{"Dot":{"at":1},"Span":{"from":1,"len":1}}"#,
            r#""Dot""#,
        ] {
            assert_eq!(Shape::from_json_str(bad), Err(JsonError::Shape), "{bad}");
        }
    }
}
