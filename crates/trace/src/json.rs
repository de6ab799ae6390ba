//! The workspace's one JSON writer and parser, and the [`Envelope`] that
//! heads every artifact.
//!
//! The writer has one layout rule: a value is written with no whitespace
//! at all, and whoever writes a file or a stream line ends it with one
//! `\n`. An artifact file is therefore one line, and a stream (the
//! `--trace-out` events, the campaign journal, `swlint --json`) one value
//! per line; `jq .` pretty-prints either. Members appear in the order
//! they are written, so output is byte-deterministic.
//!
//! ```
//! use sparseweaver_trace::json;
//!
//! let doc = json::object(|o| {
//!     o.field("name", "a \"b\"").field("l3", None::<u64>);
//!     o.arr("buckets", |a| {
//!         a.arr(|b| {
//!             b.item(3u64).item(7u64);
//!         });
//!     });
//! });
//! assert_eq!(doc, r#"{"name":"a \"b\"","l3":null,"buckets":[[3,7]]}"#);
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes `s` into `out` as a JSON string body (no surrounding quotes).
fn escape(s: &str, out: &mut String) {
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
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
}

/// A value written as one JSON scalar: a string, a number, a bool, or
/// (for `None`) `null`.
pub trait Scalar {
    /// Appends the JSON text of `self` to `out`.
    fn write_to(&self, out: &mut String);
}

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn write_to(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_scalar!(bool, u8, u32, u64, usize, i64);

/// Integral values print without a decimal point, other finite values in
/// the shortest form that parses back to the same `f64`, and NaN or an
/// infinity as `null`.
impl Scalar for f64 {
    fn write_to(&self, out: &mut String) {
        if !self.is_finite() {
            out.push_str("null");
        } else if self.fract() == 0.0 && self.abs() < 9e15 {
            (*self as i64).write_to(out);
        } else {
            let _ = write!(out, "{self}");
        }
    }
}

impl Scalar for str {
    fn write_to(&self, out: &mut String) {
        out.push('"');
        escape(self, out);
        out.push('"');
    }
}

impl Scalar for String {
    fn write_to(&self, out: &mut String) {
        self.as_str().write_to(out);
    }
}

impl<T: Scalar + ?Sized> Scalar for &T {
    fn write_to(&self, out: &mut String) {
        (**self).write_to(out);
    }
}

impl<T: Scalar> Scalar for Option<T> {
    fn write_to(&self, out: &mut String) {
        match self {
            Some(v) => v.write_to(out),
            None => out.push_str("null"),
        }
    }
}

/// An object being written; each call appends one member.
pub struct Obj<'a>(Arr<'a>);

impl Obj<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        key.write_to(out);
        out.push(':');
        out
    }

    /// Appends a scalar member.
    pub fn field(&mut self, key: &str, value: impl Scalar) -> &mut Self {
        value.write_to(self.key(key));
        self
    }

    /// Appends an object member whose members `body` writes.
    pub fn obj(&mut self, key: &str, body: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.key(key), body);
        self
    }

    /// Appends an array member whose items `body` writes.
    pub fn arr(&mut self, key: &str, body: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_array(self.key(key), body);
        self
    }
}

/// An array being written; each call appends one item.
pub struct Arr<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Arr<'_> {
    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self.out
    }

    /// Appends a scalar item.
    pub fn item(&mut self, value: impl Scalar) -> &mut Self {
        value.write_to(self.next());
        self
    }

    /// Appends an object item whose members `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Obj<'_>)) -> &mut Self {
        write_object(self.next(), body);
        self
    }

    /// Appends an array item whose items `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Arr<'_>)) -> &mut Self {
        write_array(self.next(), body);
        self
    }
}

/// Appends to `out` one object whose members `body` writes.
pub fn write_object(out: &mut String, body: impl FnOnce(&mut Obj<'_>)) {
    out.push('{');
    body(&mut Obj(Arr { out, empty: true }));
    out.push('}');
}

fn write_array(out: &mut String, body: impl FnOnce(&mut Arr<'_>)) {
    out.push('[');
    body(&mut Arr { out, empty: true });
    out.push(']');
}

/// One object whose members `body` writes.
pub fn object(body: impl FnOnce(&mut Obj<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, body);
    out
}

/// One kind of artifact: its schema id and the version of its layout,
/// raised whenever a key is removed, renamed or re-typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema {
    /// The schema id, e.g. `sparseweaver-profile`.
    pub id: &'static str,
    /// The layout version.
    pub version: u64,
}

impl Schema {
    /// Schema `id` at layout `version`.
    pub const fn new(id: &'static str, version: u64) -> Schema {
        Schema { id, version }
    }
}

/// The header every artifact opens with: its members `schema`,
/// `version`, `tool` (the workspace version that wrote it, i.e.
/// `sparseweaver::VERSION`), then `config_fingerprint` and
/// `input_fingerprint` as 16 hex digits, or `null` where the artifact has
/// no such input. The input is the graph, or the trace a sweep replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The schema id.
    pub schema: String,
    /// The schema's layout version.
    pub version: u64,
    /// The version of the tool that wrote the artifact.
    pub tool: String,
    /// Fingerprint of the machine configuration.
    pub config: Option<u64>,
    /// Fingerprint of the input.
    pub input: Option<u64>,
}

fn hex(fp: Option<u64>) -> Option<String> {
    fp.map(|v| format!("{v:016x}"))
}

impl Envelope {
    /// The envelope this build writes for `schema`.
    pub fn new(schema: Schema, config: Option<u64>, input: Option<u64>) -> Envelope {
        Envelope {
            schema: schema.id.to_string(),
            version: schema.version,
            tool: env!("CARGO_PKG_VERSION").to_string(),
            config,
            input,
        }
    }

    /// One artifact: the envelope's members, then the ones `body` writes.
    pub fn object(&self, body: impl FnOnce(&mut Obj<'_>)) -> String {
        object(|o| {
            o.field("schema", &self.schema)
                .field("version", self.version)
                .field("tool", &self.tool)
                .field("config_fingerprint", hex(self.config))
                .field("input_fingerprint", hex(self.input));
            body(o);
        })
    }

    /// Reads the envelope of a parsed artifact.
    ///
    /// # Errors
    ///
    /// Names the first envelope member that is missing or malformed.
    pub fn read(doc: &Value) -> Result<Envelope, String> {
        let bad = |key: &str| format!("missing or malformed `{key}`");
        let text = |key: &str| doc.get(key).and_then(Value::as_str).map(String::from);
        let fingerprint = |key: &str| match doc.get(key) {
            Some(Value::Null) => Ok(None),
            Some(Value::Str(s)) if s.len() == 16 => {
                u64::from_str_radix(s, 16).map(Some).map_err(|_| bad(key))
            }
            _ => Err(bad(key)),
        };
        let version = doc.get("version").and_then(Value::as_num);
        Ok(Envelope {
            schema: text("schema").ok_or_else(|| bad("schema"))?,
            version: match version {
                Some(v) if v.fract() == 0.0 && (0.0..9e15).contains(&v) => v as u64,
                _ => return Err(bad("version")),
            },
            tool: text("tool").ok_or_else(|| bad("tool"))?,
            config: fingerprint("config_fingerprint")?,
            input: fingerprint("input_fingerprint")?,
        })
    }

    /// Whether an artifact headed by `other` compares with this one: an
    /// error naming both kinds when schema or version differ, otherwise
    /// one warning per fingerprint that differs.
    ///
    /// # Errors
    ///
    /// The two artifacts are of different kinds.
    pub fn comparable(&self, other: &Envelope) -> Result<Vec<String>, String> {
        if (&self.schema, self.version) != (&other.schema, other.version) {
            return Err(format!(
                "cannot compare a {} v{} artifact with a {} v{} artifact",
                self.schema, self.version, other.schema, other.version
            ));
        }
        let fps = [
            ("config", self.config, other.config),
            ("input", self.input, other.input),
        ];
        let show = |fp| hex(fp).unwrap_or_else(|| "null".into());
        Ok(fps
            .into_iter()
            .filter(|(_, a, b)| a != b)
            .map(|(what, a, b)| format!("{what} fingerprint differs: {} vs {}", show(a), show(b)))
            .collect())
    }
}

/// A parsed JSON value (object keys keep insertion-independent order via
/// a sorted map; duplicates keep the last value).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// How deep [`parse`] lets arrays and objects nest. Every artifact here
/// nests a handful of levels; the bound keeps a hostile document (say, a
/// million `[`) from overflowing the stack of the recursive parser.
pub const MAX_DEPTH: usize = 256;

/// Why [`parse`] refused a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed JSON: what was expected or found, at a byte offset.
    Syntax {
        /// What went wrong.
        what: String,
        /// The byte offset.
        at: usize,
    },
    /// Arrays and objects nested deeper than [`MAX_DEPTH`]; `at` is the
    /// offset of the bracket that went one level too deep.
    TooDeep {
        /// The byte offset.
        at: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Syntax { what, at } => write!(f, "{what} at byte {at}"),
            ParseError::TooDeep { at } => {
                write!(f, "nested deeper than {MAX_DEPTH} levels at byte {at}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document, in time linear in its length.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset on malformed input or
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing garbage");
    }
    Ok(v)
}

/// A recursive-descent parser. `pos` only ever advances over ASCII bytes
/// or over runs that end before one, so it always sits on a `char`
/// boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, ParseError> {
        Err(ParseError::Syntax {
            what: what.to_string(),
            at: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    /// Parses an array or object one level deeper, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError::TooDeep { at: self.pos });
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected `{word}`"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) => Ok(Value::Num(n)),
            Err(_) => {
                self.pos = start;
                self.err("bad number")
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                            // `get` is `None` unless all four bytes are in
                            // bounds and on char boundaries, and the hex
                            // parse accepts ASCII only, so `pos` stays on
                            // a boundary.
                            let Some(hex) = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                            else {
                                return self.err("bad \\u escape");
                            };
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash; both
                    // are ASCII, so the run ends on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .bytes()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_basics() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":"x\"y","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
    }

    #[test]
    fn escape_controls_and_quotes() {
        let esc = |s: &str| {
            let mut out = String::new();
            escape(s, &mut out);
            out
        };
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
        // What the writer produces, parse accepts.
        let s = "odd \"chars\"\n\t\u{3}";
        let doc = object(|o| {
            o.field(s, s);
        });
        assert_eq!(parse(&doc).unwrap().get(s).and_then(Value::as_str), Some(s));
    }

    #[test]
    fn writer_places_commas_and_scalars() {
        let doc = object(|o| {
            o.field("u", u64::MAX)
                .field("i", -3i64)
                .field("f", 0.25f64)
                .field("whole", 3.0f64)
                .field("nan", f64::NAN)
                .field("b", true)
                .field("none", None::<u64>);
            o.arr("a", |a| {
                a.item("x").obj(|_| {}).arr(|_| {}).item(1u8);
            });
        });
        assert_eq!(
            doc,
            format!(
                r#"{{"u":{},"i":-3,"f":0.25,"whole":3,"nan":null,"b":true,"none":null,"a":["x",{{}},[],1]}}"#,
                u64::MAX
            )
        );
        assert!(parse(&doc).is_ok());
    }

    #[test]
    fn envelopes_round_trip_and_compare() {
        const A: Schema = Schema {
            id: "a",
            version: 2,
        };
        const B: Schema = Schema {
            id: "b",
            version: 2,
        };
        let env = Envelope::new(A, Some(u64::MAX), Some(1));
        let doc = parse(&env.object(|_| {})).unwrap();
        assert_eq!(Envelope::read(&doc), Ok(env.clone()));
        assert_eq!(env.comparable(&env), Ok(vec![]));
        let other_input = Envelope::new(A, Some(u64::MAX), None);
        assert_eq!(
            env.comparable(&other_input),
            Ok(vec![
                "input fingerprint differs: 0000000000000001 vs null".to_string()
            ])
        );
        let err = env.comparable(&Envelope::new(B, None, None)).unwrap_err();
        assert!(err.contains("a v2") && err.contains("b v2"), "{err}");
        let older = Envelope {
            version: 1,
            ..env.clone()
        };
        assert!(env.comparable(&older).is_err());
        for bad in [
            r#"{"schema":"a"}"#,
            r#"{"schema":"a","version":2,"tool":"t","config_fingerprint":"12","input_fingerprint":null}"#,
            r#"{"schema":"a","version":2.5,"tool":"t","config_fingerprint":null,"input_fingerprint":null}"#,
        ] {
            assert!(Envelope::read(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_with_a_typed_error() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let deeper = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deeper), Err(ParseError::TooDeep { at: MAX_DEPTH }));
        // A million open brackets is refused, not a stack overflow.
        let hostile = "[".repeat(1_000_000);
        assert_eq!(parse(&hostile), Err(ParseError::TooDeep { at: MAX_DEPTH }));
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        assert!(matches!(parse(&objects), Err(ParseError::TooDeep { .. })));
    }

    #[test]
    fn strings_keep_multibyte_text_and_escapes() {
        let v = parse(r#"["héllo é ✓ 𝄞", "a\\b\"cA", ""]"#).unwrap();
        let items: Vec<_> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(items, ["héllo é ✓ 𝄞", "a\\b\"cA", ""]);
        assert_eq!(
            parse(r#""\u00e""#),
            Err(ParseError::Syntax {
                what: "bad \\u escape".into(),
                at: 2
            })
        );
        // A multibyte char inside a `\u` escape is a bad escape, not a panic.
        assert!(parse(r#""\u✓✓""#).is_err());
        assert_eq!(
            parse("[1]x").unwrap_err().to_string(),
            "trailing garbage at byte 3"
        );
    }

    #[test]
    fn nested_structures() {
        let v = parse(r#"[{"x":{"y":[[]]}}]"#).unwrap();
        let inner = v.as_arr().unwrap()[0].get("x").unwrap().get("y").unwrap();
        assert_eq!(inner.as_arr().unwrap()[0].as_arr().unwrap().len(), 0);
    }
}
