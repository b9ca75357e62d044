//! Offline drop-in replacement for the subset of `serde` this workspace
//! uses: a `Serialize` trait that drives a JSON writer, a `Deserialize`
//! trait that decodes from a parsed JSON [`de::Value`] tree, and the derive
//! macros.
//!
//! The real crate cannot be fetched (no registry access in the build
//! environment); the shim keeps call sites source-compatible:
//! `#[derive(Serialize, Deserialize)]`, `#[serde(skip)]`,
//! `serde_json::to_string_pretty`, and `serde_json::from_str` all work.
//!
//! Numbers are kept as raw source tokens in the `Value` tree and parsed at
//! the target width, so `u64` beyond 2^53 and `f32`/`f64` round-trip
//! exactly (Rust's float `Display` is shortest-round-trip). The writer
//! formats scalars straight into its output buffer, and the parser — which
//! reads the wire, peers and disk — refuses nesting deeper than
//! [`de::MAX_DEPTH`] instead of recursing until the stack overflows.

pub use serde_derive::{Deserialize, Serialize};

/// Types that can write themselves as JSON.
pub trait Serialize {
    /// Appends this value's JSON encoding to `w`.
    fn serialize(&self, w: &mut ser::JsonWriter);
}

/// Types that can rebuild themselves from a parsed JSON tree.
///
/// The lifetime parameter exists only for call-site compatibility with the
/// real crate's `Deserialize<'de>`; the shim always decodes from an owned
/// [`de::Value`].
pub trait Deserialize<'de>: Sized {
    /// Decodes `Self` from a parsed JSON value.
    fn deserialize_value(v: &de::Value) -> Result<Self, de::DeError>;
}

pub mod ser {
    //! The JSON writer the derive macros target.

    use std::fmt::{self, Write};

    /// Incremental JSON writer with optional pretty-printing.
    pub struct JsonWriter {
        out: String,
        pretty: bool,
        /// Per-open-container flag: has the container emitted an entry yet?
        stack: Vec<bool>,
    }

    impl JsonWriter {
        /// A compact writer.
        pub fn new() -> Self {
            JsonWriter {
                out: String::new(),
                pretty: false,
                stack: Vec::new(),
            }
        }

        /// A pretty-printing writer (two-space indent).
        pub fn pretty() -> Self {
            JsonWriter {
                out: String::new(),
                pretty: true,
                stack: Vec::new(),
            }
        }

        /// A compact writer appending to `out`, cleared first: a caller
        /// that encodes over and over keeps one allocation, handed back by
        /// [`JsonWriter::finish`].
        pub fn with_buffer(mut out: String) -> Self {
            out.clear();
            JsonWriter {
                out,
                pretty: false,
                stack: Vec::new(),
            }
        }

        /// The accumulated JSON text.
        pub fn finish(self) -> String {
            self.out
        }

        fn newline_indent(&mut self) {
            if self.pretty {
                self.out.push('\n');
                for _ in 0..self.stack.len() {
                    self.out.push_str("  ");
                }
            }
        }

        fn begin_entry(&mut self) {
            if let Some(has_entries) = self.stack.last_mut() {
                if *has_entries {
                    self.out.push(',');
                }
                *has_entries = true;
                self.newline_indent();
            }
        }

        /// Opens a JSON object.
        pub fn begin_object(&mut self) {
            self.out.push('{');
            self.stack.push(false);
        }

        /// Closes the innermost object.
        pub fn end_object(&mut self) {
            let had = self.stack.pop().unwrap_or(false);
            if had {
                self.newline_indent();
            }
            self.out.push('}');
        }

        /// Opens a JSON array.
        pub fn begin_array(&mut self) {
            self.out.push('[');
            self.stack.push(false);
        }

        /// Closes the innermost array.
        pub fn end_array(&mut self) {
            let had = self.stack.pop().unwrap_or(false);
            if had {
                self.newline_indent();
            }
            self.out.push(']');
        }

        /// Starts an object entry with the given key.
        pub fn key(&mut self, k: &str) {
            self.begin_entry();
            self.string(k);
            self.out.push(':');
            if self.pretty {
                self.out.push(' ');
            }
        }

        /// Starts an array element.
        pub fn elem(&mut self) {
            self.begin_entry();
        }

        /// Writes a string scalar (escaped).
        pub fn string(&mut self, s: &str) {
            self.out.push('"');
            escape_into(&mut self.out, s);
            self.out.push('"');
        }

        /// Writes `value`'s `Display` text as a string scalar (escaped),
        /// formatted straight into the output: a long string can be
        /// produced piece by piece without ever existing as a `String`.
        pub fn collect_str<T: fmt::Display + ?Sized>(&mut self, value: &T) {
            self.out.push('"');
            write!(Escaped(&mut self.out), "{value}").expect("writing to a String cannot fail");
            self.out.push('"');
        }

        /// Writes a string scalar whose body `write` appends straight to
        /// the output, with no escape pass: for text that never needs one,
        /// such as hex or binary digits.
        pub fn unescaped_str(&mut self, write: impl FnOnce(&mut String)) {
            self.out.push('"');
            let start = self.out.len();
            write(&mut self.out);
            debug_assert!(
                !self.out.as_bytes()[start..]
                    .iter()
                    .copied()
                    .any(needs_escape),
                "unescaped_str was given text that needs escaping"
            );
            self.out.push('"');
        }

        /// Writes a value whose compact JSON text `write` appends straight
        /// to the output. The text stays compact in a pretty writer; the
        /// caller answers for it being one well-formed value.
        pub fn raw(&mut self, write: impl FnOnce(&mut String)) {
            write(&mut self.out);
        }

        /// Writes a number token: `n`'s `Display` text, formatted straight
        /// into the output.
        pub fn number(&mut self, n: impl fmt::Display) {
            write!(self.out, "{n}").expect("writing to a String cannot fail");
        }

        /// Writes a boolean scalar.
        pub fn boolean(&mut self, b: bool) {
            self.out.push_str(if b { "true" } else { "false" });
        }

        /// Writes a JSON null.
        pub fn null(&mut self) {
            self.out.push_str("null");
        }
    }

    /// True for the bytes a JSON string body must escape.
    fn needs_escape(b: u8) -> bool {
        b < 0x20 || b == b'"' || b == b'\\'
    }

    /// Appends `s` to `out` as the body of a JSON string.
    fn escape_into(out: &mut String, s: &str) {
        // `"`, `\` and the control characters are ASCII, so they never
        // occur inside a multi-byte character and runs between them copy
        // whole. The common case has none: one branch-free pass finds that
        // out before anything is copied.
        let mut rest = s;
        if s.bytes().fold(false, |any, b| any | needs_escape(b)) {
            while let Some(at) = rest.bytes().position(needs_escape) {
                out.push_str(&rest[..at]);
                match rest.as_bytes()[at] {
                    b'"' => out.push_str("\\\""),
                    b'\\' => out.push_str("\\\\"),
                    b'\n' => out.push_str("\\n"),
                    b'\r' => out.push_str("\\r"),
                    b'\t' => out.push_str("\\t"),
                    c => write!(out, "\\u{c:04x}").expect("writing to a String cannot fail"),
                }
                rest = &rest[at + 1..];
            }
        }
        out.push_str(rest);
    }

    /// Escapes what is formatted through it into the output.
    struct Escaped<'a>(&'a mut String);

    impl Write for Escaped<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            escape_into(self.0, s);
            Ok(())
        }
    }

    impl Default for JsonWriter {
        fn default() -> Self {
            Self::new()
        }
    }
}

use ser::JsonWriter;

macro_rules! impl_ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter) {
                w.number(self);
            }
        }
    )*};
}

impl_ser_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_ser_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, w: &mut JsonWriter) {
                if self.is_finite() {
                    w.number(self);
                } else {
                    // JSON has no Inf/NaN; serde_json errors, this shim is
                    // lenient and writes null
                    w.null();
                }
            }
        }
    )*};
}

impl_ser_float!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, w: &mut JsonWriter) {
        w.boolean(*self);
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, w: &mut JsonWriter) {
        w.string(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut JsonWriter) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        (**self).serialize(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self {
            w.elem();
            v.serialize(w);
        }
        w.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        self.as_slice().serialize(w);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut JsonWriter) {
        self.as_slice().serialize(w);
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_array();
        w.elem();
        self.0.serialize(w);
        w.elem();
        self.1.serialize(w);
        w.end_array();
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_array();
        w.elem();
        self.0.serialize(w);
        w.elem();
        self.1.serialize(w);
        w.elem();
        self.2.serialize(w);
        w.end_array();
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_array();
        for v in self {
            w.elem();
            v.serialize(w);
        }
        w.end_array();
    }
}

pub mod de {
    //! Parsed-JSON tree and decoding helpers the `Deserialize` derive
    //! targets.

    use std::fmt;

    /// A parsed JSON value. Numbers are kept as their raw source token so
    /// each call site can parse at the exact target width.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        /// Raw number token, e.g. `-1.5e-3` or `18446744073709551615`.
        Num(String),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    /// Decoding error with a short human-readable message.
    #[derive(Debug, Clone)]
    pub struct DeError(pub String);

    impl DeError {
        pub fn new(msg: impl Into<String>) -> Self {
            DeError(msg.into())
        }
    }

    impl fmt::Display for DeError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "JSON decode error: {}", self.0)
        }
    }

    impl std::error::Error for DeError {}

    impl Value {
        fn kind(&self) -> &'static str {
            match self {
                Value::Null => "null",
                Value::Bool(_) => "bool",
                Value::Num(_) => "number",
                Value::Str(_) => "string",
                Value::Arr(_) => "array",
                Value::Obj(_) => "object",
            }
        }

        /// Object entry by key.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The elements of an array value.
        pub fn as_array(&self) -> Result<&[Value], DeError> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(DeError::new(format!(
                    "expected array, got {}",
                    other.kind()
                ))),
            }
        }

        /// The text of a string value.
        pub fn as_str(&self) -> Result<&str, DeError> {
            match self {
                Value::Str(s) => Ok(s),
                other => Err(DeError::new(format!(
                    "expected string, got {}",
                    other.kind()
                ))),
            }
        }

        /// Parses JSON text into a value tree.
        pub fn parse(text: &str) -> Result<Value, DeError> {
            let bytes = text.as_bytes();
            let mut pos = 0usize;
            let v = parse_value(bytes, &mut pos, 0)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(DeError::new(format!("trailing characters at byte {pos}")));
            }
            Ok(v)
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), DeError> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(())
        } else {
            Err(DeError::new(format!("expected `{lit}` at byte {}", *pos)))
        }
    }

    /// Arrays and objects may nest this deep. The parser recurses once per
    /// level, so without a bound a line of `[`s from the wire or a damaged
    /// file overflows the stack, which aborts the process.
    pub const MAX_DEPTH: usize = 128;

    /// Parses one value; `depth` counts the arrays and objects around it.
    fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, DeError> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err(DeError::new("unexpected end of input")),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(DeError::new(format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'n') => expect(b, pos, "null").map(|_| Value::Null),
            Some(b't') => expect(b, pos, "true").map(|_| Value::Bool(true)),
            Some(b'f') => expect(b, pos, "false").map(|_| Value::Bool(false)),
            Some(b'"') => parse_string(b, pos).map(Value::Str),
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(parse_value(b, pos, depth + 1)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => {
                            return Err(DeError::new(format!(
                                "expected `,` or `]` at byte {}",
                                *pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                *pos += 1;
                let mut entries = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Obj(entries));
                }
                loop {
                    skip_ws(b, pos);
                    let key = parse_string(b, pos)?;
                    skip_ws(b, pos);
                    expect(b, pos, ":")?;
                    let val = parse_value(b, pos, depth + 1)?;
                    entries.push((key, val));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Obj(entries));
                        }
                        _ => {
                            return Err(DeError::new(format!(
                                "expected `,` or `}}` at byte {}",
                                *pos
                            )))
                        }
                    }
                }
            }
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = *pos;
                if b[*pos] == b'-' {
                    *pos += 1;
                }
                while *pos < b.len()
                    && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
                {
                    *pos += 1;
                }
                let token = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| DeError::new("invalid UTF-8 in number"))?;
                Ok(Value::Num(token.to_string()))
            }
            Some(c) => Err(DeError::new(format!(
                "unexpected byte `{}` at {}",
                *c as char, *pos
            ))),
        }
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, DeError> {
        if b.get(*pos) != Some(&b'"') {
            return Err(DeError::new(format!("expected string at byte {}", *pos)));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err(DeError::new("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| DeError::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| DeError::new("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by the shim
                            // writer (it emits non-BMP chars verbatim), so a
                            // lone code point is the only case to handle.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| DeError::new("invalid \\u code point"))?,
                            );
                            *pos += 4;
                        }
                        other => return Err(DeError::new(format!("invalid escape {other:?}"))),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote or
                    // backslash. Both are ASCII and so never occur inside
                    // a multi-byte character: the run ends on a character
                    // boundary, and validating it alone (not the rest of
                    // the input) keeps parsing linear.
                    let run = &b[*pos..];
                    let len = run
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\')
                        .unwrap_or(run.len());
                    let run = std::str::from_utf8(&run[..len])
                        .map_err(|_| DeError::new("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    *pos += len;
                }
            }
        }
    }

    /// Decodes a full value; the entry point generated decoders use.
    pub fn from_value<T: for<'de> super::Deserialize<'de>>(v: &Value) -> Result<T, DeError> {
        T::deserialize_value(v)
    }

    /// Decodes a named struct field, failing if the key is missing.
    pub fn field<T: for<'de> super::Deserialize<'de>>(v: &Value, name: &str) -> Result<T, DeError> {
        let inner = v
            .get(name)
            .ok_or_else(|| DeError::new(format!("missing field `{name}`")))?;
        T::deserialize_value(inner).map_err(|e| DeError::new(format!("field `{name}`: {}", e.0)))
    }

    /// Decodes element `i` of an array-encoded tuple struct / variant.
    pub fn elem<T: for<'de> super::Deserialize<'de>>(
        arr: &[Value],
        i: usize,
    ) -> Result<T, DeError> {
        let inner = arr
            .get(i)
            .ok_or_else(|| DeError::new(format!("missing tuple element {i}")))?;
        T::deserialize_value(inner).map_err(|e| DeError::new(format!("element {i}: {}", e.0)))
    }

    /// The sole `(key, value)` entry of an externally-tagged enum object.
    pub fn sole_entry(v: &Value) -> Result<(&str, &Value), DeError> {
        match v {
            Value::Obj(entries) if entries.len() == 1 => Ok((entries[0].0.as_str(), &entries[0].1)),
            other => Err(DeError::new(format!(
                "expected single-key variant object, got {}",
                other.kind()
            ))),
        }
    }
}

use de::{DeError, Value};

macro_rules! impl_de_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(tok) => tok.parse::<$t>().map_err(|e| {
                        DeError::new(format!("bad {}: `{tok}` ({e})", stringify!($t)))
                    }),
                    other => Err(DeError::new(format!(
                        "expected {}, got JSON {:?}",
                        stringify!($t),
                        other
                    ))),
                }
            }
        }
    )*};
}

impl_de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_de_float {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Num(tok) => tok.parse::<$t>().map_err(|e| {
                        DeError::new(format!("bad {}: `{tok}` ({e})", stringify!($t)))
                    }),
                    // The shim writer encodes non-finite floats as null;
                    // NaN is the lenient inverse (callers that care about
                    // infinities must normalize on restore).
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(DeError::new(format!(
                        "expected {}, got JSON {:?}",
                        stringify!($t),
                        other
                    ))),
                }
            }
        }
    )*};
}

impl_de_float!(f32, f64);

impl<'de> Deserialize<'de> for bool {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::new(format!("expected bool, got {other:?}"))),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        v.as_str().map(|s| s.to_string())
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Box<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        T::deserialize_value(v).map(Box::new)
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()?.iter().map(T::deserialize_value).collect()
    }
}

impl<'de, T: for<'a> Deserialize<'a>> Deserialize<'de> for std::collections::VecDeque<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()?.iter().map(T::deserialize_value).collect()
    }
}

impl<'de, T: for<'a> Deserialize<'a>, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let items = v.as_array()?;
        if items.len() != N {
            return Err(DeError::new(format!(
                "expected array of {N}, got {}",
                items.len()
            )));
        }
        let vec: Vec<T> = items
            .iter()
            .map(T::deserialize_value)
            .collect::<Result<_, _>>()?;
        vec.try_into()
            .map_err(|_| DeError::new("array length mismatch"))
    }
}

impl<'de, A: for<'a> Deserialize<'a>, B: for<'a> Deserialize<'a>> Deserialize<'de> for (A, B) {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let items = v.as_array()?;
        if items.len() != 2 {
            return Err(DeError::new(format!(
                "expected 2-tuple, got {} elements",
                items.len()
            )));
        }
        Ok((
            A::deserialize_value(&items[0])?,
            B::deserialize_value(&items[1])?,
        ))
    }
}

impl<'de, A: for<'a> Deserialize<'a>, B: for<'a> Deserialize<'a>, C: for<'a> Deserialize<'a>>
    Deserialize<'de> for (A, B, C)
{
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let items = v.as_array()?;
        if items.len() != 3 {
            return Err(DeError::new(format!(
                "expected 3-tuple, got {} elements",
                items.len()
            )));
        }
        Ok((
            A::deserialize_value(&items[0])?,
            B::deserialize_value(&items[1])?,
            C::deserialize_value(&items[2])?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::ser::JsonWriter;
    use super::Serialize;

    fn to_json<T: Serialize>(v: &T) -> String {
        let mut w = JsonWriter::new();
        v.serialize(&mut w);
        w.finish()
    }

    #[test]
    fn scalars() {
        assert_eq!(to_json(&3u32), "3");
        assert_eq!(to_json(&-4i64), "-4");
        assert_eq!(to_json(&1.5f64), "1.5");
        assert_eq!(to_json(&f64::NAN), "null");
        assert_eq!(to_json(&true), "true");
        assert_eq!(to_json(&"a\"b".to_string()), "\"a\\\"b\"");
    }

    #[test]
    fn collect_str_escapes_every_piece() {
        struct Pieces;
        impl std::fmt::Display for Pieces {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str("plain")?;
                f.write_str("q\" \u{1}")?;
                write!(f, "{}\\\né", 7)
            }
        }
        let mut w = JsonWriter::new();
        w.collect_str(&Pieces);
        let text = w.finish();
        assert_eq!(text, "\"plainq\\\" \\u00017\\\\\\né\"");
        // and it is what `string` writes for the same characters
        assert_eq!(text, to_json(&"plainq\" \u{1}7\\\né".to_string()));
    }

    #[test]
    fn a_reused_buffer_takes_unescaped_and_raw_values_in_place() {
        let mut w = JsonWriter::with_buffer("stale text".to_string());
        w.begin_array();
        w.elem();
        w.unescaped_str(|out| out.push_str("0a1b"));
        w.elem();
        w.raw(|out| out.push_str(r#"{"k":[1,2]}"#));
        w.elem();
        w.string("x");
        w.end_array();
        assert_eq!(w.finish(), r#"["0a1b",{"k":[1,2]},"x"]"#);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "needs escaping")]
    fn unescaped_str_refuses_text_that_needs_escaping() {
        JsonWriter::new().unescaped_str(|out| out.push_str("a\"b"));
    }

    #[test]
    fn containers() {
        assert_eq!(to_json(&vec![1, 2, 3]), "[1,2,3]");
        assert_eq!(to_json(&Some(7u8)), "7");
        assert_eq!(to_json(&Option::<u8>::None), "null");
        assert_eq!(to_json(&(1u8, "x")), "[1,\"x\"]");
    }

    #[test]
    fn parse_and_decode_scalars() {
        use super::de::{from_value, Value};
        let v = Value::parse("{\"a\": [1, 2.5, -3], \"b\": \"x\\ny\", \"c\": null}").unwrap();
        assert_eq!(
            from_value::<u32>(v.get("a").unwrap().as_array().unwrap().first().unwrap()).unwrap(),
            1
        );
        assert_eq!(
            from_value::<Vec<f64>>(v.get("a").unwrap()).unwrap(),
            vec![1.0, 2.5, -3.0]
        );
        assert_eq!(from_value::<String>(v.get("b").unwrap()).unwrap(), "x\ny");
        assert_eq!(from_value::<Option<u8>>(v.get("c").unwrap()).unwrap(), None);
        assert!(from_value::<f64>(v.get("c").unwrap()).unwrap().is_nan());
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("[1] junk").is_err());
    }

    /// `parse_string` used to re-validate the whole remaining input for
    /// every plain character, which made parsing quadratic: this document
    /// took minutes. Linear parsing takes well under a second even in a
    /// debug build; the bound is generous on purpose.
    #[test]
    fn large_string_heavy_document_parses_in_linear_time() {
        use super::de::{from_value, Value};
        let mut strings: Vec<String> = (0..200_000)
            .map(|i| match i % 4 {
                0 => format!("plain ascii string {i}"),
                1 => format!("naïve – 日本語 – 🦀 {i}"),
                2 => format!("quote \" slash \\ {i}\n\r\t"),
                _ => format!("control \u{1}\u{8}\u{c}\u{1f} {i}"),
            })
            .collect();
        let mut text = to_json(&strings);
        assert!(text.len() >= 4 << 20, "document is {} bytes", text.len());
        // the escapes the writer never emits itself
        text.pop();
        text.push_str(",\"caf\\u00e9 \\/ \\b \\f\"]");
        strings.push("café / \u{8} \u{c}".to_string());

        let start = std::time::Instant::now();
        let parsed: Vec<String> = from_value(&Value::parse(&text).unwrap()).unwrap();
        let took = start.elapsed();
        assert!(parsed == strings, "round trip changed a string");
        assert!(took.as_secs() < 5, "parsing took {took:?}");
    }

    #[test]
    fn numbers_round_trip_exactly() {
        use super::de::{from_value, Value};
        for x in [f64::MIN_POSITIVE, 0.1, 1.0 / 3.0, -1.5e300, 4.9e-324] {
            let v = Value::parse(&to_json(&x)).unwrap();
            assert_eq!(from_value::<f64>(&v).unwrap().to_bits(), x.to_bits());
        }
        for x in [0.1f32, 1.0f32 / 3.0, f32::MIN_POSITIVE] {
            let v = Value::parse(&to_json(&x)).unwrap();
            assert_eq!(from_value::<f32>(&v).unwrap().to_bits(), x.to_bits());
        }
        let big = u64::MAX - 3;
        let v = Value::parse(&to_json(&big)).unwrap();
        assert_eq!(from_value::<u64>(&v).unwrap(), big);
    }

    #[test]
    fn containers_round_trip() {
        use super::de::{from_value, Value};
        use std::collections::VecDeque;
        let dq: VecDeque<(usize, f64)> = [(1, 0.5), (2, -0.25)].into_iter().collect();
        let v = Value::parse(&to_json(&dq)).unwrap();
        assert_eq!(from_value::<VecDeque<(usize, f64)>>(&v).unwrap(), dq);
        let arr = [3u64, 9, 27];
        let v = Value::parse(&to_json(&arr)).unwrap();
        assert_eq!(from_value::<[u64; 3]>(&v).unwrap(), arr);
        assert!(from_value::<[u64; 2]>(&v).is_err());
    }

    #[test]
    fn nested_objects_pretty() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("a");
        vec![1u8, 2].serialize(&mut w);
        w.key("b");
        w.begin_object();
        w.key("c");
        1u8.serialize(&mut w);
        w.end_object();
        w.end_object();
        let s = w.finish();
        assert_eq!(
            s,
            "{\n  \"a\": [\n    1,\n    2\n  ],\n  \"b\": {\n    \"c\": 1\n  }\n}"
        );
    }
}
