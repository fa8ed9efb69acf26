//! A tiny JSON reader/writer (shared by the experiment harness, the
//! run-statistics serializers, the warm-start cache snapshots and the
//! network server's wire protocol).
//!
//! The build environment is fully offline, so `serde`/`serde_json` are not
//! available; the consumers only need to round-trip flat result rows and
//! cache snapshots, which this module covers with a plain recursive-descent
//! parser and a pretty printer. The surface is deliberately small: [`Json`]
//! values, [`parse`] / [`parse_with_limits`], [`Json::render`] /
//! [`Json::render_pretty`], typed accessors, the structural encoding of
//! first-order runtime values ([`value_to_json`] / [`value_from_json`]), the
//! [`counters!`] table that declares a statistics struct once and generates
//! its `to_json` (each field rendered through [`CounterJson`]), and the
//! newline-delimited framing layer ([`FrameReader`] / [`write_frame`]) the
//! TCP front end and its clients speak.
//!
//! The parser is recursive-descent, so untrusted input could otherwise
//! overflow the stack with a deeply nested document; every entry point
//! therefore enforces a nesting-depth ceiling ([`DEFAULT_MAX_DEPTH`] unless
//! the caller picks a tighter one).
//!
//! Decoding is linear in the input: the parser copies each string's runs of
//! plain bytes in one step, and [`FrameReader`] scans every buffered byte
//! for a newline once, however the frame is split across reads.  Outside
//! bytes therefore cost time in proportion to their size, never a stall.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::symbol::Symbol;
use crate::value::Value;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are kept sorted for deterministic output.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Wraps an optional value, mapping `None` to `null`.
    pub fn opt<T>(value: Option<T>, f: impl FnOnce(T) -> Json) -> Json {
        value.map_or(Json::Null, f)
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `usize`, when it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a key, when the value is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Multi-line rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
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
                    new_line(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                new_line(out, indent, depth);
                out.push(']');
            }
            Json::Obj(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    new_line(out, indent, depth + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                new_line(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// In pretty mode, starts a new line indented `depth` levels; compact
/// rendering writes nothing.
fn new_line(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A counter field's JSON form: counts become numbers, [`Duration`]s
/// seconds, `None` becomes `null`, and an [`AtomicU64`] is read with a
/// relaxed load.  Implemented for every field type a [`counters!`] table
/// may declare.
///
/// [`Duration`]: std::time::Duration
pub trait CounterJson {
    /// The field's value as JSON.
    fn counter_json(&self) -> Json;
}

impl CounterJson for u64 {
    fn counter_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl CounterJson for usize {
    fn counter_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl CounterJson for std::time::Duration {
    fn counter_json(&self) -> Json {
        Json::Num(self.as_secs_f64())
    }
}

impl<T: CounterJson> CounterJson for Option<T> {
    fn counter_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::counter_json)
    }
}

impl CounterJson for AtomicU64 {
    fn counter_json(&self) -> Json {
        Json::Num(self.load(Ordering::Relaxed) as f64)
    }
}

/// Declares a counter struct once and generates both the struct and its
/// `to_json`.
///
/// Each field is one row: its doc comment, visibility, name and type, plus
/// an optional `=> "key"` when its wire key differs from its name.
/// `to_json` renders every field through [`CounterJson`] under that key.
/// Attributes on the struct (docs, derives) are kept as written.
///
/// ```
/// use std::time::Duration;
///
/// hanoi_lang::json::counters! {
///     /// Work done by one pass.
///     #[derive(Debug, Default)]
///     pub struct PassStats {
///         /// Wall-clock time of the pass.
///         pub elapsed: Duration => "elapsed_secs",
///         /// Items processed.
///         pub items: u64,
///     }
/// }
///
/// let stats = PassStats { elapsed: Duration::from_millis(1500), items: 3 };
/// assert_eq!(stats.to_json().render(), r#"{"elapsed_secs":1.5,"items":3}"#);
/// ```
#[doc(hidden)]
#[macro_export]
macro_rules! __counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty $(=> $key:literal)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$field_meta])*
                $field_vis $field: $ty,
            )*
        }

        impl $name {
            /// Serializes every field to a JSON object: counts as numbers,
            /// durations in seconds, absent values as `null`.
            pub fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $((
                        $crate::__counters!(@key $field $($key)?),
                        $crate::json::CounterJson::counter_json(&self.$field),
                    ),)*
                ])
            }
        }
    };
    (@key $field:ident $key:literal) => {
        $key
    };
    (@key $field:ident) => {
        stringify!($field)
    };
}

#[doc(inline)]
pub use crate::__counters as counters;

/// Serializes a first-order [`Value`] structurally: a constructor
/// application becomes `{"c": name, "a": [children…]}`, a tuple becomes
/// `{"t": [children…]}`.  Closures and native functions have no structural
/// denotation and yield `None` — callers persisting caches skip such entries
/// rather than guessing.
///
/// The encoding is the disk format of the warm-start snapshots, so it must
/// stay stable; [`value_from_json`] is its inverse.
pub fn value_to_json(value: &Value) -> Option<Json> {
    match value {
        Value::Ctor(name, args) => {
            let args: Option<Vec<Json>> = args.iter().map(value_to_json).collect();
            Some(Json::obj([
                ("c", Json::Str(name.as_str().to_string())),
                ("a", Json::Arr(args?)),
            ]))
        }
        Value::Tuple(items) => {
            let items: Option<Vec<Json>> = items.iter().map(value_to_json).collect();
            Some(Json::obj([("t", Json::Arr(items?))]))
        }
        // Encoded as a decimal string so the full i64 range survives the
        // f64-backed `Json::Num` representation losslessly.
        Value::Int(i) => Some(Json::obj([("i", Json::Str(i.to_string()))])),
        Value::Closure(_) | Value::Native(_) => None,
    }
}

/// Parses the structural value encoding of [`value_to_json`].  Returns
/// `None` on any shape mismatch (snapshot loaders treat that as a corrupt
/// snapshot and fall back to a cold start).
pub fn value_from_json(json: &Json) -> Option<Value> {
    if let Some(name) = json.get("c").and_then(Json::as_str) {
        let args: Option<Vec<Value>> = json
            .get("a")?
            .as_arr()?
            .iter()
            .map(value_from_json)
            .collect();
        return Some(Value::ctor_of(Symbol::new(name), args?));
    }
    if let Some(items) = json.get("t").and_then(Json::as_arr) {
        let items: Option<Vec<Value>> = items.iter().map(value_from_json).collect();
        return Some(Value::tuple_of(items?));
    }
    if let Some(digits) = json.get("i").and_then(Json::as_str) {
        return digits.parse::<i64>().ok().map(Value::Int);
    }
    None
}

/// A JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The nesting-depth ceiling of [`parse`].  Deep enough for every snapshot
/// the repo writes (structural value encodings nest two levels per
/// constructor, and verifier bounds keep values small), shallow enough that
/// a crafted `[[[[…` document errors out long before the parser's recursion
/// threatens the stack.
pub const DEFAULT_MAX_DEPTH: usize = 1024;

/// Parses a complete JSON document (trailing whitespace allowed), with the
/// [`DEFAULT_MAX_DEPTH`] nesting ceiling.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    parse_with_limits(input, DEFAULT_MAX_DEPTH)
}

/// [`parse`] with an explicit nesting-depth ceiling — servers decoding
/// untrusted frames pick a much tighter bound than the snapshot loaders.
pub fn parse_with_limits(input: &str, max_depth: usize) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
        max_depth,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    /// The input; `bytes` is the same text as bytes.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonError> {
        self.depth += 1;
        if self.depth > self.max_depth {
            return Err(self.err("nesting too deep"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by the harness;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next quote,
                    // backslash or the end of input.  Both stop bytes are
                    // ASCII, so the run ends on a char boundary.
                    let run = &self.text[self.pos..];
                    let len = run
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\')
                        .unwrap_or(run.len());
                    out.push_str(&run[..len]);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// The default per-frame byte ceiling of the newline-delimited framing
/// layer (1 MiB — an order of magnitude above any legitimate problem
/// submission, far below what an unbounded line could allocate).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// One step of [`FrameReader::read_frame`].
///
/// `Oversized` and `InvalidUtf8` are *per-frame* defects: the stream's line
/// framing survives them, so a server can reply with a structured error and
/// keep the connection — unlike `Err`, after which the transport is gone.
#[derive(Debug)]
pub enum FrameResult {
    /// One complete newline-terminated line (without the terminator).
    Frame(String),
    /// The read timed out (the socket's read timeout elapsed) with the frame
    /// still incomplete; poll again.  [`FrameReader::partial_len`] tells how
    /// many bytes of the unfinished frame have arrived — the caller's
    /// slow-writer watchdog feeds on it.
    WouldBlock,
    /// End of stream.  Clean when no partial frame was pending
    /// ([`FrameReader::partial_len`] `== 0`), a mid-frame disconnect
    /// otherwise.
    Closed {
        /// `true` when the peer disconnected mid-frame.
        mid_frame: bool,
    },
    /// The current line exceeded the byte ceiling.  The offending line's
    /// remaining bytes are discarded internally; subsequent reads resume at
    /// the next line.
    Oversized {
        /// The configured ceiling that was exceeded.
        limit: usize,
    },
    /// A complete line arrived but was not valid UTF-8; the frame is
    /// discarded, the stream remains framed.
    InvalidUtf8,
    /// A transport error other than a timeout.
    Err(std::io::Error),
}

/// An incremental decoder for newline-delimited frames over any [`Read`].
///
/// The reader owns a bounded buffer: a line longer than `max_bytes` is
/// reported as [`FrameResult::Oversized`] and *discarded as it streams in*,
/// so a hostile peer can make the server hold at most `max_bytes + 8 KiB`,
/// never an unbounded line.  Partial frames persist across calls, which is
/// what lets the transport carry a read timeout: a timeout surfaces as
/// [`FrameResult::WouldBlock`] and the next call resumes exactly where the
/// bytes stopped.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames (consumed prefix).
    start: usize,
    /// End of the prefix already searched for a newline: `buf[start..scanned]`
    /// holds none, so each byte is scanned once however the frame trickles in.
    scanned: usize,
    max_bytes: usize,
    /// `true` while discarding the tail of an oversized line.
    discarding: bool,
}

impl FrameReader {
    /// A reader enforcing the given per-frame byte ceiling.
    pub fn new(max_bytes: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            max_bytes,
            discarding: false,
        }
    }

    /// How many bytes of an unfinished frame are currently buffered.
    pub fn partial_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Reads until one frame (or one of the structured defects) is
    /// available.  Blocks only as long as the underlying transport does.
    pub fn read_frame(&mut self, reader: &mut impl Read) -> FrameResult {
        let mut chunk = [0u8; 8192];
        loop {
            // Serve a complete line from the buffer first, searching only
            // the bytes no earlier pass has scanned.
            while let Some(nl) = self.buf[self.scanned..].iter().position(|b| *b == b'\n') {
                let (line_start, line_end) = (self.start, self.scanned + nl);
                self.start = line_end + 1;
                self.scanned = self.start;
                let result = if self.discarding {
                    // The tail of an oversized line: swallow it and resume
                    // normal framing with the next line.
                    self.discarding = false;
                    None
                } else {
                    self.line_result(line_start, line_end)
                };
                self.compact();
                if let Some(result) = result {
                    return result;
                }
            }
            self.scanned = self.buf.len();
            if self.discarding {
                // Still inside an oversized line: drop everything buffered.
                self.clear();
            } else if self.partial_len() > self.max_bytes {
                self.clear();
                self.discarding = true;
                return FrameResult::Oversized {
                    limit: self.max_bytes,
                };
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    return FrameResult::Closed {
                        mid_frame: self.partial_len() > 0 || self.discarding,
                    }
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    return FrameResult::WouldBlock
                }
                Err(e) => return FrameResult::Err(e),
            }
        }
    }

    /// The outcome of the complete line `buf[start..end]`, or `None` for a
    /// blank keep-alive line.
    fn line_result(&self, start: usize, end: usize) -> Option<FrameResult> {
        let line = &self.buf[start..end];
        if line.len() > self.max_bytes {
            // The whole line arrived before the cap check ran (one large
            // read): same defect, nothing left to discard.
            return Some(FrameResult::Oversized {
                limit: self.max_bytes,
            });
        }
        // Tolerate CRLF peers.
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        // Skip blank keep-alive lines rather than erroring on them.
        if line.is_empty() {
            return None;
        }
        Some(match std::str::from_utf8(line) {
            Ok(text) => FrameResult::Frame(text.to_owned()),
            Err(_) => FrameResult::InvalidUtf8,
        })
    }

    /// Drops everything buffered.
    fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
    }

    /// Drops the consumed prefix once it dominates the buffer.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
    }
}

/// Writes `json` as one newline-terminated frame and flushes, so a frame is
/// either fully on the wire or reported as an error — readers never see a
/// torn line from a well-behaved writer.
pub fn write_frame(writer: &mut impl Write, json: &Json) -> std::io::Result<()> {
    let mut line = json.render();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that hands out its bytes at most three per `read`.
    struct Trickle(Vec<u8>, usize);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.1 >= self.0.len() {
                return Ok(0);
            }
            let n = buf.len().min(3).min(self.0.len() - self.1);
            buf[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
            self.1 += n;
            Ok(n)
        }
    }

    #[test]
    fn round_trips_a_flat_object() {
        let src = r#"{"id":"/coq/x","n":3,"t":1.5,"ok":true,"inv":null,"xs":[1,2]}"#;
        let value = parse(src).unwrap();
        assert_eq!(value.get("id").unwrap().as_str(), Some("/coq/x"));
        assert_eq!(value.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(value.get("t").unwrap().as_f64(), Some(1.5));
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("inv"), Some(&Json::Null));
        assert_eq!(value.get("xs").unwrap().as_arr().unwrap().len(), 2);
        let again = parse(&value.render()).unwrap();
        assert_eq!(again, value);
        let pretty = parse(&value.render_pretty()).unwrap();
        assert_eq!(pretty, value);
    }

    #[test]
    fn escapes_round_trip() {
        let value = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(parse(&value.render()).unwrap(), value);
    }

    #[test]
    fn multibyte_scalars_decode_beside_escapes() {
        // 2-, 3- and 4-byte scalars at the start, middle and end of a
        // string, and directly before and after escapes.
        for c in ['é', '€', '😀'] {
            for (raw, decoded) in [
                (format!("{c}ab"), format!("{c}ab")),
                (format!("a{c}b"), format!("a{c}b")),
                (format!("ab{c}"), format!("ab{c}")),
                (format!("{c}"), format!("{c}")),
                (format!("{c}{c}{c}"), format!("{c}{c}{c}")),
                (format!("{c}\\n"), format!("{c}\n")),
                (format!("\\\"{c}"), format!("\"{c}")),
                (format!("a\\\\{c}\\/b"), format!("a\\{c}/b")),
                (format!("\\u00e9{c}\\u20ac"), format!("é{c}€")),
                (format!("{c}\\ud800{c}"), format!("{c}\u{fffd}{c}")),
            ] {
                let src = format!("\"{raw}\"");
                let value = Json::Str(decoded.clone());
                assert_eq!(parse(&src).as_ref(), Ok(&value), "{src}");
                // Object keys take the same path.
                let obj = format!("{{{src}:{src}}}");
                assert_eq!(parse(&obj).unwrap().get(&decoded), Some(&value), "{obj}");
            }
        }
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        // Cut off at EOF right after a multi-byte scalar: the error points
        // at the end of the input.
        for src in ["\"ab€", "\"😀", "\"é", "[\"x\",\"€€", "{\"k€"] {
            let err = parse(src).unwrap_err();
            assert_eq!(err.message, "unterminated string", "{src}");
            assert_eq!(err.offset, src.len(), "{src}");
        }
        let cases: [(&str, &str, usize); 7] = [
            ("\"€\\q\"", "bad escape", 5),
            ("\"€\\", "bad escape", 5),
            ("\"€\\é\"", "bad escape", 5),
            ("\"😀\\u12", "truncated \\u escape", 6),
            ("\"😀\\u12zz\"", "bad \\u escape", 6),
            ("\"a\\u00€\"", "bad \\u escape", 3),
            ("\"€\" x", "trailing characters", 6),
        ];
        for (src, message, offset) in cases {
            let err = parse(src).unwrap_err();
            assert_eq!(
                (err.message.as_str(), err.offset),
                (message, offset),
                "{src}"
            );
        }
    }

    #[test]
    fn random_strings_round_trip() {
        // Dependency-free splitmix64 so every run draws the same strings.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let pool = [
            '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}',
        ];
        for _ in 0..400 {
            let len = (next() % 40) as usize;
            let s: String = (0..len)
                .map(|_| match next() % 6 {
                    0 => pool[(next() % pool.len() as u64) as usize],
                    1 => char::from_u32((next() % 0x20) as u32).unwrap(),
                    2 => char::from_u32(0x80 + (next() % 0x780) as u32).unwrap(),
                    3 => char::from_u32(0x800 + (next() % 0xf800) as u32).unwrap_or('\u{fffd}'),
                    4 => char::from_u32(0x1_0000 + (next() % 0x10_0000) as u32).unwrap(),
                    _ => char::from(b' ' + (next() % 95) as u8),
                })
                .collect();
            let value = Json::Str(s);
            assert_eq!(parse(&value.render()), Ok(value.clone()));
            assert_eq!(parse(&value.render_pretty()), Ok(value));
        }
    }

    #[test]
    fn rendering_is_byte_stable() {
        // Chunk files are addressed by the digest of their rendered text, so
        // both renderings must stay byte-for-byte what they are.
        let doc = parse(
            r#"{"arr":[1,-2.5,[],{},[true,null]],"empty":{},"esc":"q\"b\\n\n\t\u0001é",
                "nested":{"k":[{"x":1e20,"y":0.125}],"z":-0}}"#,
        )
        .unwrap();
        assert_eq!(
            doc.render(),
            r#"{"arr":[1,-2.5,[],{},[true,null]],"empty":{},"esc":"q\"b\\n\n\t\u0001é","nested":{"k":[{"x":100000000000000000000,"y":0.125}],"z":0}}"#
        );
        let pretty = r#"{
  "arr": [
    1,
    -2.5,
    [],
    {},
    [
      true,
      null
    ]
  ],
  "empty": {},
  "esc": "q\"b\\n\n\t\u0001é",
  "nested": {
    "k": [
      {
        "x": 100000000000000000000,
        "y": 0.125
      }
    ],
    "z": 0
  }
}"#;
        assert_eq!(doc.render_pretty(), pretty);
        assert_eq!(Json::Arr(vec![]).render_pretty(), "[]");
        assert_eq!(Json::Num(3.0).render_pretty(), "3");
    }

    /// Runs `decode` on its own thread and fails the test once `ceiling`
    /// passes, so a super-linear decoder fails here instead of hanging.  Only
    /// a timed-out thread is left unjoined; the test process reaps it.
    fn decode_within<T: Send + 'static>(
        ceiling: std::time::Duration,
        decode: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(decode());
        });
        match rx.recv_timeout(ceiling) {
            Ok(value) => {
                worker
                    .join()
                    .expect("the decoder thread already sent its result");
                value
            }
            Err(RecvTimeoutError::Timeout) => panic!("decoding took longer than {ceiling:?}"),
            Err(RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the decoder thread returned without sending"),
            },
        }
    }

    /// Wall-time guard against a quadratic scan of outside bytes: a frame
    /// whose one string is 4 MiB, and a chunk-shaped 4 MiB document of many
    /// short strings.  A linear decoder meets the ceiling by an order of
    /// magnitude even unoptimized; a quadratic one needs hours.
    #[test]
    fn hostile_input_decode_is_linear_time() {
        let ceiling = std::time::Duration::from_secs(5);

        let pattern = "é€😀 source text \\ \" \n";
        let big = pattern.repeat((4 << 20) / pattern.len() + 1);
        let frame = Json::obj([
            ("op", Json::Str("submit".into())),
            ("source", Json::Str(big)),
        ]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let parsed = decode_within(ceiling, move || {
            let mut reader = FrameReader::new(8 << 20);
            match reader.read_frame(&mut std::io::Cursor::new(wire)) {
                FrameResult::Frame(text) => parse(&text),
                other => panic!("{other:?}"),
            }
        });
        assert_eq!(parsed, Ok(frame));

        let rows: Vec<Json> = (0..6_500)
            .map(|i| {
                let value = value_to_json(&Value::nat_list(&[i % 3, 1])).unwrap();
                Json::obj([
                    ("key", Json::Str(format!("k{i:08x}"))),
                    ("value", value),
                    ("verdict", Json::Str("valid".into())),
                ])
            })
            .collect();
        let chunk = Json::obj([
            ("kind", Json::Str("chunk".into())),
            ("rows", Json::Arr(rows)),
        ]);
        let text = chunk.render_pretty();
        assert!(text.len() > 4 << 20, "{}", text.len());
        let parsed = decode_within(ceiling, move || parse(&text));
        assert_eq!(parsed, Ok(chunk));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Within the ceiling: fine (depth counts containers, so 8 nested
        // arrays parse with max_depth 8).
        let ok = format!("{}1{}", "[".repeat(8), "]".repeat(8));
        assert!(parse_with_limits(&ok, 8).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(9), "]".repeat(9));
        let err = parse_with_limits(&too_deep, 8).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Mixed containers count too.
        assert!(parse_with_limits(r#"{"a":[{"b":[1]}]}"#, 3).is_err());
        assert!(parse_with_limits(r#"{"a":[{"b":[1]}]}"#, 4).is_ok());
        // The default ceiling refuses a pathological document instead of
        // recursing toward a stack overflow.
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
        // Siblings do not accumulate depth.
        assert!(parse_with_limits("[[1],[2],[3]]", 2).is_ok());
    }

    #[test]
    fn frames_split_and_survive_defects() {
        let mut reader = FrameReader::new(64);
        // Two frames in one chunk, a CRLF line, a blank keep-alive.
        let mut input = std::io::Cursor::new(b"{\"a\":1}\n\r\n{\"b\":2}\r\n".to_vec());
        match reader.read_frame(&mut input) {
            FrameResult::Frame(s) => assert_eq!(s, "{\"a\":1}"),
            other => panic!("{other:?}"),
        }
        match reader.read_frame(&mut input) {
            FrameResult::Frame(s) => assert_eq!(s, "{\"b\":2}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            reader.read_frame(&mut input),
            FrameResult::Closed { mid_frame: false }
        ));

        // Oversized line in one read, then framing resumes on the next line.
        let mut reader = FrameReader::new(8);
        let mut input = std::io::Cursor::new(b"waaaaaaaaaay too long\nok\n".to_vec());
        assert!(matches!(
            reader.read_frame(&mut input),
            FrameResult::Oversized { limit: 8 }
        ));
        match reader.read_frame(&mut input) {
            FrameResult::Frame(s) => assert_eq!(s, "ok"),
            other => panic!("{other:?}"),
        }

        // Oversized line streamed in small chunks: bounded buffering, then
        // resync.
        let mut reader = FrameReader::new(8);
        let mut input = Trickle(b"0123456789abcdef0123\nnext\n".to_vec(), 0);
        assert!(matches!(
            reader.read_frame(&mut input),
            FrameResult::Oversized { .. }
        ));
        match reader.read_frame(&mut input) {
            FrameResult::Frame(s) => assert_eq!(s, "next"),
            other => panic!("{other:?}"),
        }

        // Non-UTF-8 is a per-frame defect.
        let mut reader = FrameReader::new(64);
        let mut input = std::io::Cursor::new(b"\xff\xfe\xfd\nstill here\n".to_vec());
        assert!(matches!(
            reader.read_frame(&mut input),
            FrameResult::InvalidUtf8
        ));
        match reader.read_frame(&mut input) {
            FrameResult::Frame(s) => assert_eq!(s, "still here"),
            other => panic!("{other:?}"),
        }

        // EOF mid-frame is distinguishable from a clean close.
        let mut reader = FrameReader::new(64);
        let mut input = std::io::Cursor::new(b"{\"half\":".to_vec());
        assert!(matches!(
            reader.read_frame(&mut input),
            FrameResult::Closed { mid_frame: true }
        ));
    }

    #[test]
    fn trickled_frame_just_under_the_cap_survives() {
        // A frame one byte under the cap, multi-byte scalars split across
        // 3-byte reads: it must come back byte-identical.
        let mut line = String::from("{\"source\":\"");
        for c in "é€😀 \\\\ \\\" x".chars().cycle() {
            if line.len() + c.len_utf8() + 2 > DEFAULT_MAX_FRAME_BYTES - 1 {
                break;
            }
            line.push(c);
        }
        while line.len() + 2 < DEFAULT_MAX_FRAME_BYTES - 1 {
            line.push('x');
        }
        line.push_str("\"}");
        assert_eq!(line.len(), DEFAULT_MAX_FRAME_BYTES - 1);
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut input = Trickle(format!("{line}\n").into_bytes(), 0);
        match reader.read_frame(&mut input) {
            FrameResult::Frame(s) => assert!(s == line, "frame changed in transit"),
            other => panic!("{other:?}"),
        }
        assert!(parse(&line).is_ok());
        assert!(matches!(
            reader.read_frame(&mut input),
            FrameResult::Closed { mid_frame: false }
        ));
    }

    #[test]
    fn write_frame_round_trips() {
        let json = Json::obj([("op", Json::Str("ping".into())), ("n", Json::Num(3.0))]);
        let mut wire = Vec::new();
        write_frame(&mut wire, &json).unwrap();
        assert!(wire.ends_with(b"\n"));
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let mut input = std::io::Cursor::new(wire);
        match reader.read_frame(&mut input) {
            FrameResult::Frame(s) => assert_eq!(parse(&s).unwrap(), json),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn values_round_trip_structurally() {
        for value in [
            Value::nat(3),
            Value::nat_list(&[1, 0, 2]),
            Value::tru(),
            Value::unit(),
            Value::pair(Value::nat(1), Value::nat_list(&[])),
        ] {
            let encoded = value_to_json(&value).unwrap();
            let text = encoded.render();
            let back = value_from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, value, "{text}");
        }
    }

    #[test]
    fn closures_do_not_serialize_and_bad_shapes_do_not_parse() {
        use crate::ast::Expr;
        use crate::value::{Closure, Env, Locals};
        use std::sync::Arc;
        let clo = Value::Closure(Arc::new(Closure {
            param: Symbol::new("x"),
            body: Arc::new(Expr::Local(0, Symbol::new("x"))),
            env: Env::empty(),
            rec_name: None,
            locals: Locals::empty(),
        }));
        assert_eq!(value_to_json(&clo), None);
        assert_eq!(value_to_json(&Value::pair(Value::nat(0), clo)), None);
        assert_eq!(value_from_json(&Json::Num(3.0)), None);
        assert_eq!(value_from_json(&Json::obj([("c", Json::Num(1.0))])), None);
        assert_eq!(
            value_from_json(&parse(r#"{"c":"S","a":[{"x":1}]}"#).unwrap()),
            None
        );
    }
}
