//! A minimal recursive-descent JSON parser (RFC 8259 subset: no
//! duplicate-key policy beyond last-wins, recursion depth capped).
//!
//! Everything is built on one pull [`Reader`]: [`parse`] drives it to
//! build a [`Json`] tree, while large documents (checkpoints) walk it
//! key by key and decode numeric arrays straight into vectors, so they
//! never materialize a tree. Both paths share one tokenizer — strings,
//! escapes, numbers, literals, whitespace and the depth cap — so they
//! accept and reject exactly the same texts, with the same errors.

use crate::{Json, Map};

/// Maximum nesting depth before the parser bails (guards the stack).
const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (trailing garbage is an error).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut r = Reader::new(text);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

/// The kind of the next value, as [`Reader::peek`] reports it (from its
/// first byte; the value itself is not validated until it is consumed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    Str,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A pull reader over one JSON document.
///
/// Containers are walked with [`Reader::begin_object`] + [`Reader::next_key`]
/// and [`Reader::begin_array`] + [`Reader::next_element`]; every other
/// value is consumed with [`Reader::value`] (as a small tree),
/// [`Reader::skip`], or [`Reader::number_array`] / [`Reader::f32_array`]
/// (straight into a vector). [`Reader::finish`] rejects trailing bytes.
///
/// The reader tracks nesting itself, so the depth cap and every syntax
/// error match [`parse`] exactly. Calling `next_key` or `next_element`
/// with no container open panics; calling one inside the other kind of
/// container is a caller bug that surfaces as a parse error.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the position.
    depth: usize,
    /// The innermost container was just opened and has no member yet
    /// (any container the reader returns to already has one).
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned before the document's top-level value.
    pub fn new(text: &'a str) -> Self {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Kind of the next value, without consuming it. Errors at end of
    /// input, on a byte that starts no value, and past the depth cap.
    #[inline]
    pub fn peek(&mut self) -> Result<Next, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => Ok(Next::Null),
            Some(b't' | b'f') => Ok(Next::Bool),
            Some(b'"') => Ok(Next::Str),
            Some(b'[') => Ok(Next::Array),
            Some(b'{') => Ok(Next::Object),
            Some(c) if *c == b'-' || c.is_ascii_digit() => Ok(Next::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Consumes the next value as a [`Json`] tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek()? {
            Next::Null => self.literal("null", Json::Null),
            Next::Bool if self.bytes[self.pos] == b't' => self.literal("true", Json::Bool(true)),
            Next::Bool => self.literal("false", Json::Bool(false)),
            Next::Str => self.string().map(Json::Str),
            Next::Number => self.number(),
            Next::Array => {
                self.open_container();
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Json::Array(items))
            }
            Next::Object => {
                self.open_container();
                let mut map = Map::new();
                while let Some(key) = self.next_key()? {
                    let val = self.value()?;
                    map.insert(key, val);
                }
                Ok(Json::Object(map))
            }
        }
    }

    /// Consumes the next value, validating it, without building anything.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Next::Array => {
                self.open_container();
                while self.next_element()? {
                    self.skip()?;
                }
                Ok(())
            }
            Next::Object => {
                self.open_container();
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            Next::Str => self.string().map(drop),
            Next::Number => self.number().map(drop),
            Next::Null | Next::Bool => self.value().map(drop),
        }
    }

    /// Opens the object the next value must be.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.begin(b'{')
    }

    /// The next key of the innermost open object, positioned before its
    /// value — or `None` once the object's closing brace is consumed.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<String>, JsonError> {
        if !self.more(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Opens the array the next value must be.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.begin(b'[')
    }

    /// True when another element of the innermost open array follows
    /// (the caller must consume it); false once the closing bracket is
    /// consumed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.more(b']', "expected ',' or ']' in array")
    }

    /// Consumes the next value and, if it is an array whose every element
    /// is a number that `f` accepts, returns the converted elements —
    /// with no tree built. `None` (the value still fully consumed and
    /// validated) for anything else. `f` sees each number as
    /// [`Json::Int`] or [`Json::Float`], exactly as [`parse`] types it.
    pub fn number_array<T>(
        &mut self,
        mut f: impl FnMut(&Json) -> Option<T>,
    ) -> Result<Option<Vec<T>>, JsonError> {
        if self.peek()? != Next::Array {
            self.skip()?;
            return Ok(None);
        }
        self.begin_array()?;
        let mut out = Some(Vec::new());
        while self.next_element()? {
            let item = match self.peek()? {
                Next::Number => f(&self.number()?),
                _ => {
                    self.skip()?;
                    None
                }
            };
            match (&mut out, item) {
                (Some(v), Some(x)) => v.push(x),
                _ => out = None,
            }
        }
        Ok(out)
    }

    /// [`Reader::number_array`] into `f32`s, converting as
    /// `as_f64() as f32` does (integer tokens included).
    pub fn f32_array(&mut self) -> Result<Option<Vec<f32>>, JsonError> {
        self.number_array(|n| n.as_f64().map(|x| x as f32))
    }

    /// Ends the document: only whitespace may follow the top-level value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    // -- shared tokenizer ---------------------------------------------------

    fn begin(&mut self, open: u8) -> Result<(), JsonError> {
        self.peek()?;
        self.expect(open)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Consumes the `[` or `{` that [`Reader::peek`] just reported.
    fn open_container(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
    }

    /// Advances past the separator before the innermost container's next
    /// member: true if a member follows, false (container closed) at
    /// `close`.
    #[inline]
    fn more(&mut self, close: u8, msg: &str) -> Result<bool, JsonError> {
        assert!(self.depth > 0, "no open container");
        let fresh = std::mem::replace(&mut self.fresh, false);
        self.skip_ws();
        match self.peek_byte() {
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                return Ok(false);
            }
            Some(b',') if !fresh => self.pos += 1,
            _ if !fresh => return Err(self.err(msg)),
            _ => {}
        }
        self.skip_ws();
        Ok(true)
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    #[inline]
    fn peek_byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek_byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek_byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek_byte() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek_byte().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: require \uXXXX low half
                                if self.peek_byte() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("raw control character in string"));
                }
                Some(_) => {
                    // copy one UTF-8 scalar (input is &str, so it's valid)
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii in \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek_byte() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'+' | b'-' if is_float => self.pos += 1,
                _ => break,
            }
        }
        // SAFETY: the loop above advanced only over ASCII bytes.
        let text = unsafe { std::str::from_utf8_unchecked(&self.bytes[start..self.pos]) };
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            message: format!("invalid number '{text}'"),
            offset: start,
        })
    }
}
