//! Serialization: compact and pretty writers, generic over
//! [`fmt::Write`] so `Display` streams straight into its formatter.

use std::fmt::{self, Write};

use crate::Json;

/// Appends the escaped, quoted form of `s`.
pub(crate) fn escape_into<W: Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{8}' => out.write_str("\\b")?,
            '\u{c}' => out.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// A number token. Rust's `Display` for `f64` is shortest-round-trip and
/// never uses exponent notation, so the output is always valid JSON;
/// non-finite values become `null` (as `serde_json` does). The digits are
/// formatted into a stack buffer, so writing a number allocates nothing.
pub(crate) fn number_into<W: Write>(f: f64, out: &mut W) -> fmt::Result {
    if !f.is_finite() {
        return out.write_str("null");
    }
    let mut buf = NumBuf::default();
    write!(buf, "{f}")?;
    let s = buf.as_str();
    out.write_str(s)?;
    // keep floats recognizably floats ("2" -> "2.0")
    if !s.bytes().any(|c| matches!(c, b'.' | b'e' | b'E')) {
        out.write_str(".0")?;
    }
    Ok(())
}

/// Room for the longest finite `f64` in `Display` form: a sign, then
/// either at most 309 integer digits or "0." and at most 324 fraction
/// digits (the last one no finer than the smallest subnormal).
const NUM_BUF: usize = 352;

/// A fixed-capacity stack buffer [`number_into`] formats into.
struct NumBuf {
    bytes: [u8; NUM_BUF],
    len: usize,
}

impl Default for NumBuf {
    fn default() -> Self {
        NumBuf {
            bytes: [0; NUM_BUF],
            len: 0,
        }
    }
}

impl NumBuf {
    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("Display writes UTF-8")
    }
}

impl Write for NumBuf {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        let slot = self.bytes.get_mut(self.len..end).ok_or(fmt::Error)?;
        slot.copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

pub(crate) fn compact<W: Write>(v: &Json, out: &mut W) -> fmt::Result {
    match v {
        Json::Null => out.write_str("null"),
        Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
        Json::Int(i) => write!(out, "{i}"),
        Json::Float(f) => number_into(*f, out),
        Json::Str(s) => escape_into(s, out),
        Json::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                compact(item, out)?;
            }
            out.write_char(']')
        }
        Json::Object(map) => {
            out.write_char('{')?;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                escape_into(k, out)?;
                out.write_char(':')?;
                compact(val, out)?;
            }
            out.write_char('}')
        }
    }
}

fn indent<W: Write>(level: usize, out: &mut W) -> fmt::Result {
    for _ in 0..level {
        out.write_str("  ")?;
    }
    Ok(())
}

pub(crate) fn pretty<W: Write>(v: &Json, level: usize, out: &mut W) -> fmt::Result {
    match v {
        Json::Array(items) if !items.is_empty() => {
            out.write_str("[\n")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_str(",\n")?;
                }
                indent(level + 1, out)?;
                pretty(item, level + 1, out)?;
            }
            out.write_char('\n')?;
            indent(level, out)?;
            out.write_char(']')
        }
        Json::Object(map) if !map.is_empty() => {
            out.write_str("{\n")?;
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.write_str(",\n")?;
                }
                indent(level + 1, out)?;
                escape_into(k, out)?;
                out.write_str(": ")?;
                pretty(val, level + 1, out)?;
            }
            out.write_char('\n')?;
            indent(level, out)?;
            out.write_char('}')
        }
        other => compact(other, out),
    }
}
