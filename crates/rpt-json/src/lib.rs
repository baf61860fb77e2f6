//! # rpt-json
//!
//! In-tree JSON: a [`Json`] value type, a compact/pretty writer, a
//! recursive-descent parser with a pull [`Reader`] underneath (for
//! documents too large to hold as a tree), and a [`json!`] literal macro. Replaces
//! `serde`/`serde_json` so the workspace builds with zero external
//! crates (checkpoints, vocab save/load, and the `bench_results/*.json`
//! artifact emitters all go through here).
//!
//! Numbers are kept as either `i64` or `f64`. Floats are written with
//! Rust's shortest round-trip `Display`, so `f64 → text → f64` is
//! bit-exact, and `f32 → f64 → text → f64 → f32` is likewise exact
//! (the f64 detour is lossless for every f32).

mod macros;
mod parse;
mod write;

pub use parse::{parse, JsonError, Next, Reader};

/// Appends `f` as a JSON number token, byte-identical to how a
/// [`Json::Float`] holding it is written (`null` if non-finite). For
/// streaming writers that emit large documents without a tree.
pub fn push_number(out: &mut String, f: f64) {
    write::number_into(f, out).expect("writing to a String cannot fail");
}

/// Appends `s` quoted and escaped, byte-identical to how a [`Json::Str`]
/// holding it is written.
pub fn push_string(out: &mut String, s: &str) {
    write::escape_into(s, out).expect("writing to a String cannot fail");
}

/// An insertion-ordered string → [`Json`] map (what JSON objects hold).
///
/// Backed by a `Vec` of pairs: artifact objects are small and write-once,
/// and preserving insertion order keeps emitted files diffable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Json)>,
}

impl Map {
    /// An empty map.
    pub fn new() -> Map {
        Map::default()
    }

    /// Inserts `key` → `value`, replacing (in place) any existing entry.
    pub fn insert(&mut self, key: String, value: Json) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl From<Vec<(String, Json)>> for Map {
    fn from(entries: Vec<(String, Json)>) -> Map {
        let mut m = Map::new();
        for (k, v) in entries {
            m.insert(k, v);
        }
        m
    }
}

impl FromIterator<(String, Json)> for Map {
    fn from_iter<I: IntoIterator<Item = (String, Json)>>(iter: I) -> Map {
        let mut m = Map::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent in its source form.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (insertion-ordered).
    Object(Map),
}

impl Json {
    /// Parses JSON text (strict: rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        parse(text)
    }

    /// Pretty serialization (2-space indent, like `serde_json`). The
    /// compact form is the [`std::fmt::Display`] impl (`to_string()`).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        write::pretty(self, 0, &mut out).expect("writing to a String cannot fail");
        out
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view: ints widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view (floats do not truncate; only `Int` qualifies).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Non-negative integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The map, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Member lookup on objects (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// True for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Compact serialization: `json.to_string()` is the wire form.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write::compact(self, f)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<&String> for Json {
    fn from(s: &String) -> Json {
        Json::Str(s.clone())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Array(v)
    }
}

impl From<Map> for Json {
    fn from(m: Map) -> Json {
        Json::Object(m)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(o: Option<T>) -> Json {
        match o {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(i: $t) -> Json {
                Json::Int(i as i64)
            }
        }
    )*};
}
from_int!(i8, i16, i32, i64, u8, u16, u32, usize, isize);

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        i64::try_from(i)
            .map(Json::Int)
            .unwrap_or(Json::Float(i as f64))
    }
}

impl From<f32> for Json {
    fn from(f: f32) -> Json {
        Json::Float(f as f64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

// `json!` array literals expand to `Vec::new()` + pushes; clippy flags
// that only inside the crate defining the macro.
#[cfg(test)]
#[allow(clippy::vec_init_then_push)]
mod tests {
    use super::*;

    #[test]
    fn scalars_write_like_serde_json() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-42).to_string(), "-42");
        assert_eq!(Json::Float(0.25).to_string(), "0.25");
        assert_eq!(Json::Str("a\"b\\c\n".into()).to_string(), r#""a\"b\\c\n""#);
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
    }

    #[test]
    fn float_display_round_trips_exactly() {
        for &x in &[0.1f64, 1.0 / 3.0, 1e300, 5e-324, -2.5, 123456.789] {
            let j = Json::Float(x).to_string();
            let back = Json::parse(&j).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {j} -> {back}");
        }
        // f32 round-trips through the f64 detour
        for &x in &[0.1f32, 1.0e-40, 3.4e38, -7.25, 1.0 / 3.0] {
            let j = Json::Float(x as f64).to_string();
            let back = Json::parse(&j).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {j} -> {back}");
        }
    }

    #[test]
    fn parse_accepts_standard_documents() {
        let doc = r#" {"a": [1, 2.5, -3e2, true, null], "b": {"nested": "x"}, "s": "A😀 \t"} "#;
        let v = Json::parse(doc).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0], Json::Int(1));
        assert_eq!(a[1], Json::Float(2.5));
        assert_eq!(a[2], Json::Float(-300.0));
        assert_eq!(a[3], Json::Bool(true));
        assert!(a[4].is_null());
        assert_eq!(v.get("b").unwrap().get("nested").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("s").unwrap().as_str(), Some("A\u{1F600} \t"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "not json", "{", "[1,", "{\"a\":}", "1 2", "\"unterminated", "nul"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = json!({
            "name": "bench",
            "rows": [ {"f1": 0.73, "n": 40}, {"f1": 0.55, "n": 40} ],
            "ok": true,
            "missing": null,
        });
        for text in [v.to_string(), v.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn json_macro_covers_expressions_and_nesting() {
        let f1 = 0.7312f64;
        let name = String::from("abt-buy");
        let maybe: Option<f64> = None;
        let rows = vec![json!({"k": 1usize}), json!({"k": 2usize})];
        let v = json!({
            "target": name,
            "f1": f1,
            "nested": {"exact": 1 + 1, "list": [0.72, 0.53]},
            "numeric": if f1.is_nan() { None } else { Some(f1) },
            "skipped": maybe,
            "rows": rows,
        });
        assert_eq!(v.get("target").unwrap().as_str(), Some("abt-buy"));
        assert_eq!(v.get("nested").unwrap().get("exact").unwrap(), &Json::Int(2));
        assert_eq!(
            v.get("nested").unwrap().get("list").unwrap().as_array().unwrap()[1],
            Json::Float(0.53)
        );
        assert_eq!(v.get("numeric").unwrap().as_f64(), Some(f1));
        assert!(v.get("skipped").unwrap().is_null());
        assert_eq!(v.get("rows").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut m = Map::new();
        m.insert("a".into(), Json::Int(1));
        m.insert("b".into(), Json::Int(2));
        m.insert("a".into(), Json::Int(3));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a"), Some(&Json::Int(3)));
        let order: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(order, ["a", "b"]);
    }

    #[test]
    fn serde_json_style_documents_parse() {
        // exactly what serde_json::to_string used to emit for a checkpoint
        let old = r#"{"format_version":1,"params":[{"name":"w","shape":[2],"data":[1.5,-2.5]}]}"#;
        let v = Json::parse(old).unwrap();
        assert_eq!(v.get("format_version").unwrap().as_u64(), Some(1));
        let p = &v.get("params").unwrap().as_array().unwrap()[0];
        assert_eq!(p.get("name").unwrap().as_str(), Some("w"));
        assert_eq!(p.get("data").unwrap().as_array().unwrap()[1].as_f64(), Some(-2.5));
        // ryu-style exponents from serde_json float output
        assert_eq!(Json::parse("1e-45").unwrap().as_f64(), Some(1e-45));
        assert_eq!(Json::parse("3.4028235e38").unwrap().as_f64(), Some(3.4028235e38));
    }

    #[test]
    fn number_writer_matches_display_at_the_extremes() {
        // the stack buffer must hold the longest Display forms
        let vals = [
            f64::MAX,
            -f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            1.401298464324817e-45,
            0.1,
            -0.0,
            1e21,
            123456789.0,
        ];
        for x in vals {
            let mut want = format!("{x}");
            if !want.contains('.') {
                want.push_str(".0");
            }
            let mut got = String::new();
            push_number(&mut got, x);
            assert_eq!(got, want);
            assert_eq!(Json::Float(x).to_string(), want);
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut got = String::new();
            push_number(&mut got, x);
            assert_eq!(got, "null");
        }
        let mut s = String::new();
        push_string(&mut s, "a\"\u{1}");
        assert_eq!(s, Json::from("a\"\u{1}").to_string());
    }

    #[test]
    fn reader_walks_a_document_without_a_tree() {
        let doc = r#" {"n": 3, "xs": [1, 2.5, -3e2], "bad": [1, "x", [2]], "obj": {"a": [[]]}, "s": "q"} "#;
        let mut r = Reader::new(doc);
        r.begin_object().unwrap();
        let mut seen = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            match key.as_str() {
                "n" => assert_eq!(r.value().unwrap(), Json::Int(3)),
                "xs" => assert_eq!(r.f32_array().unwrap(), Some(vec![1.0, 2.5, -300.0])),
                "bad" => assert_eq!(r.f32_array().unwrap(), None),
                "s" => {
                    assert_eq!(r.peek().unwrap(), Next::Str);
                    assert_eq!(r.f32_array().unwrap(), None);
                }
                _ => r.skip().unwrap(),
            }
            seen.push(key);
        }
        assert_eq!(seen, ["n", "xs", "bad", "obj", "s"]);
        r.finish().unwrap();
        let ints = Reader::new("[1, -128, 300]")
            .number_array(|n| n.as_i64().and_then(|i| i8::try_from(i).ok()))
            .unwrap();
        assert_eq!(ints, None);
    }

    #[test]
    fn skip_and_parse_agree_on_every_input() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let mut docs: Vec<String> = [
            "",
            " ",
            "null",
            "nul",
            "true",
            "[1,]",
            "[,1]",
            "{,}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "{\"a\":1 \"b\":2}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "-",
            "1e",
            "01",
            "[1, {\"k\": [true, false, null]}]",
            "{\"a\":1}}",
            "  [ ]  ",
            "{}",
            "1 2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        docs.extend([deep(128), deep(129), deep(130), deep(200)]);
        docs.push("[".repeat(129) + "1" + &"]".repeat(129));
        for doc in &docs {
            let tree = parse(doc);
            let mut r = Reader::new(doc);
            let skipped = r.skip().and_then(|()| r.finish());
            match (&tree, &skipped) {
                (Ok(_), Ok(())) => {}
                (Err(a), Err(b)) => assert_eq!(a, b, "{doc:?}"),
                _ => panic!("{doc:?}: parse {tree:?} vs skip {skipped:?}"),
            }
        }
        assert!(parse(&deep(129)).is_ok());
        assert!(parse(&deep(130)).is_err());
    }
}
