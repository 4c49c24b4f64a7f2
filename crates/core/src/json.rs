//! The workspace's one JSON codec: run traces ([`crate::RunTrace`]) and the
//! `BENCH_sssp.json` baseline document are both read and written here.
//!
//! [`Json`] keeps object members in order and numbers as their source
//! lexemes: integers stay exact `u64`, and [`parse`] then [`Json::render`]
//! reproduces a rendered document byte for byte. [`parse`] accepts any
//! layout, bounds nesting depth (`MAX_DEPTH`), rejects `\u` escapes of UTF-16
//! surrogates (the writer never emits them), and returns `Err` on malformed
//! input, never panicking. Lookups take a dotted path
//! (`"scale_20.pooled.remote_msgs"`) and name it in their errors.

/// Deepest container nesting [`parse`] accepts.
const MAX_DEPTH: usize = 128;

/// Containers nested at least this deep render on one line.
const INLINE_DEPTH: usize = 2;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, stored as its validated lexeme.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep their order.
    Obj(Vec<(String, Json)>),
}

macro_rules! json_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
json_from_uint!(u8, u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl Json {
    /// An object with `members` in the given order.
    pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// `x` with exactly `decimals` fraction digits; `null` if not finite.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        match x.is_finite() {
            true => Json::Num(format!("{x:.decimals$}")),
            false => Json::Null,
        }
    }

    /// The member `key` of an object (`None` for a missing key or a
    /// non-object).
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value at a dotted object path such as `"pooled.remote_msgs"`.
    pub fn at(&self, path: &str) -> Result<&Json, String> {
        path.split('.')
            .try_fold(self, |v, key| v.get(key))
            .ok_or_else(|| format!("missing {path}"))
    }

    /// The value at `path`, or `None` when it is `null`.
    pub(crate) fn opt_at(&self, path: &str) -> Result<Option<&Json>, String> {
        Ok(Some(self.at(path)?).filter(|v| **v != Json::Null))
    }

    /// The unsigned integer at `path`, as any integer type it fits.
    pub fn uint_at<T: TryFrom<u64>>(&self, path: &str) -> Result<T, String> {
        let n: u64 = match self.at(path)? {
            Json::Num(n) => n.parse().map_err(|_| format!("{path}: {n} is not a u64"))?,
            _ => return Err(format!("{path}: expected a number")),
        };
        T::try_from(n).map_err(|_| format!("{path}: {n} is out of range"))
    }

    /// The number at `path`.
    pub fn f64_at(&self, path: &str) -> Result<f64, String> {
        match self.at(path)? {
            // A validated lexeme always parses; the fallback is unreachable.
            Json::Num(n) => n.parse().map_err(|_| format!("{path}: bad number {n}")),
            _ => Err(format!("{path}: expected a number")),
        }
    }

    /// The string at `path`.
    pub fn str_at(&self, path: &str) -> Result<&str, String> {
        match self.at(path)? {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{path}: expected a string")),
        }
    }

    /// The array at `path`.
    pub(crate) fn array_at(&self, path: &str) -> Result<&[Json], String> {
        match self.at(path)? {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("{path}: expected an array")),
        }
    }

    /// Render in the fixed layout, with a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render on one line.
    fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, INLINE_DEPTH);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (brackets, entries): (&str, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ("[]", items.iter().map(|v| (None, v)).collect()),
            Json::Obj(members) => ("{}", members.iter().map(|(k, v)| (Some(&**k), v)).collect()),
        };
        // Text before the first entry, between entries, and before the close.
        let indent = |d: usize| format!("\n{}", "  ".repeat(d));
        let inner = indent(depth + 1);
        let (lead, sep, end) = match depth >= INLINE_DEPTH {
            true => (String::new(), ", ".to_string(), String::new()),
            false => (inner.clone(), format!(",{inner}"), indent(depth)),
        };
        let (open, close) = brackets.split_at(1);
        out.push_str(open);
        for (i, (key, value)) in entries.iter().enumerate() {
            out.push_str(if i == 0 { &lead } else { &sep });
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !entries.is_empty() {
            out.push_str(&end);
        }
        out.push_str(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append one line per difference between `a` and `b` to `out`, each
/// named by its path below `path` (`buckets[3].settled: 10 vs 11`).
/// Objects with the same keys and arrays of the same length are compared
/// member by member; anything else is reported whole, an object on one
/// side only as `<path> presence: true vs false`.
pub(crate) fn diff(path: &str, a: &Json, b: &Json, out: &mut Vec<String>) {
    let dot = if path.is_empty() { "" } else { "." };
    match (a, b) {
        (Json::Obj(x), Json::Obj(y)) if x.iter().map(|m| &m.0).eq(y.iter().map(|m| &m.0)) => {
            for ((key, va), (_, vb)) in x.iter().zip(y) {
                diff(&format!("{path}{dot}{key}"), va, vb, out);
            }
        }
        (Json::Arr(x), Json::Arr(y)) if x.len() == y.len() => {
            for (i, (va, vb)) in x.iter().zip(y).enumerate() {
                diff(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        (Json::Arr(x), Json::Arr(y)) => out.push(format!("{path}.len: {} vs {}", x.len(), y.len())),
        (Json::Obj(_), Json::Null) | (Json::Null, Json::Obj(_)) => {
            let present = |v: &Json| *v != Json::Null;
            out.push(format!("{path} presence: {} vs {}", present(a), present(b)));
        }
        _ if a != b => out.push(format!("{path}: {} vs {}", a.compact(), b.compact())),
        _ => {}
    }
}

/// Parse one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, rest: text };
    let value = p.value(0)?;
    match p.skip_ws().is_empty() {
        true => Ok(value),
        false => Err(p.err("trailing characters after the document")),
    }
}

struct Parser<'a> {
    text: &'a str,
    /// The unparsed tail of `text`.
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.text.len() - self.rest.len())
    }

    /// Skip whitespace and return what is left.
    fn skip_ws(&mut self) -> &'a str {
        self.rest = self.rest.trim_start_matches([' ', '\t', '\n', '\r']);
        self.rest
    }

    /// Consume `token`, after whitespace, if it comes next.
    fn eat(&mut self, token: &str) -> bool {
        let after = self.skip_ws().strip_prefix(token);
        self.rest = after.unwrap_or(self.rest);
        after.is_some()
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        let rest = self.skip_ws();
        if rest.starts_with(['[', '{']) && depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        if self.eat("[") {
            return self.seq("]", |p| p.value(depth + 1)).map(Json::Arr);
        }
        if self.eat("{") {
            let members = self.seq("}", |p| {
                let key = p.string()?;
                match p.eat(":") {
                    true => Ok((key, p.value(depth + 1)?)),
                    false => Err(p.err("expected ':'")),
                }
            })?;
            return Ok(Json::Obj(members));
        }
        if rest.starts_with('"') {
            return self.string().map(Json::Str);
        }
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if self.eat(word) {
                return Ok(v);
            }
        }
        let end = rest.find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'));
        let (lexeme, tail) = rest.split_at(end.unwrap_or(rest.len()));
        if !valid_number(lexeme) {
            return Err(self.err("expected a value"));
        }
        self.rest = tail;
        Ok(Json::Num(lexeme.to_string()))
    }

    /// The comma-separated items up to `close` (the opener is consumed).
    fn seq<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(",") {
                return Err(self.err(&format!("expected ',' or '{close}'")));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        let mut chars = self.rest.chars();
        loop {
            match chars.next() {
                Some('"') => break,
                Some('\\') => out.push(unescape(&mut chars).ok_or_else(|| self.err("bad escape"))?),
                Some(c) if c >= ' ' => out.push(c),
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
        self.rest = chars.as_str();
        Ok(out)
    }
}

/// Whether `n` is a JSON number: `-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn valid_number(n: &str) -> bool {
    let digits = |d: &str| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit());
    let n = n.strip_prefix('-').unwrap_or(n);
    let (mantissa, exp) = n.split_once(['e', 'E']).unwrap_or((n, "0"));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
    let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
    digits(int) && (int == "0" || !int.starts_with('0')) && digits(frac) && digits(exp)
}

/// The character an escape stands for (`chars` is just past the `\`).
fn unescape(chars: &mut std::str::Chars) -> Option<char> {
    Some(match chars.next()? {
        '"' => '"',
        '\\' => '\\',
        '/' => '/',
        'b' => '\u{8}',
        'f' => '\u{c}',
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        'u' => {
            let hex = chars.as_str().get(..4)?;
            *chars = chars.as_str().get(4..)?.chars();
            if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                return None;
            }
            // Surrogates are not `char`s, so `from_u32` rejects them.
            char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_roundtrip_through_render() {
        let doc = Json::object([
            ("n", 18446744073709551615u64.into()),
            ("x", Json::fixed(0.5, 3)),
            ("s", "tab\tquote\"slash\\ctl\u{1}é".into()),
            ("none", Json::Null),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
            ("empty", Json::Arr(Vec::new())),
            (
                "nested",
                Json::object([("inner", Json::object([("k", 1u64.into())]))]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text), Ok(doc.clone()));
        assert_eq!(parse(&text).map(|v| v.render()), Ok(text));
        assert_eq!(doc.uint_at::<u64>("n"), Ok(u64::MAX));
        assert_eq!(doc.f64_at("x"), Ok(0.5));
        assert_eq!(doc.uint_at::<u64>("nested.inner.k"), Ok(1));
        assert_eq!(doc.opt_at("none"), Ok(None));
    }

    #[test]
    fn layout_breaks_the_top_two_levels_only() {
        let doc = Json::object([(
            "block",
            Json::object([
                ("a", 1u64.into()),
                ("rec", Json::object([("b", 2u64.into())])),
            ]),
        )]);
        assert_eq!(
            doc.render(),
            "{\n  \"block\": {\n    \"a\": 1,\n    \"rec\": {\"b\": 2}\n  }\n}\n"
        );
    }

    #[test]
    fn numbers_keep_their_lexeme_and_u64_is_exact() {
        let v = parse(r#"{"a": 1.50, "b": -0, "c": 2e-3, "big": 18446744073709551616}"#)
            .expect("valid document");
        assert_eq!(v.at("a"), Ok(&Json::Num("1.50".to_string())));
        assert_eq!(v.f64_at("c"), Ok(0.002));
        assert!(v.uint_at::<u64>("a").is_err());
        assert!(v.uint_at::<u64>("b").is_err());
        let err = v.uint_at::<u64>("big").expect_err("above u64::MAX");
        assert!(err.starts_with("big: "), "{err}");
    }

    #[test]
    fn lookups_name_the_missing_or_mistyped_path() {
        let v = parse(r#"{"a": {"b": "x"}, "c": [1]}"#).expect("valid document");
        assert_eq!(v.uint_at::<u64>("a.z"), Err("missing a.z".to_string()));
        assert_eq!(v.uint_at::<u64>("c.b"), Err("missing c.b".to_string()));
        assert_eq!(
            v.uint_at::<u64>("a.b"),
            Err("a.b: expected a number".to_string())
        );
        assert!(v.str_at("c").is_err());
        assert_eq!(v.array_at("c").map(<[Json]>::len), Ok(1));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "01",
            "1.",
            "-",
            "1e",
            ".5",
            "\"open",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\u12g4\"",
            "nul",
            "tru",
            "{} {}",
            "\"ctl\u{1}\"",
            "[\"\\u+123\"]",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(parse(r#""\u00e9""#), Ok(Json::Str("é".to_string())));
    }

    #[test]
    fn nesting_is_bounded() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn non_finite_fixed_numbers_render_null() {
        assert_eq!(Json::fixed(f64::NAN, 3), Json::Null);
        assert_eq!(Json::fixed(2.0, 3), Json::Num("2.000".to_string()));
    }
}
