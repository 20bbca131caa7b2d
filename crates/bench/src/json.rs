//! Minimal JSON output for machine-readable bench results.
//!
//! No serde: the bench harness must stay offline-buildable, and all it
//! needs is deterministic serialization of headline numbers. Object keys
//! keep insertion order, numbers render via Rust's shortest-roundtrip
//! `f64` formatting, so the same results always produce the same bytes —
//! the determinism test compares these strings across worker counts.

use std::fmt;
use std::path::PathBuf;

/// A JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// An integer value (exact for |n| < 2^53).
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Appends a field (no-op on non-objects).
    pub fn push(&mut self, key: &str, value: Json) {
        if let Json::Obj(pairs) = self {
            pairs.push((key.to_string(), value));
        }
    }
}

/// Appends `s` JSON-escaped (quoted) to `out`. Unescaped stretches are
/// copied in bulk; only the writer's escape set (`"`, `\`, control chars)
/// goes through per-character handling.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xf) as usize] as char);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends a finite `f64` to `out` exactly as Rust's `{}` formatting
/// renders it. Integer values (the overwhelmingly common case — every
/// counter goes through [`Json::int`]) take a manual decimal fast path;
/// fractional values fall back to the standard shortest-roundtrip
/// formatter.
pub(crate) fn num_into(x: f64, out: &mut String) {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if x == x.trunc() && x.abs() < EXACT && !(x == 0.0 && x.is_sign_negative()) {
        let mut n = x as i64;
        if n < 0 {
            out.push('-');
            n = -n;
        }
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        let mut n = n as u64;
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
    } else {
        use fmt::Write as _;
        write!(out, "{x}").expect("writing to String cannot fail");
    }
}

impl Json {
    /// Serializes into `out`. This is the writer the artifact paths use:
    /// byte-for-byte the same output as `Display`, but appending to a
    /// `String` directly instead of going through the formatter machinery
    /// (which costs a virtual dispatch per token — measurable on
    /// multi-megabyte trace documents).
    pub fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) if x.is_finite() => num_into(*x, out),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_into(&mut out);
        f.write_str(&out)
    }
}

/// Directory bench results are written to:
/// `HAWKEYE_BENCH_RESULTS` override, else `CARGO_TARGET_DIR`, else the
/// workspace `target/`, each with a `bench-results/` subdirectory.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("HAWKEYE_BENCH_RESULTS") {
        return PathBuf::from(dir);
    }
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target.join("bench-results")
}

/// Writes `<dir>/<stem>.json` and returns the path. Errors are returned,
/// not panicked: a read-only checkout still gets its tables.
pub fn write_results_in(dir: &std::path::Path, stem: &str, json: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.json"));
    let mut doc = String::new();
    json.write_into(&mut doc);
    doc.push('\n');
    std::fs::write(&path, doc)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_nested_values() {
        let j = Json::obj(vec![
            ("name", Json::str("fig 1 \"bloat\"")),
            ("rows", Json::Arr(vec![Json::int(3), Json::num(1.5), Json::Bool(true), Json::Null])),
            ("nan", Json::Num(f64::NAN)),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"name":"fig 1 \"bloat\"","rows":[3,1.5,true,null],"nan":null}"#
        );
    }

    #[test]
    fn escapes_control_chars() {
        assert_eq!(Json::str("a\nb\t\u{1}").to_string(), "\"a\\nb\\t\\u0001\"");
    }

    #[test]
    fn push_extends_objects_only() {
        let mut j = Json::obj(vec![]);
        j.push("k", Json::int(1));
        assert_eq!(j.to_string(), r#"{"k":1}"#);
        let mut arr = Json::Arr(vec![]);
        arr.push("ignored", Json::Null);
        assert_eq!(arr.to_string(), "[]");
    }

    #[test]
    fn identical_values_serialize_identically() {
        let build = || Json::obj(vec![("x", Json::num(0.30000000000000004))]);
        assert_eq!(build().to_string(), build().to_string());
    }

    #[test]
    fn fast_number_path_matches_std_formatting() {
        // The integer fast path in `num_into` must render exactly what
        // `{}` on the f64 renders — including sign edge cases the fast
        // path declines (negative zero) and magnitudes past 2^53.
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            53253.0,
            2.3e9,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e300,
            -1.5,
            0.30000000000000004,
            1e-12,
            u64::MAX as f64,
        ] {
            let mut fast = String::new();
            num_into(x, &mut fast);
            assert_eq!(fast, format!("{x}"), "mismatch for {x:e}");
        }
    }

    #[test]
    fn write_into_matches_display() {
        let j = Json::obj(vec![
            ("s", Json::str("a\"b\\c\nd\u{1}é")),
            ("n", Json::Arr(vec![Json::int(7), Json::num(-2.5), Json::Num(f64::INFINITY)])),
            ("b", Json::Bool(false)),
            ("z", Json::Null),
        ]);
        let mut fast = String::new();
        j.write_into(&mut fast);
        assert_eq!(fast, j.to_string());
        assert_eq!(
            fast,
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001é\",\"n\":[7,-2.5,null],\"b\":false,\"z\":null}"
        );
    }
}
