//! The `BENCH_*.json` format, and the bench-trajectory comparison of
//! fresh reports against committed baselines.
//!
//! The report binaries build their measurements as [`Json`] values and
//! write them through its `Display` serializer; `bench/baseline/`
//! holds committed copies from a known-good run. Writer and reader
//! live side by side here, so emitter and gate share one format by
//! construction. [`compare`] flattens both documents to
//! `path -> value` pairs and gates the **cycle-domain** metrics —
//! numeric keys containing `cycles` (deterministic simulator outputs,
//! machine-independent) and booleans the baseline holds `true`
//! (bit-identity, DAG-order and determinism flags). A gated cycle
//! number must equal its baseline exactly — a change either way fails
//! until the baseline is refreshed on purpose — and a gated boolean may
//! never flip to `false`. The host-memory numbers of
//! the `process` block (peak RSS, minor page faults) vary a little with
//! the host and thread count, so they may grow at most
//! [`PROCESS_TOLERANCE`] (50 %): loose enough for that noise, tight
//! enough that a store zero-filling gigabytes cannot land. Everything
//! wall-clock — `*_wall_s`, `*_speedup`, latency seconds — varies with
//! the host and stays informational.
//!
//! The parser is a minimal recursive-descent JSON reader (the repo
//! builds offline; no serde) that reads everything the serializer
//! writes.

use std::fmt::{self, Write as _};

/// Fractional growth a `process.*` host-memory metric may show over its
/// baseline before `bench-diff` fails (0.5 = +50 %).
pub const PROCESS_TOLERANCE: f64 = 0.5;

/// A JSON value: what the report binaries build and [`parse`] returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as `f64` (integers are exact up to 2^53).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Self {
                Json::Num(x as f64)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

/// Pretty-prints the value: 2-space indent, one member or element per
/// line, escaped strings, and `null` for a NaN or infinite number.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Json {
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // `Display` for a finite f64 is the shortest decimal that
            // parses back to the same value, and never uses exponents.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => write_block(f, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => write_block(
                f,
                indent,
                "{}",
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes an array (every key `None`) or an object, one entry per
/// line at `indent + 2`, closed at `indent`.
fn write_block<'a>(
    f: &mut fmt::Formatter<'_>,
    indent: usize,
    brackets: &str,
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    let (open, close) = brackets.split_at(1);
    if entries.len() == 0 {
        return f.write_str(brackets);
    }
    let last = entries.len() - 1;
    writeln!(f, "{open}")?;
    for (i, (key, v)) in entries.enumerate() {
        write!(f, "{:1$}", "", indent + 2)?;
        if let Some(k) = key {
            write_escaped(f, k)?;
            f.write_str(": ")?;
        }
        v.write(f, indent + 2)?;
        f.write_str(if i < last { ",\n" } else { "\n" })?;
    }
    write!(f, "{:1$}{close}", "", indent)
}

/// Writes `s` as a JSON string literal.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            '\r' => f.write_str("\\r")?,
            c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        // Raw bytes, so multi-byte UTF-8 passes through intact.
        let mut s = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(s).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = match self.bytes.get(self.pos + 1) {
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        Some(&c @ (b'"' | b'\\' | b'/')) => char::from(c),
                        Some(b'u') => {
                            let c = self
                                .bytes
                                .get(self.pos + 2..self.pos + 6)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            c
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    };
                    s.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                    self.pos += 2;
                }
                Some(&c) => {
                    s.push(c);
                    self.pos += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// A human-readable message with the byte offset of the first syntax
/// error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Flattens a document to `("runs[0].makespan_cycles", value)` pairs,
/// scalars only.
#[must_use]
pub fn flatten(v: &Json) -> Vec<(String, Json)> {
    fn walk(prefix: &str, v: &Json, out: &mut Vec<(String, Json)>) {
        match v {
            Json::Obj(fields) => {
                for (k, v) in fields {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    walk(&path, v, out);
                }
            }
            Json::Arr(items) => {
                for (i, v) in items.iter().enumerate() {
                    walk(&format!("{prefix}[{i}]"), v, out);
                }
            }
            scalar => out.push((prefix.to_string(), scalar.clone())),
        }
    }
    let mut out = Vec::new();
    walk("", v, &mut out);
    out
}

/// The gates a flattened numeric path can fall under.
#[derive(Clone, Copy, PartialEq)]
enum NumberGate {
    /// A key containing `cycles`: must equal the baseline.
    Cycles,
    /// A member of the `process` block: [`PROCESS_TOLERANCE`].
    Process,
}

impl NumberGate {
    /// The gate of `path`, or `None` for an informational number.
    fn of(path: &str) -> Option<Self> {
        if path.starts_with("process.") {
            Some(Self::Process)
        } else if path
            .rsplit('.')
            .next()
            .is_some_and(|k| k.contains("cycles"))
        {
            Some(Self::Cycles)
        } else {
            None
        }
    }
}

/// One comparison failure.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Flattened metric path.
    pub path: String,
    /// What went wrong, with both values.
    pub detail: String,
}

/// Outcome of comparing one fresh report against its baseline.
#[derive(Debug, Clone, Default)]
pub struct DiffOutcome {
    /// Cycle-domain numbers checked.
    pub gated_numbers: usize,
    /// `process.*` host-memory numbers checked.
    pub gated_process: usize,
    /// Baseline-true booleans checked.
    pub gated_bools: usize,
    /// Metrics that changed or regressed past tolerance (fail CI).
    pub regressions: Vec<Regression>,
}

/// Compares a fresh report against its committed baseline.
///
/// Gated: numeric keys containing `cycles` must equal the baseline
/// exactly (they are deterministic, so any change, faster or slower, is
/// a behaviour change to refresh deliberately), and numbers under
/// `process` may grow at most [`PROCESS_TOLERANCE`]; booleans the
/// baseline holds `true` must stay
/// `true`; a gated baseline metric missing from the fresh report is a
/// failure (schema changes require a baseline refresh). Everything
/// else — wall-clock seconds, speedups, counts — is informational.
/// Keys only the fresh report has are ignored.
///
/// # Errors
///
/// The baseline or fresh document fails to parse.
pub fn compare(baseline: &str, fresh: &str) -> Result<DiffOutcome, String> {
    let base = flatten(&parse(baseline).map_err(|e| format!("baseline: {e}"))?);
    let fresh: std::collections::HashMap<String, Json> =
        flatten(&parse(fresh).map_err(|e| format!("fresh: {e}"))?)
            .into_iter()
            .collect();
    let mut out = DiffOutcome::default();
    for (path, bv) in base {
        match bv {
            Json::Num(b) => {
                let Some(gate) = NumberGate::of(&path) else {
                    continue;
                };
                let unit = match gate {
                    NumberGate::Cycles => {
                        out.gated_numbers += 1;
                        " cycles"
                    }
                    NumberGate::Process => {
                        out.gated_process += 1;
                        ""
                    }
                };
                match fresh.get(&path) {
                    Some(&Json::Num(f)) => {
                        let detail = match gate {
                            NumberGate::Cycles if f != b => {
                                Some(format!("{f}{unit} vs baseline {b}{unit}, gated exactly"))
                            }
                            NumberGate::Process if f > b * (1.0 + PROCESS_TOLERANCE) => {
                                Some(format!(
                                    "{f} vs baseline {b} (+{:.1}%, limit +{:.0}%)",
                                    (f - b) / b * 100.0,
                                    PROCESS_TOLERANCE * 100.0
                                ))
                            }
                            _ => None,
                        };
                        if let Some(detail) = detail {
                            out.regressions.push(Regression { path, detail });
                        }
                    }
                    other => out.regressions.push(Regression {
                        path,
                        detail: format!("baseline has {b}{unit}, fresh has {other:?}"),
                    }),
                }
            }
            Json::Bool(true) => {
                out.gated_bools += 1;
                if fresh.get(&path) != Some(&Json::Bool(true)) {
                    out.regressions.push(Regression {
                        detail: format!("baseline true, fresh {:?}", fresh.get(&path)),
                        path,
                    });
                }
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_report_shaped_json() {
        let doc = r#"{
  "network": "AlexNet",
  "runs": [ { "jobs": 23, "wall_s": 0.5, "ok": true }, { "jobs": 23 } ],
  "err": 3.9e-5,
  "neg": -1,
  "nothing": null
}"#;
        let v = parse(doc).expect("parses");
        let flat = flatten(&v);
        assert!(flat.contains(&("network".into(), Json::Str("AlexNet".into()))));
        assert!(flat.contains(&("runs[0].jobs".into(), Json::Num(23.0))));
        assert!(flat.contains(&("runs[1].jobs".into(), Json::Num(23.0))));
        assert!(flat.contains(&("err".into(), Json::Num(3.9e-5))));
        assert!(flat.contains(&("nothing".into(), Json::Null)));
        assert!(parse("{ \"a\": 1 } x").is_err());
        assert!(parse("{ \"a\": }").is_err());
    }

    #[test]
    fn serializer_round_trips_through_the_parser() {
        let obj = |fields: Vec<(&str, Json)>| {
            Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
        };
        let v = obj(vec![
            (
                "text",
                Json::from("say \"hi\" \\ path\nnext\ttab \u{1} 3×3"),
            ),
            ("max_exact", Json::from(1u64 << 53)),
            ("neg", Json::Num(-0.125)),
            ("tiny", Json::Num(3.9e-5)),
            ("empty", Json::Arr(Vec::new())),
            (
                "runs",
                Json::Arr(vec![
                    obj(vec![("jobs", Json::from(23u32)), ("ok", Json::from(true))]),
                    obj(Vec::new()),
                    Json::Null,
                ]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text), Ok(v));
        // Two-space indent, one member per line.
        assert!(text.contains("\n  \"max_exact\": 9007199254740992,\n"));
        assert!(
            text.contains("\n    {\n      \"jobs\": 23,\n      \"ok\": true\n    },\n    {},\n")
        );
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let v = Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(f64::NEG_INFINITY),
            Json::Num(1.5),
        ]);
        assert_eq!(
            parse(&v.to_string()),
            Ok(Json::Arr(vec![
                Json::Null,
                Json::Null,
                Json::Null,
                Json::Num(1.5)
            ]))
        );
    }

    #[test]
    fn gates_cycles_exactly_and_boolean_flips() {
        let base = r#"{ "makespan_cycles": 1000, "wall_s": 1.0, "bit_identical": true }"#;
        let same = r#"{ "makespan_cycles": 1000, "wall_s": 9.0, "bit_identical": true }"#;
        let out = compare(base, same).expect("compares");
        assert!(out.regressions.is_empty(), "{:?}", out.regressions);
        assert_eq!(out.gated_numbers, 1);
        assert_eq!(out.gated_bools, 1);

        // One cycle more or one cycle less both fail.
        for cycles in [1001, 999] {
            let fresh = format!(
                r#"{{ "makespan_cycles": {cycles}, "wall_s": 0.1, "bit_identical": true }}"#
            );
            let out = compare(base, &fresh).expect("compares");
            assert_eq!(out.regressions.len(), 1, "{cycles} cycles");
            assert_eq!(out.regressions[0].path, "makespan_cycles");
        }

        let broken = r#"{ "makespan_cycles": 1000, "wall_s": 0.1, "bit_identical": false }"#;
        let out = compare(base, broken).expect("compares");
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].path, "bit_identical");
    }

    #[test]
    fn missing_gated_metric_fails_but_new_keys_pass() {
        let base = r#"{ "runs": [ { "makespan_cycles": 10 } ] }"#;
        let fresh = r#"{ "runs": [ { "other": 1 } ], "extra": true }"#;
        let out = compare(base, fresh).expect("compares");
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].path, "runs[0].makespan_cycles");
        // Baseline-false booleans and wall-clock values are never gated.
        let base = r#"{ "flag": false, "wall_s": 1.0 }"#;
        let fresh = r#"{ "flag": true, "wall_s": 100.0 }"#;
        assert!(compare(base, fresh)
            .expect("compares")
            .regressions
            .is_empty());
    }

    #[test]
    fn gates_host_memory_growth_at_fifty_percent() {
        let base = r#"{ "makespan_cycles": 1000,
            "process": { "peak_rss_mb": 10.0, "minor_faults": 1000 } }"#;
        let grown = |rss: f64, faults: u32| {
            format!(
                r#"{{ "makespan_cycles": 1000,
                "process": {{ "peak_rss_mb": {rss}, "minor_faults": {faults} }} }}"#
            )
        };
        // +40 % passes, and so does a decrease.
        for fresh in [grown(14.0, 1400), grown(2.5, 10)] {
            let out = compare(base, &fresh).expect("compares");
            assert!(out.regressions.is_empty(), "{:?}", out.regressions);
            assert_eq!(out.gated_process, 2);
            assert_eq!(out.gated_numbers, 1);
        }
        // +60 % fails, per metric.
        let out = compare(base, &grown(16.0, 1000)).expect("compares");
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].path, "process.peak_rss_mb");
        let out = compare(base, &grown(16.0, 1600)).expect("compares");
        assert_eq!(out.regressions.len(), 2);
        assert_eq!(out.regressions[1].path, "process.minor_faults");
        // A cycle metric stays exact beside the host-memory rule.
        let slow = r#"{ "makespan_cycles": 1001,
            "process": { "peak_rss_mb": 10.0, "minor_faults": 1000 } }"#;
        let out = compare(base, slow).expect("compares");
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].path, "makespan_cycles");
        // A baseline with a process block needs one in the fresh report.
        let out = compare(base, r#"{ "makespan_cycles": 1000 }"#).expect("compares");
        assert_eq!(out.regressions.len(), 2);
    }
}
