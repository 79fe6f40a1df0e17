//! Journal parsing and summarization for the `trace` analysis binary.
//!
//! The vendored serde_json stand-in can only *emit* JSON, so this module
//! carries a small recursive-descent JSON parser sufficient for reading
//! back the journals this crate writes (and any well-formed JSON). On
//! top of it, [`parse_journal`] reconstructs the span/instant/metrics
//! records from a JSONL journal and [`summarize`] renders the human
//! report: per-phase time breakdown, top-N spans, and the migration
//! timeline.
//!
//! There is one grammar with two sinks. The object rule hands every key
//! to a field sink: [`parse_json`]'s pushes `(key, value)` onto a
//! [`JsonValue`] tree; a journal line's fills the fields of the record
//! directly, so a line costs the `String`s its record keeps (name, kind,
//! attribute keys and string values) and no tree. A string literal
//! without an escape is a borrowed slice of the input until something
//! keeps it. The tree-based reader this replaced is the test oracle
//! (`crate::oracle`): equal journals, equal error texts.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{Histogram, HISTOGRAM_BUCKETS};
use crate::span::SpanKind;

/// A parsed JSON value. Numbers are `f64` (exact for integers up to
/// 2^53, which covers every id/seq/duration a summary cares about).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; key order preserved.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if it is a non-negative integer below 2⁶⁴
    /// (`None` at and above it, never a saturated `u64::MAX`). Numbers
    /// are read as `f64`, so an integer above 2⁵³ arrives rounded to the
    /// nearest representable one, as it always has.
    pub fn as_u64(&self) -> Option<u64> {
        const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
        match self {
            JsonValue::Num(n) if *n >= 0.0 && *n < TWO_POW_64 && n.fract() == 0.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// What the object rule does with each `"key": value` pair: it is handed
/// the key with the parser standing just past the colon, and consumes
/// exactly one value.
trait FieldSink<'a> {
    fn field(&mut self, key: Cow<'a, str>, p: &mut Parser<'a>) -> Result<(), String>;
}

/// The tree: every pair kept, in input order.
impl<'a> FieldSink<'a> for Vec<(String, JsonValue)> {
    fn field(&mut self, key: Cow<'a, str>, p: &mut Parser<'a>) -> Result<(), String> {
        let value = p.value()?;
        self.push((key.into_owned(), value));
        Ok(())
    }
}

/// The one JSON grammar of this crate. [`parse_json`] and the journal
/// line reader differ only in the [`FieldSink`] the top-level object
/// fills.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// How deep arrays and objects may nest (a journal line nests 4 deep): the
/// grammar recurses per level, so deeper input is refused, not a stack overflow.
const MAX_DEPTH: usize = 64;

impl<'a> Parser<'a> {
    /// The whole of `text` as one document: a top-level object's fields
    /// go to `sink`, any other value is returned.
    fn document(text: &'a str, sink: &mut impl FieldSink<'a>) -> Result<Option<JsonValue>, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let other = if p.peek() == Some(b'{') {
            p.nested(|p| p.object(sink))?;
            None
        } else {
            Some(p.value()?)
        };
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing data after value"));
        }
        Ok(other)
    }

    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    /// Parses the array or object opening at `pos` one level deeper.
    fn nested<T>(
        &mut self,
        rule: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let parsed = rule(self);
        self.depth -= 1;
        parsed
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(|s| JsonValue::Str(s.into_owned())),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(|p| {
                let mut fields = Vec::new();
                p.object(&mut fields)?;
                Ok(JsonValue::Obj(fields))
            }),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// A string literal, in one scan to its closing quote. Without an
    /// escape it is a slice of the input; with one it is rebuilt, each
    /// run between escapes copied whole. `"` and `\` are ASCII, so every
    /// cut falls on a character boundary of the (valid UTF-8) input.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut rebuilt: Option<String> = None;
        loop {
            let rest = &self.text[self.pos..];
            let Some(run) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(match rebuilt {
                    None => Cow::Borrowed(&rest[..run]),
                    Some(mut out) => {
                        out.push_str(&rest[..run]);
                        Cow::Owned(out)
                    }
                });
            }
            let out = rebuilt.get_or_insert_with(String::new);
            out.push_str(&rest[..run]);
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    if self.pos + 4 > self.text.len() {
                        return Err(self.err("truncated \\u escape"));
                    }
                    // `None` when the four bytes end inside a character.
                    let cp = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs are not emitted by our
                    // writers; map lone surrogates to U+FFFD.
                    out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    /// A string value, or `None` for a value of any other type (parsed
    /// and dropped).
    fn string_or_other(&mut self) -> Result<Option<Cow<'a, str>>, String> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.value().map(|_| None)
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("invalid number"))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, sink: &mut impl FieldSink<'a>) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            sink.field(key, self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parse one JSON document.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut fields = Vec::new();
    let other = Parser::document(text, &mut fields)?;
    Ok(other.unwrap_or(JsonValue::Obj(fields)))
}

/// A span record read back from a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalSpan {
    /// Span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Emission sequence number.
    pub seq: u64,
    /// Span name.
    pub name: String,
    /// Taxonomy kind (as recorded; unknown kinds keep their raw string).
    pub kind: String,
    /// Wall-clock start (ns since epoch; 0 when masked).
    pub wall_ns: u64,
    /// Wall-clock duration in ns (0 when masked).
    pub wall_dur_ns: u64,
    /// Simulated-clock start, when recorded.
    pub sim_secs: Option<f64>,
    /// Simulated duration, when recorded.
    pub sim_dur_secs: Option<f64>,
    /// Attributes as parsed values, key order preserved.
    pub attrs: Vec<(String, JsonValue)>,
}

/// An instant record read back from a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalInstant {
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Emission sequence number.
    pub seq: u64,
    /// Event name.
    pub name: String,
    /// Taxonomy kind.
    pub kind: String,
    /// Wall-clock timestamp (0 when masked).
    pub wall_ns: u64,
    /// Simulated-clock timestamp, when recorded.
    pub sim_secs: Option<f64>,
    /// Attributes as parsed values, key order preserved.
    pub attrs: Vec<(String, JsonValue)>,
}

/// A parsed JSONL journal.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// All span records, in emission order.
    pub spans: Vec<JournalSpan>,
    /// All instant records, in emission order.
    pub instants: Vec<JournalInstant>,
    /// The metrics footer, when present.
    pub metrics: Option<JsonValue>,
    /// Torn final lines skipped instead of failing the parse (0 or 1: a
    /// crash mid-write can only corrupt the last line of an
    /// append-ordered JSONL file).
    pub torn_lines: u32,
}

/// The fields of one journal line, filled by the object rule as it goes.
/// Each slot takes the *first* occurrence of its key, as
/// [`JsonValue::get`] finds it: outer `None` is "key absent", inner
/// `None` "present, but not a value of this type". Strings without an
/// escape stay slices of the line until a record is built from them.
#[derive(Default)]
struct LineFields<'a> {
    t: Option<Option<Cow<'a, str>>>,
    name: Option<Option<Cow<'a, str>>>,
    kind: Option<Option<Cow<'a, str>>>,
    id: Option<Option<u64>>,
    parent: Option<Option<u64>>,
    seq: Option<Option<u64>>,
    wall_ns: Option<Option<u64>>,
    wall_dur_ns: Option<Option<u64>>,
    sim_secs: Option<Option<f64>>,
    sim_dur_secs: Option<Option<f64>>,
    attrs: Option<Vec<(String, JsonValue)>>,
}

impl<'a> FieldSink<'a> for LineFields<'a> {
    fn field(&mut self, key: Cow<'a, str>, p: &mut Parser<'a>) -> Result<(), String> {
        fn first<T>(slot: &mut Option<T>, v: T) {
            slot.get_or_insert(v);
        }
        match key.as_ref() {
            "t" => first(&mut self.t, p.string_or_other()?),
            "name" => first(&mut self.name, p.string_or_other()?),
            "kind" => first(&mut self.kind, p.string_or_other()?),
            "id" => first(&mut self.id, p.value()?.as_u64()),
            "parent" => first(&mut self.parent, p.value()?.as_u64()),
            "seq" => first(&mut self.seq, p.value()?.as_u64()),
            "wall_ns" => first(&mut self.wall_ns, p.value()?.as_u64()),
            "wall_dur_ns" => first(&mut self.wall_dur_ns, p.value()?.as_u64()),
            "sim_secs" => first(&mut self.sim_secs, p.value()?.as_f64()),
            "sim_dur_secs" => first(&mut self.sim_dur_secs, p.value()?.as_f64()),
            "attrs" => first(
                &mut self.attrs,
                match p.value()? {
                    JsonValue::Obj(fields) => fields,
                    _ => Vec::new(),
                },
            ),
            // Unknown keys are parsed like any other and dropped.
            _ => drop(p.value()?),
        }
        Ok(())
    }
}

/// Parse one journal line into `journal`. The whole line goes through
/// the grammar before any field is asked for, and records are
/// constructed in full before being pushed, so a failed line never
/// leaves a partial record behind.
fn parse_journal_line(line: &str, line_no: usize, journal: &mut Journal) -> Result<(), String> {
    let located = |e: String| format!("journal line {line_no}: {e}");
    let mut f = LineFields::default();
    Parser::document(line, &mut f).map_err(located)?;
    let missing =
        |what: &str, key: &str| format!("journal line {line_no}: missing {what} field '{key}'");
    let int =
        |v: Option<Option<u64>>, key: &str| v.flatten().ok_or_else(|| missing("integer", key));
    let string = |v: Option<Option<Cow<str>>>, key: &str| {
        v.flatten()
            .map(Cow::into_owned)
            .ok_or_else(|| missing("string", key))
    };
    let t = f.t.flatten().ok_or_else(|| missing("string", "t"))?;
    match t.as_ref() {
        "span" => journal.spans.push(JournalSpan {
            id: int(f.id, "id")?,
            parent: int(f.parent, "parent")?,
            seq: int(f.seq, "seq")?,
            name: string(f.name, "name")?,
            kind: string(f.kind, "kind")?,
            wall_ns: int(f.wall_ns, "wall_ns")?,
            wall_dur_ns: int(f.wall_dur_ns, "wall_dur_ns")?,
            sim_secs: f.sim_secs.flatten(),
            sim_dur_secs: f.sim_dur_secs.flatten(),
            attrs: f.attrs.unwrap_or_default(),
        }),
        "instant" => journal.instants.push(JournalInstant {
            parent: int(f.parent, "parent")?,
            seq: int(f.seq, "seq")?,
            name: string(f.name, "name")?,
            kind: string(f.kind, "kind")?,
            wall_ns: int(f.wall_ns, "wall_ns")?,
            sim_secs: f.sim_secs.flatten(),
            attrs: f.attrs.unwrap_or_default(),
        }),
        // The one footer line per journal is kept as a tree.
        "metrics" => journal.metrics = Some(parse_json(line).map_err(located)?),
        other => {
            return Err(format!(
                "journal line {line_no}: unknown record type '{other}'"
            ))
        }
    }
    Ok(())
}

/// Parse a JSONL journal as written by [`crate::export::jsonl`].
///
/// Journals are append-ordered, so a process killed mid-write can only
/// corrupt the *final* line: a torn or malformed last line is skipped
/// (counted in [`Journal::torn_lines`]) instead of failing the parse —
/// the JSONL analog of the binary WAL's torn-tail rule
/// ([`crate::wal`]). Corruption anywhere *before* the final line cannot
/// come from a crash and remains a hard error.
pub fn parse_journal(text: &str) -> Result<Journal, String> {
    let mut journal = Journal::default();
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.trim()))
        .filter(|(_, line)| !line.is_empty())
        .peekable();
    while let Some((line_no, line)) = lines.next() {
        match parse_journal_line(line, line_no, &mut journal) {
            Ok(()) => {}
            Err(_) if lines.peek().is_none() => journal.torn_lines += 1,
            Err(e) => return Err(e),
        }
    }
    Ok(journal)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

fn attr_display(v: &JsonValue) -> String {
    match v {
        JsonValue::Str(s) => s.clone(),
        JsonValue::Num(n) => format!("{n}"),
        JsonValue::Bool(b) => format!("{b}"),
        JsonValue::Null => "null".to_string(),
        _ => "…".to_string(),
    }
}

/// Reconstruct a [`Histogram`] from its JSONL metrics-footer encoding
/// (`{"count":..,"sum":..,"buckets":{"idx":n,..}}`; zero buckets are
/// omitted by the writer). Malformed or out-of-range fields degrade to
/// zero rather than failing the whole summary.
fn histogram_from_json(v: &JsonValue) -> Histogram {
    let mut h = Histogram {
        count: v.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
        sum: v.get("sum").and_then(JsonValue::as_u64).unwrap_or(0),
        ..Histogram::default()
    };
    if let Some(buckets) = v.get("buckets").and_then(JsonValue::as_obj) {
        for (idx, n) in buckets {
            if let (Ok(i), Some(n)) = (idx.parse::<usize>(), n.as_u64()) {
                if i < HISTOGRAM_BUCKETS {
                    h.buckets[i] = n;
                }
            }
        }
    }
    h
}

/// Reconstruct a [`crate::metrics::RegistrySnapshot`] from a journal's
/// metrics footer, or `None` when the journal has no footer. Counter and
/// histogram names keep the footer's (sorted) order, so exporting the
/// reconstruction — e.g. through
/// [`crate::export::prometheus::render`] — is byte-deterministic.
#[must_use]
pub fn footer_snapshot(journal: &Journal) -> Option<crate::metrics::RegistrySnapshot> {
    let metrics = journal.metrics.as_ref()?;
    let counters = metrics
        .get("counters")
        .and_then(JsonValue::as_obj)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default();
    let histograms = metrics
        .get("histograms")
        .and_then(JsonValue::as_obj)
        .map(|fields| {
            fields
                .iter()
                .map(|(k, v)| (k.clone(), histogram_from_json(v)))
                .collect()
        })
        .unwrap_or_default();
    Some(crate::metrics::RegistrySnapshot {
        counters,
        histograms,
    })
}

/// Per-phase aggregate pair from two journals, for [`diff_journals`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Phase-span name.
    pub name: String,
    /// Occurrences in journal A.
    pub count_a: u64,
    /// Occurrences in journal B.
    pub count_b: u64,
    /// Summed wall duration in A (ns).
    pub wall_a_ns: u64,
    /// Summed wall duration in B (ns).
    pub wall_b_ns: u64,
    /// Summed simulated duration in A (seconds).
    pub sim_a_secs: f64,
    /// Summed simulated duration in B (seconds).
    pub sim_b_secs: f64,
}

impl PhaseDelta {
    /// Signed wall delta, B − A, in nanoseconds.
    pub fn wall_delta_ns(&self) -> i128 {
        self.wall_b_ns as i128 - self.wall_a_ns as i128
    }

    /// Signed simulated delta, B − A, in seconds.
    pub fn sim_delta_secs(&self) -> f64 {
        self.sim_b_secs - self.sim_a_secs
    }
}

/// Structural comparison of two journals from [`diff_journals`].
///
/// Spans are aligned by `(name, occurrence index)` — the i-th span
/// named `n` in A pairs with the i-th span named `n` in B — which is
/// stable across runs because emission order is part of the tracer's
/// determinism contract. Wall clocks are reported (signed, B − A) but
/// never participate in [`JournalDiff::identical`]: two runs of the
/// same seed agree on everything except wall time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalDiff {
    /// Per-phase aggregates for every phase name in either journal.
    pub phases: Vec<PhaseDelta>,
    /// Aligned span pairs whose simulated durations disagree:
    /// `(name, occurrence, sim_a, sim_b)`.
    pub sim_mismatches: Vec<(String, usize, f64, f64)>,
    /// `name ×count` for span names with more occurrences in A.
    pub only_in_a: Vec<String>,
    /// `name ×count` for span names with more occurrences in B.
    pub only_in_b: Vec<String>,
    /// Metrics-footer counters that differ: `(name, a, b)` with `None`
    /// for absent.
    pub counter_deltas: Vec<(String, Option<u64>, Option<u64>)>,
    /// Total spans in A / B.
    pub span_counts: (usize, usize),
}

impl JournalDiff {
    /// True when the journals agree on structure, the simulated clock,
    /// and counters — everything except wall time.
    pub fn identical(&self) -> bool {
        self.sim_mismatches.is_empty()
            && self.only_in_a.is_empty()
            && self.only_in_b.is_empty()
            && self.counter_deltas.is_empty()
    }
}

/// Compare two parsed journals span-by-span (see [`JournalDiff`]).
pub fn diff_journals(a: &Journal, b: &Journal) -> JournalDiff {
    let mut by_name: BTreeMap<&str, (Vec<&JournalSpan>, Vec<&JournalSpan>)> = BTreeMap::new();
    for s in &a.spans {
        by_name.entry(s.name.as_str()).or_default().0.push(s);
    }
    for s in &b.spans {
        by_name.entry(s.name.as_str()).or_default().1.push(s);
    }

    let mut diff = JournalDiff {
        span_counts: (a.spans.len(), b.spans.len()),
        ..JournalDiff::default()
    };
    let mut phases: BTreeMap<String, PhaseDelta> = BTreeMap::new();
    for (name, (in_a, in_b)) in &by_name {
        for (occ, (sa, sb)) in in_a.iter().zip(in_b.iter()).enumerate() {
            let da = sa.sim_dur_secs.unwrap_or(0.0);
            let db = sb.sim_dur_secs.unwrap_or(0.0);
            if da != db || sa.kind != sb.kind {
                diff.sim_mismatches.push((name.to_string(), occ, da, db));
            }
        }
        if in_a.len() > in_b.len() {
            diff.only_in_a
                .push(format!("{name} ×{}", in_a.len() - in_b.len()));
        }
        if in_b.len() > in_a.len() {
            diff.only_in_b
                .push(format!("{name} ×{}", in_b.len() - in_a.len()));
        }
        let is_phase = in_a
            .first()
            .or(in_b.first())
            .map(|s| s.kind == SpanKind::Phase.as_str())
            .unwrap_or(false);
        if is_phase {
            phases.insert(
                name.to_string(),
                PhaseDelta {
                    name: name.to_string(),
                    count_a: in_a.len() as u64,
                    count_b: in_b.len() as u64,
                    wall_a_ns: in_a.iter().map(|s| s.wall_dur_ns).sum(),
                    wall_b_ns: in_b.iter().map(|s| s.wall_dur_ns).sum(),
                    sim_a_secs: in_a.iter().filter_map(|s| s.sim_dur_secs).sum(),
                    sim_b_secs: in_b.iter().filter_map(|s| s.sim_dur_secs).sum(),
                },
            );
        }
    }
    diff.phases = phases.into_values().collect();

    let counters = |j: &Journal| -> BTreeMap<String, u64> {
        footer_snapshot(j).map_or_else(BTreeMap::new, |m| m.counters.into_iter().collect())
    };
    let (ca, cb) = (counters(a), counters(b));
    let names: std::collections::BTreeSet<&String> = ca.keys().chain(cb.keys()).collect();
    for name in names {
        let va = ca.get(name).copied();
        let vb = cb.get(name).copied();
        if va != vb {
            diff.counter_deltas.push((name.clone(), va, vb));
        }
    }
    diff
}

/// Render a [`JournalDiff`] as the human report behind `trace diff`:
/// per-phase signed deltas on both clocks, then any structural or
/// simulated-clock divergences.
pub fn render_diff(diff: &JournalDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace diff: {} spans (A) vs {} spans (B)",
        diff.span_counts.0, diff.span_counts.1
    );
    if !diff.phases.is_empty() {
        let _ = writeln!(out, "\nper-phase deltas (B - A):");
        for p in &diff.phases {
            let _ = writeln!(
                out,
                "  {:<24} n={}/{} wall={:+.3}ms sim={:+.9}s",
                p.name,
                p.count_a,
                p.count_b,
                p.wall_delta_ns() as f64 / 1e6,
                p.sim_delta_secs(),
            );
        }
    }
    const CAP: usize = 20;
    if !diff.sim_mismatches.is_empty() {
        let _ = writeln!(out, "\nsim-clock mismatches: {}", diff.sim_mismatches.len());
        for (name, occ, da, db) in diff.sim_mismatches.iter().take(CAP) {
            let _ = writeln!(out, "  {name}#{occ}: sim {da:.9}s -> {db:.9}s");
        }
        if diff.sim_mismatches.len() > CAP {
            let _ = writeln!(out, "  … {} more", diff.sim_mismatches.len() - CAP);
        }
    }
    for (label, list) in [
        ("only in A", &diff.only_in_a),
        ("only in B", &diff.only_in_b),
    ] {
        if !list.is_empty() {
            let _ = writeln!(out, "\n{label}: {}", list.join(", "));
        }
    }
    if !diff.counter_deltas.is_empty() {
        let _ = writeln!(out, "\ncounter deltas:");
        let fmt = |v: Option<u64>| v.map_or("-".to_string(), |n| n.to_string());
        for (name, va, vb) in &diff.counter_deltas {
            let _ = writeln!(out, "  {name:<32} {} -> {}", fmt(*va), fmt(*vb));
        }
    }
    let _ = writeln!(
        out,
        "\nverdict: {}",
        if diff.identical() {
            "identical (structure, sim clock, counters)"
        } else {
            "DIVERGED"
        }
    );
    out
}

/// Render the human summary of a journal: per-phase breakdown on both
/// clocks, top-N spans by simulated (then wall) duration, the migration
/// timeline, and the counter footer.
pub fn summarize(journal: &Journal, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "journal: {} spans, {} instants{}",
        journal.spans.len(),
        journal.instants.len(),
        if journal.metrics.is_some() {
            ", metrics footer"
        } else {
            ""
        },
    );

    // Per-phase breakdown.
    let mut phases: BTreeMap<&str, (u64, u64, f64)> = BTreeMap::new();
    for s in &journal.spans {
        if s.kind == SpanKind::Phase.as_str() {
            let entry = phases.entry(s.name.as_str()).or_insert((0, 0, 0.0));
            entry.0 += 1;
            entry.1 += s.wall_dur_ns;
            entry.2 += s.sim_dur_secs.unwrap_or(0.0);
        }
    }
    if !phases.is_empty() {
        let _ = writeln!(out, "\nper-phase breakdown:");
        let mut rows: Vec<_> = phases.into_iter().collect();
        rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
        for (name, (count, wall, sim)) in rows {
            let _ = writeln!(
                out,
                "  {name:<24} n={count:<4} wall={:<12} sim={sim:.6}s",
                fmt_ms(wall)
            );
        }
    }

    // Top-N spans by simulated duration, wall as tiebreaker.
    let mut by_dur: Vec<&JournalSpan> = journal.spans.iter().collect();
    by_dur.sort_by(|a, b| {
        let sa = a.sim_dur_secs.unwrap_or(0.0);
        let sb = b.sim_dur_secs.unwrap_or(0.0);
        sb.partial_cmp(&sa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.wall_dur_ns.cmp(&a.wall_dur_ns))
            .then(a.seq.cmp(&b.seq))
    });
    if !by_dur.is_empty() {
        let _ = writeln!(out, "\ntop {} spans:", top_n.min(by_dur.len()));
        for s in by_dur.iter().take(top_n) {
            let sim = match s.sim_dur_secs {
                Some(d) => format!("{d:.6}s"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  [{:<9}] {:<28} sim={sim:<12} wall={}",
                s.kind,
                s.name,
                fmt_ms(s.wall_dur_ns)
            );
        }
    }

    // Migration timeline.
    let migrations: Vec<&JournalInstant> = journal
        .instants
        .iter()
        .filter(|i| i.kind == SpanKind::Migration.as_str())
        .collect();
    let _ = writeln!(out, "\nmigrations: {}", migrations.len());
    for m in &migrations {
        let at = match m.sim_secs {
            Some(s) => format!("sim {s:.6}s"),
            None => format!("wall {}", fmt_ms(m.wall_ns)),
        };
        let attrs = m
            .attrs
            .iter()
            .map(|(k, v)| format!("{k}={}", attr_display(v)))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(out, "  at {at}: {} {attrs}", m.name);
    }

    // Counter footer.
    if let Some(metrics) = &journal.metrics {
        if let Some(counters) = metrics.get("counters").and_then(JsonValue::as_obj) {
            // Wire-format decode footer: the kernel.decode.* counters
            // folded into one block of decode arithmetic.
            let named = |name: &str| -> u64 {
                counters
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, v)| v.as_u64())
                    .unwrap_or(0)
            };
            let calls = named("kernel.decode.calls");
            if calls > 0 {
                let bytes_in = named("kernel.decode.bytes_in");
                let bytes_out = named("kernel.decode.bytes_out");
                let _ = writeln!(out, "\ndecode kernels:");
                let _ = writeln!(
                    out,
                    "  calls={calls} encoded={bytes_in}B decoded={bytes_out}B \
                     expansion={:.2}x",
                    if bytes_in > 0 {
                        bytes_out as f64 / bytes_in as f64
                    } else {
                        0.0
                    }
                );
                for codec in ["gzip", "zlib", "none"] {
                    let n = named(&format!("kernel.decode.codec.{codec}"));
                    if n > 0 {
                        let _ = writeln!(out, "  codec.{codec:<26} {n}");
                    }
                }
            }
            if !counters.is_empty() {
                let _ = writeln!(out, "\ncounters:");
                for (k, v) in counters {
                    let _ = writeln!(out, "  {k:<32} {}", attr_display(v));
                }
            }
        }
        if let Some(hists) = metrics.get("histograms").and_then(JsonValue::as_obj) {
            if !hists.is_empty() {
                let _ = writeln!(out, "\nhistograms:");
                for (k, v) in hists {
                    let h = histogram_from_json(v);
                    let _ = write!(
                        out,
                        "  {k:<32} count={} sum={} mean={:.1}",
                        h.count(),
                        h.sum,
                        h.mean()
                    );
                    // Quantiles are bucket upper bounds (≤ a factor of
                    // two above the true value, never below it).
                    if let (Some(p50), Some(p95), Some(p99)) =
                        (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99))
                    {
                        let _ = write!(out, " p50≤{p50} p95≤{p95} p99≤{p99}");
                    }
                    let _ = writeln!(out);
                }
            }
        }
    }

    // Calibration-audit footer: quantiles of the per-line Eq. 1 time
    // error published by `activepy::audit::CalibrationReport::publish_to`
    // plus the worst-mispredicted-lines table from `audit.line`
    // instants. Absent entirely for unaudited journals.
    let audit_err = journal
        .metrics
        .as_ref()
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("audit.time_err_ppm"))
        .map(histogram_from_json)
        .filter(|h| h.count > 0);
    if let Some(h) = audit_err {
        let _ = writeln!(out, "\ncalibration error (|measured-predicted|, ppm):");
        if let (Some(p50), Some(p95), Some(p99)) =
            (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99))
        {
            let _ = writeln!(
                out,
                "  lines={} mean={:.0}ppm p50≤{p50} p95≤{p95} p99≤{p99}",
                h.count(),
                h.mean()
            );
        }
    }
    let mut audited: Vec<&JournalInstant> = journal
        .instants
        .iter()
        .filter(|i| i.name == "audit.line")
        .collect();
    if !audited.is_empty() {
        let attr_u64 = |i: &JournalInstant, key: &str| -> u64 {
            i.attrs
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or(0)
        };
        audited.sort_by(|a, b| {
            attr_u64(b, "err_ppm")
                .cmp(&attr_u64(a, "err_ppm"))
                .then(a.seq.cmp(&b.seq))
        });
        let _ = writeln!(out, "\nworst {} mispredicted lines:", audited.len().min(5));
        for i in audited.iter().take(5) {
            let attr = |key: &str| -> String {
                i.attrs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| attr_display(v))
                    .unwrap_or_else(|| "-".to_string())
            };
            let _ = writeln!(
                out,
                "  {:<16} line {:<3} predicted={}s measured={}s err={}ppm flipped={}",
                attr("workload"),
                attr("line"),
                attr("predicted_secs"),
                attr("measured_secs"),
                attr("err_ppm"),
                attr("flipped"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::jsonl;
    use crate::metrics::MetricsRegistry;
    use crate::span::{SpanKind as SK, Tracer};

    #[test]
    fn parse_json_round_trips_basic_values() {
        let v = parse_json(r#"{"a":1,"b":[true,null,"x\n"],"c":-2.5e2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-250.0));
        let JsonValue::Arr(items) = v.get("b").unwrap() else {
            panic!("expected array")
        };
        assert_eq!(items[0], JsonValue::Bool(true));
        assert_eq!(items[1], JsonValue::Null);
        assert_eq!(items[2], JsonValue::Str("x\n".to_string()));
    }

    #[test]
    fn parse_json_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let too_deep = |byte: usize| {
            format!("json parse error at byte {byte}: nesting deeper than {MAX_DEPTH}")
        };
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        let arrays = "[".repeat(100_000);
        let objects = "{\"a\":".repeat(100_000);
        assert_eq!(parse_json(&arrays), Err(too_deep(64)));
        assert_eq!(parse_json(&objects), Err(too_deep(64 * 5)));
        assert!(parse_json(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(parse_json(&nested(MAX_DEPTH + 1)), Err(too_deep(64)));

        // A journal line's own object is its first level.
        let line = |deep: &str| {
            format!(
                "{{\"t\":\"instant\",\"parent\":0,\"seq\":1,\"name\":\"n\",\"kind\":\"phase\",\
                 \"wall_ns\":0,\"attrs\":{{}},\"deep\":{deep}}}\n"
            )
        };
        let good = line("0");
        let at_the_limit = line(&nested(MAX_DEPTH - 1));
        let j = parse_journal(&(at_the_limit.clone() + &at_the_limit)).expect("64 deep");
        assert_eq!((j.instants.len(), j.torn_lines), (2, 0));
        for deep in [arrays, objects, nested(MAX_DEPTH)] {
            let err = parse_journal(&(line(&deep) + &good)).expect_err("mid-journal");
            assert!(err.starts_with("journal line 1: json parse error at byte "));
            assert!(err.ends_with(": nesting deeper than 64"), "{err}");
            let j = parse_journal(&(good.clone() + &line(&deep))).expect("torn tail");
            assert_eq!((j.instants.len(), j.torn_lines), (1, 1));
        }
    }

    #[test]
    fn as_u64_is_none_for_what_a_u64_cannot_hold() {
        let as_u64 = |text: &str| parse_json(text).expect("a number").as_u64();
        // 2⁶⁴ and above used to saturate to `u64::MAX`; `u64::MAX` itself
        // is 2⁶⁴ once it is an `f64`.
        assert_eq!(as_u64("1e300"), None);
        assert_eq!(as_u64("18446744073709551616"), None);
        assert_eq!(as_u64("18446744073709551615"), None);
        assert_eq!(as_u64("18446744073709549568"), Some(u64::MAX - 2047));
        assert_eq!(as_u64("9007199254740992"), Some(1 << 53));
        assert_eq!(as_u64("-0"), Some(0));
        assert_eq!(as_u64("1.0"), Some(1));
        assert_eq!(as_u64("1.5"), None);
        assert_eq!(as_u64("-1"), None);

        // So a line carrying such an id is not a record.
        let line = |id: &str| {
            format!(
                "{{\"t\":\"span\",\"seq\":1,\"id\":{id},\"parent\":0,\"name\":\"n\",\
                 \"kind\":\"phase\",\"wall_ns\":0,\"wall_dur_ns\":0,\"attrs\":{{}}}}\n"
            )
        };
        let err = parse_journal(&(line("1e300") + &line("2"))).unwrap_err();
        assert_eq!(err, "journal line 1: missing integer field 'id'");
        let journal = parse_journal(&(line("2") + &line("1e300"))).expect("torn tail");
        assert_eq!((journal.spans.len(), journal.torn_lines), (1, 1));
        assert_eq!(journal.spans[0].id, 2);
    }

    #[test]
    fn parse_json_handles_unicode_and_escapes() {
        let v = parse_json(r#""café ✓""#).unwrap();
        assert_eq!(v.as_str(), Some("café ✓"));
    }

    #[test]
    fn journal_round_trip_and_summary() {
        let (t, sink) = Tracer::to_memory();
        let run = t.begin("phase.execute", SK::Phase, Some(0.0));
        let region = t.begin("exec.region", SK::Device, Some(0.0));
        t.instant(
            "migration.decision",
            SK::Migration,
            Some(0.4),
            vec![("reason".to_string(), "Degraded".into())],
        );
        t.end(region, Some(0.5));
        t.end(run, Some(1.0));
        let reg = MetricsRegistry::default();
        reg.counter_add("recovery.retries", 3);
        reg.observe("exec.chunk_sim_ns", 512);

        let text = jsonl(&sink.events(), Some(&reg.snapshot()), true);
        let journal = parse_journal(&text).expect("journal parses");
        assert_eq!(journal.spans.len(), 2);
        assert_eq!(journal.instants.len(), 1);
        assert!(journal.metrics.is_some());
        assert_eq!(journal.spans[1].name, "phase.execute");
        assert_eq!(journal.spans[0].parent, journal.spans[1].id);
        assert_eq!(journal.instants[0].attrs[0].0, "reason");

        let summary = summarize(&journal, 5);
        assert!(summary.contains("per-phase breakdown"));
        assert!(summary.contains("phase.execute"));
        assert!(summary.contains("migrations: 1"));
        assert!(summary.contains("reason=Degraded"));
        assert!(summary.contains("recovery.retries"));
        assert!(summary.contains("exec.chunk_sim_ns"));
        // 512 lands in bucket [512, 1024): every quantile reports the
        // upper bound of that bucket.
        assert!(summary.contains("p50≤1024 p95≤1024 p99≤1024"), "{summary}");
    }

    #[test]
    fn decode_counters_render_a_dedicated_footer() {
        let (t, sink) = Tracer::to_memory();
        let run = t.begin("phase.run", SK::Phase, Some(0.0));
        t.end(run, Some(1.0));
        let reg = MetricsRegistry::default();
        reg.counter_add("kernel.decode.calls", 4);
        reg.counter_add("kernel.decode.bytes_in", 1_000);
        reg.counter_add("kernel.decode.bytes_out", 20_000);
        reg.counter_add("kernel.decode.codec.gzip", 3);
        reg.counter_add("kernel.decode.codec.none", 1);

        let text = jsonl(&sink.events(), Some(&reg.snapshot()), true);
        let journal = parse_journal(&text).expect("journal parses");
        let summary = summarize(&journal, 5);
        assert!(summary.contains("decode kernels:"), "{summary}");
        assert!(
            summary.contains("calls=4 encoded=1000B decoded=20000B expansion=20.00x"),
            "{summary}"
        );
        assert!(summary.contains("codec.gzip"), "{summary}");
        assert!(summary.contains("codec.none"), "{summary}");
        assert!(!summary.contains("codec.zlib"), "{summary}");

        // A journal with no decode traffic renders no decode block.
        let text = jsonl(
            &sink.events(),
            Some(&MetricsRegistry::default().snapshot()),
            true,
        );
        let plain = parse_journal(&text).expect("journal parses");
        assert!(!summarize(&plain, 5).contains("decode kernels:"));
    }

    fn audited_journal() -> String {
        let (t, sink) = Tracer::to_memory();
        let run = t.begin("phase.execute", SK::Phase, Some(0.0));
        for (line, err) in [(0u64, 120_000u64), (1, 900), (2, 45_000)] {
            t.instant(
                "audit.line",
                SK::Monitor,
                Some(0.0),
                vec![
                    ("workload".to_string(), "TPC-H-6".into()),
                    ("line".to_string(), line.into()),
                    ("predicted_secs".to_string(), 1.5f64.into()),
                    ("measured_secs".to_string(), 1.7f64.into()),
                    ("err_ppm".to_string(), err.into()),
                    ("flipped".to_string(), (err > 100_000).into()),
                ],
            );
        }
        t.end(run, Some(1.0));
        let reg = MetricsRegistry::default();
        reg.counter_add("audit.lines_audited", 3);
        for err in [120_000u64, 900, 45_000] {
            reg.observe("audit.time_err_ppm", err);
        }
        jsonl(&sink.events(), Some(&reg.snapshot()), true)
    }

    #[test]
    fn summary_renders_the_calibration_footer() {
        let journal = parse_journal(&audited_journal()).expect("parses");
        let summary = summarize(&journal, 5);
        assert!(
            summary.contains("calibration error (|measured-predicted|, ppm):"),
            "{summary}"
        );
        assert!(summary.contains("lines=3"), "{summary}");
        assert!(summary.contains("worst 3 mispredicted lines:"), "{summary}");
        // Sorted by err_ppm descending: line 0 (120000) first.
        let l0 = summary.find("line 0").expect("line 0 row");
        let l2 = summary.find("line 2").expect("line 2 row");
        let l1 = summary.find("line 1").expect("line 1 row");
        assert!(l0 < l2 && l2 < l1, "{summary}");
        assert!(summary.contains("flipped=true"), "{summary}");

        // Unaudited journals render no calibration footer.
        let (t, sink) = Tracer::to_memory();
        let a = t.begin("phase.a", SK::Phase, Some(0.0));
        t.end(a, Some(0.5));
        let plain = parse_journal(&jsonl(&sink.events(), None, true)).expect("parses");
        assert!(!summarize(&plain, 5).contains("calibration error"));
    }

    #[test]
    fn footer_snapshot_round_trips_the_registry() {
        let journal = parse_journal(&audited_journal()).expect("parses");
        let snap = footer_snapshot(&journal).expect("footer present");
        assert_eq!(snap.counter("audit.lines_audited"), Some(3));
        let h = snap.histogram("audit.time_err_ppm").expect("histogram");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 120_000 + 900 + 45_000);
        // Footerless journals yield no snapshot.
        let (t, sink) = Tracer::to_memory();
        let a = t.begin("phase.a", SK::Phase, Some(0.0));
        t.end(a, Some(0.5));
        let plain = parse_journal(&jsonl(&sink.events(), None, true)).expect("parses");
        assert!(footer_snapshot(&plain).is_none());
    }

    #[test]
    fn diff_of_identical_journals_is_identical() {
        let text = audited_journal();
        let j = parse_journal(&text).expect("parses");
        let diff = diff_journals(&j, &j);
        assert!(diff.identical(), "{diff:?}");
        let rendered = render_diff(&diff);
        assert!(rendered.contains("identical (structure, sim clock, counters)"));
        assert!(rendered.contains("per-phase deltas"));
    }

    #[test]
    fn diff_flags_sim_and_counter_divergence_but_not_wall() {
        let mk = |sim_end: f64, retries: u64, extra_span: bool, wall_mask: bool| {
            let (t, sink) = Tracer::to_memory();
            let run = t.begin("phase.execute", SK::Phase, Some(0.0));
            if extra_span {
                let s = t.begin("exec.region", SK::Device, Some(0.0));
                t.end(s, Some(0.1));
            }
            t.end(run, Some(sim_end));
            let reg = MetricsRegistry::default();
            reg.counter_add("recovery.retries", retries);
            parse_journal(&jsonl(&sink.events(), Some(&reg.snapshot()), wall_mask)).expect("parses")
        };
        // Wall-clock differences alone (masked vs unmasked) stay identical.
        let a = mk(1.0, 3, false, true);
        assert!(diff_journals(&a, &mk(1.0, 3, false, false)).identical());

        let diff = diff_journals(&a, &mk(2.0, 5, true, true));
        assert!(!diff.identical());
        assert_eq!(diff.sim_mismatches.len(), 1);
        assert_eq!(diff.sim_mismatches[0].0, "phase.execute");
        assert_eq!(diff.only_in_b, vec!["exec.region ×1".to_string()]);
        assert_eq!(
            diff.counter_deltas,
            vec![("recovery.retries".to_string(), Some(3), Some(5))]
        );
        let rendered = render_diff(&diff);
        assert!(rendered.contains("DIVERGED"), "{rendered}");
        assert!(rendered.contains("recovery.retries"), "{rendered}");
    }

    #[test]
    fn torn_final_line_is_skipped_with_a_counter() {
        // A bad *final* line is treated as a crash-torn tail: skipped,
        // counted, never a hard error.
        let j = parse_journal("{\"t\":\"span\"}\n").expect("torn tail tolerated");
        assert_eq!((j.spans.len(), j.torn_lines), (0, 1));
        let j = parse_journal("{\"t\":\"bogus\"}\n").expect("torn tail tolerated");
        assert_eq!(j.torn_lines, 1);
    }

    #[test]
    fn mid_record_truncation_keeps_the_valid_prefix() {
        // Build a real journal, then cut it mid-way through its last
        // line (a crash mid-write).
        let (t, sink) = Tracer::to_memory();
        let a = t.begin("phase.a", SK::Phase, Some(0.0));
        t.end(a, Some(0.5));
        let b = t.begin("phase.b", SK::Phase, Some(0.5));
        t.end(b, Some(1.0));
        let text = jsonl(&sink.events(), None, true);
        let full = parse_journal(&text).expect("full journal parses");
        assert_eq!((full.spans.len(), full.torn_lines), (2, 0));

        let cut = text.trim_end().len() - 10;
        let torn = parse_journal(&text[..cut]).expect("truncated tail tolerated");
        assert_eq!(torn.spans.len(), full.spans.len() - 1);
        assert_eq!(torn.torn_lines, 1);
        assert_eq!(torn.spans[0], full.spans[0]);
    }

    #[test]
    fn corruption_before_the_final_line_stays_a_hard_error() {
        // A bad line with valid lines after it cannot be a torn tail;
        // that is real corruption and must fail loudly.
        let (t, sink) = Tracer::to_memory();
        let a = t.begin("phase.a", SK::Phase, Some(0.0));
        t.end(a, Some(0.5));
        let good_line = jsonl(&sink.events(), None, true);
        let text = format!("{{\"t\":\"bogus\"}}\n{good_line}");
        let err = parse_journal(&text).unwrap_err();
        assert!(err.contains("unknown record type"), "{err}");
        let text = format!("{{broken\n{good_line}");
        let err = parse_journal(&text).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
