//! Journal exporters: JSONL event journal and Chrome `trace_event`.
//!
//! Both writers hand-roll their JSON with a fixed field order and
//! Rust's shortest-round-trip `f64` formatting, so the emitted bytes are
//! a pure function of the recorded events. With `mask_wall` set, every
//! wall-clock field is zeroed, making same-seed journals byte-identical
//! across runs (the determinism contract tested in
//! `tests/trace_determinism.rs`).
//!
//! Every record is written straight into the one output `String`, which
//! is reserved once: names, keys and string attributes are escaped in
//! place from slices of the source, integers go in digit by digit and
//! floats through `write!`. One set of field writers (`push_*`,
//! `*_field`) serves both formats and the metrics footer; there is no
//! per-record `String`. The `format!`-based writers these replaced are
//! kept as the test oracle (`crate::oracle`), which pins every byte.
//!
//! The Chrome export renders two process tracks: pid 1 carries spans on
//! the wall clock (microseconds since tracer epoch) and pid 2 carries
//! the same spans on the simulated device clock (simulated seconds
//! scaled to microseconds), so Perfetto shows host cost and modelled
//! cost side by side.

pub mod prometheus;

use std::fmt::Write as _;

use crate::metrics::RegistrySnapshot;
use crate::span::{AttrValue, Attrs, InstantEvent, Span, SpanKind, TraceEvent};

/// Process id of the wall-clock track in Chrome exports.
pub const CHROME_WALL_PID: u64 = 1;
/// Process id of the simulated-clock track in Chrome exports.
pub const CHROME_SIM_PID: u64 = 2;

/// Escape a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Deterministic JSON rendering of an `f64`: shortest round-trip via
/// Rust's `Display`; non-finite values become `null` (JSON has no inf).
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, v);
    out
}

/// Appends `s` escaped for a JSON string literal: the run up to the next
/// byte that needs an escape is copied whole, then the escape. Every
/// such byte is ASCII, so the cuts fall on character boundaries.
fn push_escaped(out: &mut String, s: &str) {
    /// What a control byte without a short escape starts with; its two
    /// hex digits follow.
    const CONTROL: &str = "\\u00";
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x20.. => continue,
            _ => CONTROL,
        };
        out.push_str(&s[copied..i]);
        out.push_str(escape);
        if escape == CONTROL {
            let _ = write!(out, "{b:02x}");
        }
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// Appends `n` in decimal, digit by digit.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] += (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

// One field each: `lead` is the literal text up to the value — the
// punctuation closing the previous field, the quoted name and the colon.

fn u64_field(out: &mut String, lead: &str, n: u64) {
    out.push_str(lead);
    push_u64(out, n);
}

fn f64_field(out: &mut String, lead: &str, v: f64) {
    out.push_str(lead);
    push_f64(out, v);
}

/// An absent clock is `null`, which is how a non-finite one is written.
fn opt_f64_field(out: &mut String, lead: &str, v: Option<f64>) {
    f64_field(out, lead, v.unwrap_or(f64::NAN));
}

fn str_field(out: &mut String, lead: &str, s: &str) {
    out.push_str(lead);
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// The attributes as `"key":value` fields, `lead` ahead of the first and
/// a comma ahead of every other.
fn attr_fields(out: &mut String, attrs: &Attrs, mut lead: &'static str) {
    for (k, v) in attrs {
        str_field(out, lead, k);
        lead = ",";
        match v {
            AttrValue::U64(n) => u64_field(out, ":", *n),
            AttrValue::F64(x) => f64_field(out, ":", *x),
            AttrValue::Bool(b) => out.push_str(if *b { ":true" } else { ":false" }),
            AttrValue::Str(s) => str_field(out, ":", s),
        }
    }
}

fn jsonl_span(out: &mut String, s: &Span, mask_wall: bool) {
    let (wall_ns, wall_dur_ns) = if mask_wall {
        (0, 0)
    } else {
        (s.wall_ns, s.wall_dur_ns)
    };
    u64_field(out, "{\"t\":\"span\",\"seq\":", s.seq);
    u64_field(out, ",\"id\":", s.id);
    u64_field(out, ",\"parent\":", s.parent);
    str_field(out, ",\"name\":", &s.name);
    str_field(out, ",\"kind\":", s.kind.as_str());
    u64_field(out, ",\"wall_ns\":", wall_ns);
    u64_field(out, ",\"wall_dur_ns\":", wall_dur_ns);
    opt_f64_field(out, ",\"sim_secs\":", s.sim_secs);
    opt_f64_field(out, ",\"sim_dur_secs\":", s.sim_dur_secs);
    out.push_str(",\"attrs\":{");
    attr_fields(out, &s.attrs, "");
    out.push_str("}}");
}

fn jsonl_instant(out: &mut String, i: &InstantEvent, mask_wall: bool) {
    let wall_ns = if mask_wall { 0 } else { i.wall_ns };
    u64_field(out, "{\"t\":\"instant\",\"seq\":", i.seq);
    u64_field(out, ",\"parent\":", i.parent);
    str_field(out, ",\"name\":", &i.name);
    str_field(out, ",\"kind\":", i.kind.as_str());
    u64_field(out, ",\"wall_ns\":", wall_ns);
    opt_f64_field(out, ",\"sim_secs\":", i.sim_secs);
    out.push_str(",\"attrs\":{");
    attr_fields(out, &i.attrs, "");
    out.push_str("}}");
}

fn jsonl_metrics(out: &mut String, snap: &RegistrySnapshot) {
    out.push_str("{\"t\":\"metrics\",\"counters\":{");
    let mut lead = "";
    for (k, v) in &snap.counters {
        str_field(out, lead, k);
        lead = ",";
        u64_field(out, ":", *v);
    }
    out.push_str("},\"histograms\":{");
    let mut lead = "";
    for (k, h) in &snap.histograms {
        str_field(out, lead, k);
        lead = ",";
        u64_field(out, ":{\"count\":", h.count);
        u64_field(out, ",\"sum\":", h.sum);
        out.push_str(",\"buckets\":{");
        let mut lead = "\"";
        for (idx, n) in h.buckets.iter().enumerate().filter(|(_, n)| **n != 0) {
            u64_field(out, lead, idx as u64);
            lead = ",\"";
            u64_field(out, "\":", *n);
        }
        out.push_str("}}");
    }
    out.push_str("}}");
}

/// Output bytes to reserve ahead of writing: `per_event` for each record
/// (a JSONL line of this system's spans is ≈ 210 bytes) plus the footer.
/// Only a hint — a longer journal grows the buffer as any `String` does.
fn reserve_hint(
    events: &[TraceEvent],
    metrics: Option<&RegistrySnapshot>,
    per_event: usize,
) -> usize {
    let footer = metrics.map_or(0, |m| 64 + 48 * m.counters.len() + 192 * m.histograms.len());
    64 + per_event * events.len() + footer
}

/// Render a JSONL event journal: one record per line, in emission
/// (span-completion) order, with an optional metrics footer line.
/// `mask_wall` zeroes the wall-clock fields for byte-stable output.
pub fn jsonl(events: &[TraceEvent], metrics: Option<&RegistrySnapshot>, mask_wall: bool) -> String {
    let mut out = String::with_capacity(reserve_hint(events, metrics, 256));
    for ev in events {
        match ev {
            TraceEvent::Span(s) => jsonl_span(&mut out, s, mask_wall),
            TraceEvent::Instant(i) => jsonl_instant(&mut out, i, mask_wall),
        }
        out.push('\n');
    }
    if let Some(snap) = metrics {
        jsonl_metrics(&mut out, snap);
        out.push('\n');
    }
    out
}

/// Opens one Chrome item: the separator from the item before it, then
/// phase, track and timestamp (microseconds, sub-ns precision kept).
fn chrome_open(out: &mut String, ph: &str, pid: u64, ts_us: f64) {
    out.push_str(",\n{\"ph\":\"");
    out.push_str(ph);
    u64_field(out, "\",\"pid\":", pid);
    f64_field(out, ",\"tid\":1,\"ts\":", ts_us);
}

/// The half of a Chrome item that is the same on both tracks: name,
/// category and `args` (span id, parent, then the attributes).
fn chrome_tail(out: &mut String, name: &str, kind: SpanKind, id: u64, parent: u64, attrs: &Attrs) {
    str_field(out, ",\"name\":", name);
    str_field(out, ",\"cat\":", kind.as_str());
    u64_field(out, ",\"args\":{\"span_id\":", id);
    u64_field(out, ",\"parent\":", parent);
    attr_fields(out, attrs, ",");
    out.push_str("}}");
}

fn wall_us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn sim_us(secs: f64) -> f64 {
    secs * 1e6
}

/// Render a Chrome `trace_event` JSON object (`{"traceEvents":[...]}`)
/// loadable by Perfetto / `chrome://tracing`.
///
/// Every span becomes a `ph:"X"` complete event on the wall track
/// (pid 1); spans with both simulated endpoints also appear on the
/// simulated track (pid 2). Instants become `ph:"i"` events on the
/// tracks for which they have a timestamp.
pub fn chrome_trace(
    events: &[TraceEvent],
    metrics: Option<&RegistrySnapshot>,
    mask_wall: bool,
) -> String {
    let mut out = String::with_capacity(reserve_hint(events, metrics, 448));
    out.push_str("{\"traceEvents\":[\n");
    for (lead, pid, track) in [
        ("{\"ph\":\"M\",\"pid\":", CHROME_WALL_PID, "wall-clock"),
        (",\n{\"ph\":\"M\",\"pid\":", CHROME_SIM_PID, "sim-clock"),
    ] {
        u64_field(&mut out, lead, pid);
        str_field(
            &mut out,
            ",\"tid\":1,\"name\":\"process_name\",\"args\":{\"name\":",
            track,
        );
        out.push_str("}}");
    }
    for ev in events {
        // The sim-track twin of an item ends in the same bytes as the
        // wall-track one: they are copied, not rendered a second time.
        match ev {
            TraceEvent::Span(s) => {
                let (wall_ns, wall_dur) = if mask_wall {
                    (0, 0)
                } else {
                    (s.wall_ns, s.wall_dur_ns)
                };
                chrome_open(&mut out, "X", CHROME_WALL_PID, wall_us(wall_ns));
                f64_field(&mut out, ",\"dur\":", wall_us(wall_dur));
                let tail = out.len();
                chrome_tail(&mut out, &s.name, s.kind, s.id, s.parent, &s.attrs);
                if let (Some(start), Some(dur)) = (s.sim_secs, s.sim_dur_secs) {
                    let end = out.len();
                    chrome_open(&mut out, "X", CHROME_SIM_PID, sim_us(start));
                    f64_field(&mut out, ",\"dur\":", sim_us(dur));
                    out.extend_from_within(tail..end);
                }
            }
            TraceEvent::Instant(i) => {
                let wall_ns = if mask_wall { 0 } else { i.wall_ns };
                chrome_open(&mut out, "i", CHROME_WALL_PID, wall_us(wall_ns));
                out.push_str(",\"s\":\"t\"");
                let tail = out.len();
                chrome_tail(&mut out, &i.name, i.kind, 0, i.parent, &i.attrs);
                if let Some(sim) = i.sim_secs {
                    let end = out.len();
                    chrome_open(&mut out, "i", CHROME_SIM_PID, sim_us(sim));
                    out.push_str(",\"s\":\"t\"");
                    out.extend_from_within(tail..end);
                }
            }
        }
    }
    out.push_str("\n]");
    if let Some(snap) = metrics {
        // The JSONL metrics record, "t" discriminator included; parsers
        // that only read traceEvents (Perfetto) ignore unknown top-level
        // keys.
        out.push_str(",\"metrics\":");
        jsonl_metrics(&mut out, snap);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::span::{SpanKind, Tracer};

    fn sample_events() -> (Vec<TraceEvent>, RegistrySnapshot) {
        let (t, sink) = Tracer::to_memory();
        let outer = t.begin("phase.execute", SpanKind::Phase, Some(0.0));
        t.instant(
            "migration.decision",
            SpanKind::Migration,
            Some(0.25),
            vec![
                ("reason".to_string(), "Degraded".into()),
                ("line".to_string(), 3u64.into()),
            ],
        );
        t.end(outer, Some(1.5));
        let reg = MetricsRegistry::default();
        reg.counter_add("plan_cache.hits", 2);
        reg.observe("exec.chunk_sim_ns", 1000);
        (sink.events(), reg.snapshot())
    }

    #[test]
    fn jsonl_masking_zeroes_only_wall_fields() {
        let (events, snap) = sample_events();
        let masked = jsonl(&events, Some(&snap), true);
        assert!(masked.contains("\"wall_ns\":0"));
        assert!(masked.contains("\"sim_secs\":0.25"));
        assert!(masked.contains("\"sim_dur_secs\":1.5"));
        assert!(masked.contains("\"reason\":\"Degraded\""));
        assert!(masked.contains("\"t\":\"metrics\""));
        assert!(masked.contains("\"plan_cache.hits\":2"));
        // Masked output is reproducible regardless of wall clock.
        let again = jsonl(&events, Some(&snap), true);
        assert_eq!(masked, again);
        assert_eq!(masked.lines().count(), 3);
    }

    #[test]
    fn chrome_trace_has_both_tracks_and_valid_shape() {
        let (events, snap) = sample_events();
        let out = chrome_trace(&events, Some(&snap), true);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.trim_end().ends_with('}'));
        assert!(out.contains("\"name\":\"wall-clock\""));
        assert!(out.contains("\"name\":\"sim-clock\""));
        // Span appears on both pids; sim track ts = 0.0s -> 0us, dur 1.5s -> 1500000us.
        assert!(out.contains(&format!(
            "\"pid\":{CHROME_SIM_PID},\"tid\":1,\"ts\":0,\"dur\":1500000"
        )));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"cat\":\"migration\""));
        // Our own parser accepts it (shape check).
        let v = crate::journal::parse_json(&out).expect("chrome export parses");
        let obj = v.as_obj().expect("top-level object");
        assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(1.25), "1.25");
    }
}
