//! The `format!`-based exporters `crate::export` replaced: every field
//! rendered into a `String` of its own (`escape_json`, `fmt_f64`,
//! `fmt_attr`, `fmt_attrs`), then the record, then `push_str`; the Chrome
//! items collected in a `Vec<String>` before they are joined. Kept
//! verbatim — slow, and obviously what the committed goldens were
//! written with.

use std::fmt::Write as _;

use crate::export::{CHROME_SIM_PID, CHROME_WALL_PID};
use crate::metrics::RegistrySnapshot;
use crate::span::{AttrValue, Attrs, InstantEvent, Span, TraceEvent};

/// Escape a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Deterministic JSON rendering of an `f64`: shortest round-trip via
/// Rust's `Display`; non-finite values become `null` (JSON has no inf).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => fmt_f64(x),
        None => "null".to_string(),
    }
}

fn fmt_attr(v: &AttrValue) -> String {
    match v {
        AttrValue::U64(n) => format!("{n}"),
        AttrValue::F64(x) => fmt_f64(*x),
        AttrValue::Bool(b) => format!("{b}"),
        AttrValue::Str(s) => format!("\"{}\"", escape_json(s)),
    }
}

fn fmt_attrs(attrs: &Attrs) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(k), fmt_attr(v));
    }
    out.push('}');
    out
}

fn jsonl_span(s: &Span, mask_wall: bool) -> String {
    let (wall_ns, wall_dur_ns) = if mask_wall {
        (0, 0)
    } else {
        (s.wall_ns, s.wall_dur_ns)
    };
    format!(
        "{{\"t\":\"span\",\"seq\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"kind\":\"{}\",\"wall_ns\":{},\"wall_dur_ns\":{},\"sim_secs\":{},\"sim_dur_secs\":{},\"attrs\":{}}}",
        s.seq,
        s.id,
        s.parent,
        escape_json(&s.name),
        s.kind.as_str(),
        wall_ns,
        wall_dur_ns,
        fmt_opt_f64(s.sim_secs),
        fmt_opt_f64(s.sim_dur_secs),
        fmt_attrs(&s.attrs),
    )
}

fn jsonl_instant(i: &InstantEvent, mask_wall: bool) -> String {
    let wall_ns = if mask_wall { 0 } else { i.wall_ns };
    format!(
        "{{\"t\":\"instant\",\"seq\":{},\"parent\":{},\"name\":\"{}\",\"kind\":\"{}\",\"wall_ns\":{},\"sim_secs\":{},\"attrs\":{}}}",
        i.seq,
        i.parent,
        escape_json(&i.name),
        i.kind.as_str(),
        wall_ns,
        fmt_opt_f64(i.sim_secs),
        fmt_attrs(&i.attrs),
    )
}

fn jsonl_metrics(snap: &RegistrySnapshot) -> String {
    let mut out = String::from("{\"t\":\"metrics\",\"counters\":{");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(k), v);
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":{{",
            escape_json(k),
            h.count,
            h.sum
        );
        let mut first = true;
        for (idx, n) in h.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{idx}\":{n}");
        }
        out.push_str("}}");
    }
    out.push_str("}}");
    out
}

/// Render a JSONL event journal: one record per line, in emission
/// (span-completion) order, with an optional metrics footer line.
/// `mask_wall` zeroes the wall-clock fields for byte-stable output.
pub fn jsonl(events: &[TraceEvent], metrics: Option<&RegistrySnapshot>, mask_wall: bool) -> String {
    let mut out = String::new();
    for ev in events {
        match ev {
            TraceEvent::Span(s) => out.push_str(&jsonl_span(s, mask_wall)),
            TraceEvent::Instant(i) => out.push_str(&jsonl_instant(i, mask_wall)),
        }
        out.push('\n');
    }
    if let Some(snap) = metrics {
        out.push_str(&jsonl_metrics(snap));
        out.push('\n');
    }
    out
}

fn chrome_args(attrs: &Attrs, id: u64, parent: u64) -> String {
    let mut out = String::from("{");
    let _ = write!(out, "\"span_id\":{id},\"parent\":{parent}");
    for (k, v) in attrs {
        let _ = write!(out, ",\"{}\":{}", escape_json(k), fmt_attr(v));
    }
    out.push('}');
    out
}

/// Microseconds with sub-ns precision preserved, rendered
/// deterministically.
fn wall_us(ns: u64) -> String {
    fmt_f64(ns as f64 / 1000.0)
}

fn sim_us(secs: f64) -> String {
    fmt_f64(secs * 1e6)
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
    let mut items: Vec<String> = vec![
        format!(
            "{{\"ph\":\"M\",\"pid\":{CHROME_WALL_PID},\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"wall-clock\"}}}}"
        ),
        format!(
            "{{\"ph\":\"M\",\"pid\":{CHROME_SIM_PID},\"tid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"sim-clock\"}}}}"
        ),
    ];
    for ev in events {
        match ev {
            TraceEvent::Span(s) => {
                let (wall_ns, wall_dur) = if mask_wall {
                    (0, 0)
                } else {
                    (s.wall_ns, s.wall_dur_ns)
                };
                let args = chrome_args(&s.attrs, s.id, s.parent);
                items.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{CHROME_WALL_PID},\"tid\":1,\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                    wall_us(wall_ns),
                    wall_us(wall_dur),
                    escape_json(&s.name),
                    s.kind.as_str(),
                    args,
                ));
                if let (Some(start), Some(dur)) = (s.sim_secs, s.sim_dur_secs) {
                    items.push(format!(
                        "{{\"ph\":\"X\",\"pid\":{CHROME_SIM_PID},\"tid\":1,\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                        sim_us(start),
                        sim_us(dur),
                        escape_json(&s.name),
                        s.kind.as_str(),
                        args,
                    ));
                }
            }
            TraceEvent::Instant(i) => {
                let wall_ns = if mask_wall { 0 } else { i.wall_ns };
                let args = chrome_args(&i.attrs, 0, i.parent);
                items.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{CHROME_WALL_PID},\"tid\":1,\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                    wall_us(wall_ns),
                    escape_json(&i.name),
                    i.kind.as_str(),
                    args,
                ));
                if let Some(sim) = i.sim_secs {
                    items.push(format!(
                        "{{\"ph\":\"i\",\"pid\":{CHROME_SIM_PID},\"tid\":1,\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\",\"args\":{}}}",
                        sim_us(sim),
                        escape_json(&i.name),
                        i.kind.as_str(),
                        args,
                    ));
                }
            }
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, item) in items.iter().enumerate() {
        out.push_str(item);
        if i + 1 < items.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    if let Some(snap) = metrics {
        out.push_str(",\"metrics\":");
        // Reuse the JSONL metrics object minus its "t" discriminator by
        // embedding the full record; parsers that only read traceEvents
        // (Perfetto) ignore unknown top-level keys.
        out.push_str(&jsonl_metrics(snap));
    }
    out.push_str("}\n");
    out
}
