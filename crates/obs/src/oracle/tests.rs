//! The two codec differentials: `crate::export` and `crate::journal`
//! against the implementations they replaced. Every case is seeded and
//! the seed is in the failure message.

use std::collections::BTreeMap;
use std::panic::catch_unwind;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use super::{read, write};
use crate::export;
use crate::journal::{parse_journal, parse_json, Journal, JsonValue};
use crate::metrics::{Histogram, RegistrySnapshot, HISTOGRAM_BUCKETS};
use crate::span::{AttrValue, Attrs, InstantEvent, Span, SpanKind, TraceEvent};

const GOLDEN_JSONL: &str = include_str!("../../../../tests/golden/fig5_tpch6_trace.jsonl");
const GOLDEN_CHROME: &str = include_str!("../../../../tests/golden/trace_chrome.json");

const HOSTILE_CASES: u64 = 600;
const HOSTILE_SEED: u64 = 0x0B5_C0DE_0000;

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

// ---- hostile events: what the writers must escape and render ----

/// One piece per case of the escaper, plus text that looks like JSON
/// structure or like an escape once it is inside a string.
const PIECES: [&str; 18] = [
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "/",
    "\u{7f}",
    "\u{80}",
    "é",
    "✓",
    "\u{2028}",
    "𝄞",
    "exec.chunk",
    "a b",
    "\\u0041",
    "\\n",
    "\"},{\"t\":\"span\"",
    "\":[",
];

const FLOATS: [f64; 16] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -0.0,
    0.0,
    5e-324,
    f64::MIN_POSITIVE / 8.0,
    f64::MIN_POSITIVE,
    1e300,
    f64::MAX,
    f64::MIN,
    0.1,
    1.5,
    1e21,
    1e-7,
    0.020125268370914995,
];

/// The ends of every digit count, and what only a `u64` holds.
const INTS: [u64; 12] = [
    0,
    1,
    9,
    10,
    99,
    100,
    999_999_999,
    1_000_000_000,
    9_999_999_999_999_999_999,
    10_000_000_000_000_000_000,
    u64::MAX - 1,
    u64::MAX,
];

const KINDS: [SpanKind; 7] = [
    SpanKind::Phase,
    SpanKind::Device,
    SpanKind::Kernel,
    SpanKind::Monitor,
    SpanKind::Migration,
    SpanKind::Fault,
    SpanKind::Recovery,
];

/// Zero to five pieces: the empty string, a bare control byte and
/// multi-byte characters next to escapes all come up.
fn hostile_string(rng: &mut StdRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..6u32) {
        if rng.gen_bool(0.25) {
            s.push(char::from(rng.gen_range(0..0x20u8)));
        } else {
            s.push_str(pick(rng, &PIECES));
        }
    }
    s
}

fn hostile_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..3u32) {
        0 => f64::from_bits(rng.next_u64()),
        1 => rng.gen_range(-1e6..1e6),
        _ => pick(rng, &FLOATS),
    }
}

fn hostile_u64(rng: &mut StdRng) -> u64 {
    if rng.gen_bool(0.3) {
        rng.next_u64() >> rng.gen_range(0..64u32)
    } else {
        pick(rng, &INTS)
    }
}

fn hostile_attrs(rng: &mut StdRng) -> Attrs {
    let count = match rng.gen_range(0..4u32) {
        0 => 0,
        1 => 8,
        _ => rng.gen_range(1..=4usize),
    };
    (0..count)
        .map(|_| {
            let value = match rng.gen_range(0..4u32) {
                0 => AttrValue::U64(hostile_u64(rng)),
                1 => AttrValue::F64(hostile_f64(rng)),
                2 => AttrValue::Bool(rng.gen_bool(0.5)),
                _ => AttrValue::Str(hostile_string(rng)),
            };
            (hostile_string(rng), value)
        })
        .collect()
}

fn hostile_event(rng: &mut StdRng) -> TraceEvent {
    let sim = |rng: &mut StdRng| (!rng.gen_bool(0.3)).then(|| hostile_f64(rng));
    if rng.gen_bool(0.5) {
        TraceEvent::Span(Span {
            id: hostile_u64(rng),
            parent: hostile_u64(rng),
            seq: hostile_u64(rng),
            name: hostile_string(rng),
            kind: pick(rng, &KINDS),
            wall_ns: hostile_u64(rng),
            wall_dur_ns: hostile_u64(rng),
            sim_secs: sim(rng),
            sim_dur_secs: sim(rng),
            attrs: hostile_attrs(rng),
        })
    } else {
        TraceEvent::Instant(InstantEvent {
            parent: hostile_u64(rng),
            seq: hostile_u64(rng),
            name: hostile_string(rng),
            kind: pick(rng, &KINDS),
            wall_ns: hostile_u64(rng),
            sim_secs: sim(rng),
            attrs: hostile_attrs(rng),
        })
    }
}

/// A footer whose histograms have `filled` non-empty buckets each.
fn hostile_footer(rng: &mut StdRng, filled: usize) -> RegistrySnapshot {
    let counters = (0..rng.gen_range(0..4u32))
        .map(|_| (hostile_string(rng), hostile_u64(rng)))
        .collect();
    let histograms = (0..rng.gen_range(1..3u32))
        .map(|_| {
            let mut h = Histogram {
                count: hostile_u64(rng),
                sum: hostile_u64(rng),
                ..Histogram::default()
            };
            let first = rng.gen_range(0..HISTOGRAM_BUCKETS);
            for k in 0..filled {
                h.buckets[(first + k) % HISTOGRAM_BUCKETS] = hostile_u64(rng).max(1);
            }
            (hostile_string(rng), h)
        })
        .collect();
    RegistrySnapshot {
        counters,
        histograms,
    }
}

/// Every byte below 0x20 and every float and integer on the lists, in a
/// record of each type: the sweep the random cases only sample. Its own
/// integer fields stay below 2⁶⁴ − 2¹⁰, so the reader takes it back.
fn sweep_events() -> Vec<TraceEvent> {
    let controls: String = (0..0x20u8).map(char::from).collect();
    let mut attrs: Attrs = vec![(controls.clone(), AttrValue::Str(controls.clone()))];
    attrs.extend(
        FLOATS
            .iter()
            .map(|x| (format!("{x:e}"), AttrValue::F64(*x))),
    );
    attrs.extend(INTS.iter().map(|n| (String::new(), AttrValue::U64(*n))));
    let mut events = Vec::new();
    for (seq, x) in FLOATS.iter().enumerate() {
        events.push(TraceEvent::Span(Span {
            id: 1 << 53,
            parent: 0,
            seq: seq as u64,
            name: controls.clone(),
            kind: SpanKind::Device,
            wall_ns: 10_000_000_000_000_000_000,
            wall_dur_ns: 1,
            sim_secs: Some(*x),
            sim_dur_secs: Some(-*x),
            attrs: attrs.clone(),
        }));
        events.push(TraceEvent::Instant(InstantEvent {
            parent: 0,
            seq: seq as u64,
            name: String::new(),
            kind: SpanKind::Fault,
            wall_ns: 999,
            sim_secs: Some(*x),
            attrs: Vec::new(),
        }));
    }
    events
}

/// Case 0 is the sweep; one case in eight has no events; the footer is
/// absent or has histograms of zero, one or 64 non-empty buckets.
fn hostile_case(case: u64) -> (Vec<TraceEvent>, Option<RegistrySnapshot>) {
    let rng = &mut StdRng::seed_from_u64(HOSTILE_SEED + case);
    let events = match case {
        0 => sweep_events(),
        _ if case % 8 == 1 => Vec::new(),
        _ => (0..rng.gen_range(1..6u32))
            .map(|_| hostile_event(rng))
            .collect(),
    };
    let footer = match case % 4 {
        0 => None,
        1 => Some(hostile_footer(rng, 0)),
        2 => Some(hostile_footer(rng, 1)),
        _ => Some(hostile_footer(rng, 64)),
    };
    (events, footer)
}

#[test]
fn the_writers_emit_the_oracles_bytes() {
    for case in 0..HOSTILE_CASES {
        let (events, footer) = hostile_case(case);
        let what = format!("writer case {case} (seed {:#x})", HOSTILE_SEED + case);
        for mask in [true, false] {
            for metrics in [footer.as_ref(), None] {
                assert_eq!(
                    export::jsonl(&events, metrics, mask),
                    write::jsonl(&events, metrics, mask),
                    "{what}: jsonl, mask {mask}"
                );
                assert_eq!(
                    export::chrome_trace(&events, metrics, mask),
                    write::chrome_trace(&events, metrics, mask),
                    "{what}: chrome_trace, mask {mask}"
                );
            }
        }
        // The two public helpers are wrappers over the same field writers.
        let rng = &mut StdRng::seed_from_u64(HOSTILE_SEED + case);
        let (s, x) = (hostile_string(rng), hostile_f64(rng));
        assert_eq!(export::escape_json(&s), write::escape_json(&s), "{what}");
        assert_eq!(export::fmt_f64(x), write::fmt_f64(x), "{what}");
    }
}

// ---- the reader against the tree-based one ----

/// Bytes of every `String` a journal owns.
fn owned_bytes(journal: &Journal) -> usize {
    fn tree(v: &JsonValue) -> usize {
        match v {
            JsonValue::Str(s) => s.len(),
            JsonValue::Arr(items) => items.iter().map(tree).sum(),
            JsonValue::Obj(fields) => pairs(fields),
            _ => 0,
        }
    }
    fn pairs(fields: &[(String, JsonValue)]) -> usize {
        fields.iter().map(|(k, v)| k.len() + tree(v)).sum()
    }
    let spans = journal.spans.iter();
    let instants = journal.instants.iter();
    spans
        .map(|s| s.name.len() + s.kind.len() + pairs(&s.attrs))
        .chain(instants.map(|i| i.name.len() + i.kind.len() + pairs(&i.attrs)))
        .sum::<usize>()
        + journal.metrics.as_ref().map_or(0, tree)
}

/// Reads `text` with both readers and demands one outcome: equal
/// journals or equal error texts, no panic, and no more owned string
/// bytes than the input had (nothing is allocated from a length field —
/// there is none). `parse_json`, on the text and on each of its lines,
/// must build the tree it always built.
fn read_both(text: &str, what: &str) -> Result<Journal, String> {
    let new = catch_unwind(|| parse_journal(text))
        .unwrap_or_else(|_| panic!("{what}: parse_journal panicked"));
    match (&new, &read::parse_journal(text)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.spans, old.spans, "{what}: spans");
            assert_eq!(new.instants, old.instants, "{what}: instants");
            assert_eq!(new.metrics, old.metrics, "{what}: metrics");
            assert_eq!(new.torn_lines, old.torn_lines, "{what}: torn lines");
            let owned = owned_bytes(new);
            assert!(
                owned <= text.len(),
                "{what}: {owned} B owned of {} B read",
                text.len()
            );
        }
        (Err(new), Err(old)) => assert_eq!(new, old, "{what}: error text"),
        (new, old) => panic!("{what}: read {new:?} where the oracle read {old:?}"),
    }
    for doc in std::iter::once(text).chain(text.lines()) {
        let tree = catch_unwind(|| parse_json(doc))
            .unwrap_or_else(|_| panic!("{what}: parse_json panicked"));
        assert_eq!(tree, read::parse_json(doc), "{what}: parse_json of {doc:?}");
    }
    new
}

#[test]
fn committed_and_hostile_journals_read_back_alike() {
    let golden = read_both(GOLDEN_JSONL, "the golden journal").expect("the golden journal reads");
    assert_eq!(
        (
            golden.spans.len() + golden.instants.len(),
            golden.torn_lines
        ),
        (GOLDEN_JSONL.lines().count() - 1, 0)
    );
    assert!(golden.metrics.is_some());
    // Not a JSONL journal; whatever the old reader made of it, so must the new.
    let _ = read_both(GOLDEN_CHROME, "the golden Chrome trace");

    // What the writer wrote reads back as it was written — unless one of
    // its integers is within 2¹⁰ of `u64::MAX`, which an `f64` rounds to
    // 2⁶⁴ and `as_u64` refuses; the two readers must agree on those too.
    let mut round_trips = 0;
    for case in 0..HOSTILE_CASES {
        let (events, footer) = hostile_case(case);
        let what = format!("reader case {case} (seed {:#x})", HOSTILE_SEED + case);
        let text = export::jsonl(&events, footer.as_ref(), case % 2 == 0);
        let Ok(journal) = read_both(&text, &what) else {
            continue;
        };
        if journal.torn_lines != 0 {
            continue;
        }
        round_trips += 1;
        assert_eq!(journal.metrics.is_some(), footer.is_some(), "{what}");
        let mut written: Vec<&str> = events
            .iter()
            .map(|ev| match ev {
                TraceEvent::Span(s) => s.name.as_str(),
                TraceEvent::Instant(i) => i.name.as_str(),
            })
            .collect();
        let spans = journal.spans.iter().map(|s| s.name.as_str());
        let mut read: Vec<&str> = spans
            .chain(journal.instants.iter().map(|i| i.name.as_str()))
            .collect();
        written.sort_unstable();
        read.sort_unstable();
        assert_eq!(read, written, "{what}: names");
        assert!(case != 0 || read.len() == 2 * FLOATS.len(), "the sweep");
    }
    assert!(
        round_trips > HOSTILE_CASES / 4,
        "only {round_trips} round trips"
    );
}

/// A traced, faulted run of each registered program, planned under the
/// same tracer: the journals the system actually writes. The runtime
/// links the *non-test* build of this crate (`linked`), whose types are
/// not this build's, so only text crosses over.
#[test]
fn the_twelve_registered_plans_journals_read_back_alike() {
    use activepy::isp_obs as linked;
    use activepy::runtime::{ActivePy, ActivePyOptions};
    let config = csd_sim::SystemConfig::paper_default();
    let faults = csd_sim::fault::FaultPlan::none()
        .with_seed(0x0B5)
        .with_flash_read_error_prob(0.05)
        .with_nvme_error_prob(0.05)
        .with_dma_error_prob(0.05);
    let apps = isp_workloads::full_set();
    assert_eq!(apps.len(), 12);
    for app in apps {
        let (tracer, sink) = linked::Tracer::to_memory();
        let rt = ActivePy::with_options(
            ActivePyOptions::default()
                .with_faults(faults.clone())
                .with_tracer(tracer.clone()),
        );
        let program = app.program().expect("registered program parses");
        let plan = rt.plan(&program, &app, &config).expect("plans");
        rt.execute_plan(&plan, &config, csd_sim::ContentionScenario::none())
            .expect("runs");
        let snapshot = tracer.metrics_snapshot();
        for mask in [true, false] {
            let text = linked::export::jsonl(&sink.events(), snapshot.as_ref(), mask);
            let journal = read_both(&text, app.name()).expect("a real journal reads");
            assert_eq!(
                (
                    journal.spans.len() + journal.instants.len(),
                    journal.torn_lines
                ),
                (sink.len(), 0),
                "{}",
                app.name()
            );
            assert!(
                journal.metrics.is_some() && sink.len() > 16,
                "{}",
                app.name()
            );
        }
    }
}

// ---- the fuzz: seeded mutations of a real journal ----

/// The committed golden thinned to three lines of each record name,
/// footer last: every shape the system writes, small enough to read
/// thousands of times in a debug build.
fn fuzz_base() -> Vec<&'static str> {
    let mut kept = BTreeMap::<&str, u32>::new();
    let base: Vec<&str> = GOLDEN_JSONL
        .lines()
        .filter(|line| {
            let name = line.split("\"name\":\"").nth(1);
            let name = name.and_then(|rest| rest.split('"').next()).unwrap_or("");
            let n = kept.entry(name).or_default();
            *n += 1;
            *n <= 3
        })
        .collect();
    // The mutators cut and splice by byte offset.
    assert!(base.iter().all(|line| line.is_ascii()) && base.len() > 30);
    assert!(base[base.len() - 1].starts_with("{\"t\":\"metrics\""));
    base
}

/// The fields of an object body, split at its top-level commas.
fn top_level_fields(body: &str) -> Vec<&str> {
    let (mut depth, mut quoted, mut escaped, mut start) = (0u32, false, false, 0);
    let mut fields = Vec::new();
    for (i, b) in body.bytes().enumerate() {
        if quoted {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => quoted = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => quoted = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b',' if depth == 0 => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    fields
}

/// Fields put ahead of a line's own (first occurrence: they win) or
/// behind them (they lose): duplicates of every typed key with the wrong
/// and the right type, and unknown keys with nested values to skip.
const EXTRA_FIELDS: [&str; 16] = [
    "\"id\":99",
    "\"id\":\"99\"",
    "\"seq\":1e300",
    "\"parent\":-1",
    "\"t\":\"span\"",
    "\"t\":\"instant\"",
    "\"t\":\"metrics\"",
    "\"t\":7",
    "\"name\":5",
    "\"kind\":null",
    "\"attrs\":[1,2]",
    "\"attrs\":{\"x\":{\"y\":[null,true,\"z\"]}}",
    "\"sim_secs\":null",
    "\"sim_dur_secs\":\"0.5\"",
    "\"zzz\":{\"a\":[1,{\"b\":\"c\\n\"}],\"\":[]}",
    "\"\\u0069d\":3",
];

const ESCAPES: [&str; 13] = [
    "\\u0041",
    "\\u00e9",
    "\\u2713",
    "\\ud800",
    "\\udc00\\ud834",
    "\\u12",
    "\\u",
    "\\uZZZZ",
    "\\u+123",
    "\\u00é",
    "\\x",
    "\\/\\b\\f\\n\\r\\t\\\"\\\\",
    "\\",
];

const NUMBERS: [&str; 24] = [
    "-0",
    "007",
    "1e5",
    "-",
    "1e300",
    "18446744073709551616",
    "18446744073709551615",
    "9007199254740992",
    "9007199254740993",
    "1.5",
    "1.0",
    "-1",
    "1e",
    "1.",
    "0x10",
    "1e-2",
    "1E+2",
    "+1",
    ".5",
    "null",
    "\"5\"",
    "true",
    "[1]",
    "{}",
];

const NUMBER_KEYS: [&str; 7] = [
    "seq",
    "id",
    "parent",
    "wall_ns",
    "wall_dur_ns",
    "sim_secs",
    "sim_dur_secs",
];

/// One mutation of the journal `base`. Byte-level damage goes through
/// `from_utf8_lossy`, as a lossy read of a damaged file would.
fn mutate(base: &[&str], rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = base.iter().map(|line| (*line).to_owned()).collect();
    let n = lines.len();
    let at = rng.gen_range(0..n);
    let lossy = |bytes: Vec<u8>| String::from_utf8_lossy(&bytes).into_owned();
    match rng.gen_range(0..12u32) {
        // One to three bit flips.
        0 => {
            let mut bytes = (lines.join("\n") + "\n").into_bytes();
            for _ in 0..rng.gen_range(1..=3u32) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
            }
            return lossy(bytes);
        }
        // A truncation anywhere.
        1 => {
            let mut bytes = lines.join("\n").into_bytes();
            bytes.truncate(rng.gen_range(0..bytes.len()));
            return lossy(bytes);
        }
        // A truncation inside the last line: the crash-torn tail.
        2 => {
            let keep = rng.gen_range(0..lines[n - 1].len());
            lines[n - 1].truncate(keep);
        }
        // A line cut short in the middle of the file.
        3 => {
            let at = rng.gen_range(0..n - 1);
            let keep = rng.gen_range(0..lines[at].len());
            lines[at].truncate(keep);
        }
        // A splice: part of one line over part of another.
        4 => {
            let from = lines[rng.gen_range(0..n)].clone();
            let len = rng.gen_range(1..=from.len().min(lines[at].len()));
            let src = rng.gen_range(0..=from.len() - len);
            let dst = rng.gen_range(0..=lines[at].len() - len);
            lines[at].replace_range(dst..dst + len, &from[src..src + len]);
        }
        // A duplicated line.
        5 => {
            let copy = lines[at].clone();
            lines.insert(rng.gen_range(0..=n), copy);
        }
        // A duplicate or unknown key, ahead of or behind the line's own.
        6 | 7 => {
            let field = pick(rng, &EXTRA_FIELDS);
            if rng.gen_bool(0.5) {
                lines[at].insert_str(1, &format!("{field},"));
            } else {
                let end = lines[at].len() - 1;
                lines[at].insert_str(end, &format!(",{field}"));
            }
        }
        // Reordered keys.
        8 => {
            let body = lines[at][1..lines[at].len() - 1].to_owned();
            let mut fields = top_level_fields(&body);
            let by = rng.gen_range(0..fields.len());
            fields.rotate_left(by);
            let (a, b) = (
                rng.gen_range(0..fields.len()),
                rng.gen_range(0..fields.len()),
            );
            fields.swap(a, b);
            lines[at] = format!("{{{}}}", fields.join(","));
        }
        // Added whitespace: inside a line, around it, a blank line, CRLF.
        9 => match rng.gen_range(0..4u32) {
            0 => lines[at] = lines[at].replace(',', " ,\t").replace(':', " : "),
            1 => lines[at] = format!("  \t{} \r", lines[at]),
            2 => lines.insert(at, " \t ".to_owned()),
            _ => return lines.join("\r\n"),
        },
        // A `\u` (or other) escape in a name, an attribute key or the
        // typed keys themselves; sometimes the file ends right after it.
        10 => {
            let esc = pick(rng, &ESCAPES);
            lines[at] = match rng.gen_range(0..3u32) {
                0 => lines[at].replacen("\"name\":\"", &format!("\"name\":\"{esc}"), 1),
                1 => lines[at].replacen("\"attrs\":{\"", &format!("\"attrs\":{{\"{esc}"), 1),
                _ => lines[at].replacen("\"seq\"", "\"\\u0073eq\"", 1).replacen(
                    "\"t\"",
                    "\"\\u0074\"",
                    1,
                ),
            };
            if let (true, Some(found)) = (rng.gen_bool(0.25), lines[at].find(esc)) {
                lines[at].truncate(found + esc.len());
                lines.truncate(at + 1);
            }
        }
        // A number the grammar or `as_u64` has an opinion on.
        _ => {
            let lead = format!("\"{}\":", pick(rng, &NUMBER_KEYS));
            if let Some(found) = lines[at].find(&lead) {
                let from = found + lead.len();
                let len = lines[at][from..]
                    .find([',', '}'])
                    .expect("a value ends at a comma or a brace");
                lines[at].replace_range(from..from + len, pick(rng, &NUMBERS));
            }
        }
    }
    lines.join("\n") + "\n"
}

#[test]
fn mutated_journals_read_as_the_oracle_reads_them_never_a_panic() {
    const CASES: u64 = 2_000;
    let base = fuzz_base();
    let whole = read_both(&(base.join("\n") + "\n"), "the fuzz base").expect("the base reads");
    let records = whole.spans.len() + whole.instants.len();
    assert_eq!((records, whole.torn_lines), (base.len() - 1, 0));

    let (mut intact, mut torn, mut refused) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let seed = 0x15_0B5F_0000 + case;
        let text = mutate(&base, &mut StdRng::seed_from_u64(seed));
        match read_both(&text, &format!("journal fuzz seed {seed:#x}")) {
            Ok(journal) if journal.torn_lines == 0 => intact += 1,
            Ok(_) => torn += 1,
            Err(_) => refused += 1,
        }
    }
    // The mutator must reach every outcome, not only break the file.
    assert!(intact > CASES / 10, "only {intact} journals read whole");
    assert!(
        torn > CASES / 20,
        "only {torn} journals lost just their tail"
    );
    assert!(refused > CASES / 10, "only {refused} journals were refused");
}

#[test]
fn a_cut_at_every_byte_of_the_last_line_costs_that_line_only() {
    let base = fuzz_base();
    let footer = base[base.len() - 1];
    let span = base
        .iter()
        .find(|l| l.contains("\"t\":\"span\"") && l.contains("\"attrs\":{\""));
    for (last, what) in [
        (footer, "footer"),
        (*span.expect("a span with attributes"), "span"),
    ] {
        let head = base[..3].join("\n") + "\n";
        let before = read_both(&head, what).expect("the head reads");
        for cut in 0..last.len() {
            let text = format!("{head}{}", &last[..cut]);
            let journal = read_both(&text, &format!("{what} cut at byte {cut}"))
                .expect("a torn tail is not an error");
            assert_eq!(journal.spans, before.spans, "{what} cut at {cut}");
            assert_eq!(journal.instants, before.instants, "{what} cut at {cut}");
            assert_eq!(journal.metrics, None, "{what} cut at {cut}");
            assert_eq!(
                journal.torn_lines,
                u32::from(cut > 0),
                "{what} cut at {cut}"
            );
        }
    }
}
