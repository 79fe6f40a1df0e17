//! Dual-clock span/event model and the [`Tracer`] recording handle.
//!
//! Every span carries two timestamps: `wall_ns` (host monotonic
//! nanoseconds since the tracer's epoch) and an optional `sim_secs`
//! (simulated device-clock seconds at span start). Durations are stored
//! on the span itself (`wall_dur_ns`, `sim_dur_secs`), so one record per
//! span lands in the sink — at `end()` time — and journal order is span
//! *completion* order, which is deterministic for a deterministic
//! computation.
//!
//! A disabled tracer is `Tracer { inner: None }`: every recording method
//! is a single branch with no allocation, no lock, and no clock read.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::metrics::{MetricsRegistry, RegistrySnapshot};

/// Category of a span or instant event; selects the row in the span
/// taxonomy table (DESIGN.md §5.12) and the `cat` field of Chrome
/// exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A pipeline phase: sampling, fit, profit, assign, compile, execute.
    Phase,
    /// Simulated-device work: region execution, per-region chunks, host
    /// lines, data staging.
    Device,
    /// A data-parallel kernel invocation inside the interpreter/VM.
    Kernel,
    /// A Monitor IPC observation window.
    Monitor,
    /// A migration decision (always an instant, with a `reason` attr).
    Migration,
    /// An injected device fault surfacing to the runtime.
    Fault,
    /// Recovery machinery: retries and backoff waits.
    Recovery,
}

impl SpanKind {
    /// Stable lower-case name used in journals and Chrome `cat` fields.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Phase => "phase",
            SpanKind::Device => "device",
            SpanKind::Kernel => "kernel",
            SpanKind::Monitor => "monitor",
            SpanKind::Migration => "migration",
            SpanKind::Fault => "fault",
            SpanKind::Recovery => "recovery",
        }
    }

    /// Inverse of [`SpanKind::as_str`]; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "phase" => SpanKind::Phase,
            "device" => SpanKind::Device,
            "kernel" => SpanKind::Kernel,
            "monitor" => SpanKind::Monitor,
            "migration" => SpanKind::Migration,
            "fault" => SpanKind::Fault,
            "recovery" => SpanKind::Recovery,
            _ => return None,
        })
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An attribute value attached to a span or instant.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute (counts, ids, byte sizes).
    U64(u64),
    /// Floating-point attribute (ratios, simulated seconds).
    F64(f64),
    /// Boolean attribute.
    Bool(bool),
    /// String attribute (names, reasons, engine labels).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// Attribute list; insertion order is preserved in exports.
pub type Attrs = Vec<(String, AttrValue)>;

/// A completed span: a named interval on both clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within a trace (1-based; 0 is "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 at top level.
    pub parent: u64,
    /// Global record sequence number (completion order).
    pub seq: u64,
    /// Dotted span name, e.g. `phase.sampling` or `exec.region`.
    pub name: String,
    /// Taxonomy kind.
    pub kind: SpanKind,
    /// Host nanoseconds since tracer epoch at span start.
    pub wall_ns: u64,
    /// Host duration in nanoseconds.
    pub wall_dur_ns: u64,
    /// Simulated clock (seconds) at span start, when the span tracks
    /// simulated work.
    pub sim_secs: Option<f64>,
    /// Simulated duration in seconds, when both endpoints were on the
    /// simulated clock.
    pub sim_dur_secs: Option<f64>,
    /// Attributes, in insertion order.
    pub attrs: Attrs,
}

/// A point event (no duration), e.g. a migration decision or an injected
/// fault.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Id of the enclosing span, or 0 at top level.
    pub parent: u64,
    /// Global record sequence number.
    pub seq: u64,
    /// Dotted event name, e.g. `migration.decision`.
    pub name: String,
    /// Taxonomy kind.
    pub kind: SpanKind,
    /// Host nanoseconds since tracer epoch.
    pub wall_ns: u64,
    /// Simulated clock (seconds), when meaningful.
    pub sim_secs: Option<f64>,
    /// Attributes, in insertion order.
    pub attrs: Attrs,
}

/// One record delivered to a [`MemorySink`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A completed span.
    Span(Span),
    /// A point event.
    Instant(InstantEvent),
}

impl TraceEvent {
    /// The record's global sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            TraceEvent::Span(s) => s.seq,
            TraceEvent::Instant(i) => i.seq,
        }
    }
}

/// The destination of a live tracer's records: every record buffered in
/// memory, in emission order, for tests and for end-of-run export. The
/// tracer itself serializes record emission (span completion order).
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// Deliver one record.
    fn record(&self, event: TraceEvent) {
        self.events.lock().expect("sink poisoned").push(event);
    }

    /// Snapshot of all records so far, in emission order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("sink poisoned").clone()
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("sink poisoned").len()
    }

    /// True when no records have been delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Open-span state carried between [`Tracer::begin`] and [`Tracer::end`].
///
/// A handle from a disabled tracer is inert. Dropping a live handle
/// without `end()` loses the span (acceptable on error-propagation
/// paths) but never corrupts sibling spans: parent tracking removes the
/// abandoned id lazily.
#[derive(Debug)]
#[must_use = "a span handle must be passed back to Tracer::end to record the span"]
pub struct SpanHandle {
    state: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    name: String,
    kind: SpanKind,
    wall_ns: u64,
    sim_secs: Option<f64>,
    attrs: Attrs,
}

impl SpanHandle {
    /// Handle that records nothing; what a disabled tracer returns.
    pub fn inert() -> Self {
        SpanHandle { state: None }
    }
}

#[derive(Debug)]
struct TracerInner {
    sink: Arc<MemorySink>,
    epoch: Instant,
    next_id: AtomicU64,
    seq: AtomicU64,
    /// Stack of currently-open span ids on the recording thread;
    /// determines the `parent` of new spans/instants.
    stack: Mutex<Vec<u64>>,
    metrics: MetricsRegistry,
}

/// The recording handle threaded through the pipeline.
///
/// Cloning is cheap (an `Arc` clone); all clones share one sink, one id
/// space, and one metrics registry. `Tracer::default()` is disabled.
///
/// Equality is identity: two tracers are equal iff both are disabled or
/// both share the same inner state. This lets option structs that derive
/// `PartialEq` carry a tracer without breaking their semantics.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl PartialEq for Tracer {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Tracer {
    /// A tracer that records nothing. All methods are near-free.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A live tracer plus the [`MemorySink`] it records to. The
    /// wall-clock epoch is the moment of this call.
    pub fn to_memory() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::default());
        let tracer = Tracer {
            inner: Some(Arc::new(TracerInner {
                sink: Arc::clone(&sink),
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                seq: AtomicU64::new(1),
                stack: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::default(),
            })),
        };
        (tracer, sink)
    }

    /// True when records are being captured.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `build()` when recording, an empty (unallocated) list otherwise.
    /// An attribute list is a `Vec` and usually a `String` or two, so call
    /// sites on hot paths build theirs through this and pay nothing for a
    /// disabled tracer.
    pub fn attrs(&self, build: impl FnOnce() -> Attrs) -> Attrs {
        if self.is_enabled() {
            build()
        } else {
            Vec::new()
        }
    }

    /// Open a span. `sim_secs` is the simulated clock at start, when the
    /// span tracks simulated work.
    pub fn begin(&self, name: &str, kind: SpanKind, sim_secs: Option<f64>) -> SpanHandle {
        self.begin_with(name, kind, sim_secs, Vec::new())
    }

    /// Open a span with initial attributes.
    pub fn begin_with(
        &self,
        name: &str,
        kind: SpanKind,
        sim_secs: Option<f64>,
        attrs: Attrs,
    ) -> SpanHandle {
        let Some(inner) = &self.inner else {
            return SpanHandle::inert();
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let wall_ns = inner.epoch.elapsed().as_nanos() as u64;
        let parent = {
            let mut stack = inner.stack.lock().expect("tracer stack poisoned");
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(id);
            parent
        };
        SpanHandle {
            state: Some(OpenSpan {
                id,
                parent,
                name: name.to_string(),
                kind,
                wall_ns,
                sim_secs,
                attrs,
            }),
        }
    }

    /// Close a span and deliver its record. `sim_secs` is the simulated
    /// clock at end; the simulated duration is recorded only when both
    /// endpoints were supplied.
    pub fn end(&self, handle: SpanHandle, sim_secs: Option<f64>) {
        self.end_with(handle, sim_secs, Vec::new());
    }

    /// Close a span, appending attributes discovered during its body.
    pub fn end_with(&self, handle: SpanHandle, sim_secs: Option<f64>, extra_attrs: Attrs) {
        let (Some(inner), Some(mut open)) = (&self.inner, handle.state) else {
            return;
        };
        let wall_now = inner.epoch.elapsed().as_nanos() as u64;
        let wall_dur_ns = wall_now.saturating_sub(open.wall_ns);
        let sim_dur_secs = match (open.sim_secs, sim_secs) {
            (Some(start), Some(end)) => Some((end - start).max(0.0)),
            _ => None,
        };
        {
            let mut stack = inner.stack.lock().expect("tracer stack poisoned");
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.truncate(pos);
            }
        }
        open.attrs.extend(extra_attrs);
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        inner.sink.record(TraceEvent::Span(Span {
            id: open.id,
            parent: open.parent,
            seq,
            name: open.name,
            kind: open.kind,
            wall_ns: open.wall_ns,
            wall_dur_ns,
            sim_secs: open.sim_secs,
            sim_dur_secs,
            attrs: open.attrs,
        }));
    }

    /// Record a point event under the currently-open span.
    pub fn instant(&self, name: &str, kind: SpanKind, sim_secs: Option<f64>, attrs: Attrs) {
        let Some(inner) = &self.inner else { return };
        let wall_ns = inner.epoch.elapsed().as_nanos() as u64;
        let parent = inner
            .stack
            .lock()
            .expect("tracer stack poisoned")
            .last()
            .copied()
            .unwrap_or(0);
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        inner.sink.record(TraceEvent::Instant(InstantEvent {
            parent,
            seq,
            name: name.to_string(),
            kind,
            wall_ns,
            sim_secs,
            attrs,
        }));
    }

    /// Add `v` to the named monotonic counter (no-op when disabled).
    pub fn counter_add(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter_add(name, v);
        }
    }

    /// Record one observation into the named log2-bucket histogram
    /// (no-op when disabled).
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, v);
        }
    }

    /// Deterministically-ordered snapshot of the metrics registry;
    /// `None` when disabled.
    pub fn metrics_snapshot(&self) -> Option<RegistrySnapshot> {
        self.inner.as_ref().map(|inner| inner.metrics.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let h = t.begin("x", SpanKind::Phase, None);
        t.end(h, None);
        t.instant("y", SpanKind::Fault, None, Vec::new());
        t.counter_add("c", 1);
        t.observe("h", 1);
        assert!(t.metrics_snapshot().is_none());
        assert_eq!(t, Tracer::default());
        let unbuilt = t.attrs(|| unreachable!("a disabled tracer builds no attributes"));
        assert!(unbuilt.is_empty());
        let (live, _sink) = Tracer::to_memory();
        assert_eq!(live.attrs(|| vec![("n".to_string(), 3u64.into())]).len(), 1);
    }

    #[test]
    fn spans_nest_and_record_in_completion_order() {
        let (t, sink) = Tracer::to_memory();
        let outer = t.begin("outer", SpanKind::Phase, Some(0.0));
        let inner = t.begin("inner", SpanKind::Device, Some(0.5));
        t.instant(
            "tick",
            SpanKind::Fault,
            Some(0.75),
            vec![("n".to_string(), 3u64.into())],
        );
        t.end(inner, Some(1.0));
        t.end(outer, Some(2.0));

        let events = sink.events();
        assert_eq!(events.len(), 3);
        // Completion order: instant, inner, outer.
        let TraceEvent::Instant(tick) = &events[0] else {
            panic!("expected instant first")
        };
        let TraceEvent::Span(inner_span) = &events[1] else {
            panic!("expected inner span second")
        };
        let TraceEvent::Span(outer_span) = &events[2] else {
            panic!("expected outer span last")
        };
        assert_eq!(outer_span.parent, 0);
        assert_eq!(inner_span.parent, outer_span.id);
        assert_eq!(tick.parent, inner_span.id);
        assert_eq!(inner_span.sim_dur_secs, Some(0.5));
        assert_eq!(outer_span.sim_dur_secs, Some(2.0));
        assert!(inner_span.wall_ns >= outer_span.wall_ns);
        // Sequence numbers are 1-based and strictly increasing.
        assert_eq!(
            events.iter().map(TraceEvent::seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn abandoned_span_does_not_corrupt_siblings() {
        let (t, sink) = Tracer::to_memory();
        let outer = t.begin("outer", SpanKind::Phase, None);
        {
            // Opened but never ended (e.g. an error path unwound past it).
            let _lost = t.begin("lost", SpanKind::Device, None);
        }
        let next = t.begin("next", SpanKind::Device, None);
        t.end(next, None);
        t.end(outer, None);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        // "next" parents to "lost" (still open at its begin) — but ending
        // "outer" after truncation still yields a root-level outer span.
        let TraceEvent::Span(outer_span) = &events[1] else {
            panic!("expected outer span last")
        };
        assert_eq!(outer_span.name, "outer");
        assert_eq!(outer_span.parent, 0);
    }

    #[test]
    fn tracer_equality_is_identity() {
        let (a, _) = Tracer::to_memory();
        let (b, _) = Tracer::to_memory();
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_ne!(a, Tracer::disabled());
    }

    #[test]
    fn kind_round_trips() {
        for k in [
            SpanKind::Phase,
            SpanKind::Device,
            SpanKind::Kernel,
            SpanKind::Monitor,
            SpanKind::Migration,
            SpanKind::Fault,
            SpanKind::Recovery,
        ] {
            assert_eq!(SpanKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }
}
