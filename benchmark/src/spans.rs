//! The driver's own span recorder for the traced pass.
//!
//! Spans wrap the driver's calls into each layer's public functions —
//! nothing inside the crates is instrumented. They live in a buffer
//! allocated before the first round and are written out after the last,
//! so recording costs two clock reads and one slot write per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call: `parent` indexes the enclosing span in the buffer,
/// `op` is the identifier shared by every span of one driver operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Low bits of a span's `op` that index the operation within its round.
pub const OP_INDEX_BITS: u32 = 16;

#[derive(Debug)]
struct Inner {
    on: bool,
    origin: Instant,
    buf: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    dropped: u64,
}

/// Span recorder handle. Off by default: an off recorder reads no clock
/// and touches no memory, so untraced rounds run the same code path with
/// one predictable branch per call site.
#[derive(Debug)]
pub struct Spans {
    inner: RefCell<Inner>,
}

/// Ends its span when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    slot: Option<u32>,
}

impl Spans {
    /// A recorder with room for `capacity` spans; once full it counts
    /// further spans as dropped instead of reallocating mid-round.
    pub fn with_capacity(capacity: usize) -> Self {
        Spans {
            inner: RefCell::new(Inner {
                on: false,
                origin: Instant::now(),
                buf: Vec::with_capacity(capacity),
                stack: Vec::with_capacity(16),
                op: 0,
                dropped: 0,
            }),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.inner.borrow_mut().on = on;
    }

    pub fn is_on(&self) -> bool {
        self.inner.borrow().on
    }

    /// Sets the operation identifier stamped on spans begun from now on.
    pub fn set_op(&self, op: u64) {
        self.inner.borrow_mut().op = op;
    }

    /// The identifier currently stamped on new spans. The driver sets the
    /// round in the high bits; a workload ors the operation's index into
    /// the low [`OP_INDEX_BITS`].
    pub fn op(&self) -> u64 {
        self.inner.borrow().op
    }

    /// Begins a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        let mut inner = self.inner.borrow_mut();
        if !inner.on {
            return Guard {
                spans: self,
                slot: None,
            };
        }
        if inner.buf.len() == inner.buf.capacity() {
            inner.dropped += 1;
            return Guard {
                spans: self,
                slot: None,
            };
        }
        let slot = inner.buf.len() as u32;
        let span = Span {
            name,
            op: inner.op,
            parent: inner.stack.last().copied(),
            start_ns: 0,
            end_ns: 0,
        };
        inner.buf.push(span);
        inner.stack.push(slot);
        // Read the clock last so the span excludes its own bookkeeping.
        let now = inner.origin.elapsed().as_nanos() as u64;
        inner.buf[slot as usize].start_ns = now;
        Guard {
            spans: self,
            slot: Some(slot),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(name);
        f()
    }

    /// Spans that found the buffer full.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().buf.len()
    }

    /// A copy of the recorded spans, in begin order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.borrow().buf.clone()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            let mut inner = self.spans.inner.borrow_mut();
            let now = inner.origin.elapsed().as_nanos() as u64;
            inner.buf[slot as usize].end_ns = now;
            let top = inner.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans end innermost first");
        }
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover. Children of one parent never overlap (one driver
/// thread), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &mut selfs[parent as usize];
            *p = p.saturating_sub(span.dur_ns());
        }
    }
    selfs
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Per-name totals of the spans at `range` of the buffer `spans` (self
/// times are taken over the whole buffer, so a range may start anywhere).
pub fn totals_by_name(
    spans: &[Span],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans[range.clone()].iter().zip(&selfs[range]) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.dur_ns();
        t.self_ns += *self_ns;
    }
    out
}

/// The layer a span belongs to: the first two dotted components of its
/// name (`core.exec.static_c` → `core.exec`).
pub fn layer_of(name: &str) -> &str {
    match name.match_indices('.').nth(1) {
        Some((i, _)) => &name[..i],
        None => name,
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // root 0..100 { a 10..40 { a1 15..25 }  b 40..70 }  — a and b are
        // adjacent, a1 is nested two deep.
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
        let totals = totals_by_name(&spans, 0..spans.len());
        assert_eq!(totals["root"].self_ns, 40);
        assert_eq!(totals["a"].total_ns, 30);
        // Self times partition the root exactly.
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 100);
        let tail = totals_by_name(&spans, 2..4);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail["b"].self_ns, 30);
    }

    #[test]
    fn recorder_links_parents_and_stamps_ops() {
        let spans = Spans::with_capacity(8);
        {
            let _ignored = spans.enter("off");
        }
        spans.set_on(true);
        spans.set_op(7);
        spans.time("outer", || {
            spans.time("inner", || ());
            spans.time("inner", || ());
        });
        let spans = spans.snapshot();
        assert_eq!(spans.len(), 3, "the off recorder records nothing");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_full_buffer_drops_instead_of_growing() {
        let spans = Spans::with_capacity(1);
        spans.set_on(true);
        spans.time("kept", || spans.time("dropped", || ()));
        assert_eq!(spans.dropped(), 1);
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn layers_are_the_first_two_components() {
        assert_eq!(layer_of("core.exec.static_c"), "core.exec");
        assert_eq!(layer_of("csd-sim.wire"), "csd-sim.wire");
        assert_eq!(layer_of("driver"), "driver");
    }
}
