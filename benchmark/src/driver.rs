//! One measured run of one workload: the closed loop, one client thread.
//!
//! `run` sets the workload up several times (reporting the median as
//! `setup_s`), discards warm-up rounds, then repeats whole rounds until
//! `--seconds` have passed. A traced run alternates untraced and traced
//! rounds, so the tracing overhead is read from rounds that share one
//! process, one warm cache state and the same stretch of wall time.

use crate::catalogue::{Values, END_TO_END, PER_LAYER};
use crate::panel::Panel;
use crate::spans::{self, NameTotals, Span, Spans, OP_INDEX_BITS};
use crate::stats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `setup_s` is the median of at least this many set-ups; a workload whose
/// set-up is cheap repeats it until [`SETUP_BUDGET`] is spent (at most
/// [`MAX_SETUPS`] times), because a 75 ms set-up read five times moved
/// 55 % between two identical runs.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Rounds discarded after the last set-up, on top of the one warm-up
/// round every set-up ends with.
pub const WARMUP_ROUNDS: usize = 2;
/// Room for every span of a 60 s traced run of the busiest workload.
const SPAN_CAPACITY: usize = 1 << 19;

/// What every workload gets from the driver.
pub struct Ctx {
    pub seed: u64,
    pub nproc: usize,
    pub spans: Spans,
    /// Scratch directory inside the checkout (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// What one round did.
#[derive(Debug, Clone)]
pub struct Round {
    pub attempted: u64,
    pub failed: u64,
    /// Milliseconds each operation took, check included, in call order.
    pub op_ms: Vec<f64>,
    mark: Instant,
    /// Every sim-clock value and exact count this round produced. The
    /// run fails unless the first and the last timed round agree on all
    /// of them to the bit.
    pub exact: Values,
}

impl Default for Round {
    fn default() -> Self {
        Round {
            attempted: 0,
            failed: 0,
            op_ms: Vec::with_capacity(64),
            mark: Instant::now(),
            exact: Values::new(),
        }
    }
}

impl Round {
    /// Counts one operation, failed unless `ok`, and times it: an
    /// operation lasts from the previous one's end (or the round's
    /// start) to this call.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        let now = Instant::now();
        self.op_ms.push((now - self.mark).as_secs_f64() * 1e3);
        self.mark = now;
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Builds inputs, plans and reference results from `ctx.seed`.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// One round. With `ctx.spans` on, calls are wrapped in spans (and
    /// composite calls replaced by their public decomposition).
    fn round(&mut self, ctx: &Ctx) -> Round;

    /// Traced runs only, after the timed phase: the layer metrics read
    /// from the recorded spans plus the micro-probes of layers the round
    /// does not call on its own.
    fn layers(&mut self, ctx: &Ctx, trace: &Trace, out: &mut Values);

    /// The layers that should dominate this workload's traced rounds.
    const DOMINANT_LAYERS: &'static [&'static str];
}

/// The recorded spans, summarised per name.
pub struct Trace {
    /// Spans of the timed phase's traced rounds.
    pub timed: BTreeMap<&'static str, NameTotals>,
    /// Spans of the set-ups and the warm-up rounds.
    pub setup: BTreeMap<&'static str, NameTotals>,
    /// The timed phase's spans themselves, for per-operation grouping.
    pub timed_spans: Vec<Span>,
    /// Traced rounds in the timed phase.
    pub rounds: u64,
    /// The sim-clock values and exact counts the rounds agreed on.
    pub exact: Values,
}

impl Trace {
    /// Totals of the timed spans named `name` (zeros when none ran).
    pub fn totals(&self, name: &str) -> NameTotals {
        self.timed.get(name).copied().unwrap_or_default()
    }

    /// Seconds of the timed spans passing `keep`, summed per operation
    /// index (the low bits of `op`) over all traced rounds.
    pub fn secs_by_op(&self, keep: impl Fn(&str) -> bool) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for span in self.timed_spans.iter().filter(|s| keep(s.name)) {
            *out.entry(op_index(span)).or_insert(0.0) += span.dur_ns() as f64 / 1e9;
        }
        out
    }

    /// Median seconds of the timed spans named `name`, per operation index.
    pub fn median_secs_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut samples: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for span in self.timed_spans.iter().filter(|s| s.name == name) {
            samples
                .entry(op_index(span))
                .or_default()
                .push(span.dur_ns() as f64 / 1e9);
        }
        samples
            .into_iter()
            .map(|(op, secs)| (op, stats::median(&secs)))
            .collect()
    }

    /// Self seconds of the timed spans whose name passes `keep`.
    pub fn self_secs(&self, keep: impl Fn(&str) -> bool) -> f64 {
        self.timed
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(_, t)| t.self_ns as f64 / 1e9)
            .sum()
    }
}

fn op_index(span: &Span) -> u64 {
    span.op & ((1 << OP_INDEX_BITS) - 1)
}

/// The result line of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
    /// Human-readable notes (sample counts, mismatches) for stderr.
    pub notes: Vec<String>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The driver's own spans: a whole round, and one operation with its
/// output check. Their self time is what no layer accounts for.
pub const ROUND_SPAN: &str = "driver.round";
pub const OP_SPAN: &str = "driver.op";

/// Runs workload `W` for `seconds`.
pub fn run<W: Workload>(seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let out_dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        seed,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        spans: Spans::with_capacity(if traced { SPAN_CAPACITY } else { 0 }),
        out_dir,
    };
    let mut notes = Vec::new();

    // The sim-clock panel is a property of the build, not of the workload:
    // every workload reports it, and the workloads that recompute its
    // values inside their rounds are checked against it.
    let panel = Panel::measure(seed)?;

    let mut setup_secs = Vec::with_capacity(MAX_SETUPS);
    let mut workload = None;
    let setups_began = Instant::now();
    while setup_secs.len() < MIN_SETUPS
        || (setup_secs.len() < MAX_SETUPS && setups_began.elapsed() < SETUP_BUDGET)
    {
        drop(workload.take());
        // Set-ups are traced too: their spans feed the layer metrics
        // measured at set-up (the C baselines).
        ctx.spans.set_on(traced);
        ctx.spans.set_op(0);
        let started = Instant::now();
        let mut w = W::setup(&ctx)?;
        ctx.spans.set_on(false);
        let warm = w.round(&ctx);
        setup_secs.push(started.elapsed().as_secs_f64());
        if warm.failed > 0 {
            return Err(format!(
                "{}: {} of {} warm-up operations failed their output check",
                W::NAME,
                warm.failed,
                warm.attempted
            ));
        }
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");
    for _ in 0..WARMUP_ROUNDS {
        workload.round(&ctx);
        if traced {
            ctx.spans.set_on(true);
            ctx.spans.set_op(0);
            workload.round(&ctx);
            ctx.spans.set_on(false);
        }
    }
    let timed_from = ctx.spans.len();

    let budget = Duration::from_secs(seconds);
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // First and last round of each kind (untraced, traced): a traced round
    // runs the public decomposition, which yields fewer sim values.
    let mut firsts: [Option<Round>; 2] = [None, None];
    let mut lasts: [Option<Round>; 2] = [None, None];
    let phase = Instant::now();
    let mut round_no = 0u64;
    // Each operation's fastest untraced time: on a shared host a round's
    // median moves with the neighbours' load, its best times do not.
    let mut best_op_ms: Vec<f64> = Vec::new();
    while phase.elapsed() < budget || plain_ms.len() < 2 {
        round_no += 1;
        let trace_this = traced && round_no.is_multiple_of(2) && ctx.spans.dropped() == 0;
        ctx.spans.set_op(round_no << OP_INDEX_BITS);
        ctx.spans.set_on(trace_this);
        let started = Instant::now();
        let round = {
            let _root = ctx.spans.enter(ROUND_SPAN);
            workload.round(&ctx)
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        ctx.spans.set_on(false);
        if trace_this {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(ms);
        attempted += round.attempted;
        failed += round.failed;
        if !trace_this {
            if best_op_ms.is_empty() {
                best_op_ms = round.op_ms.clone();
            } else if best_op_ms.len() == round.op_ms.len() {
                for (best, ms) in best_op_ms.iter_mut().zip(&round.op_ms) {
                    *best = best.min(*ms);
                }
            } else {
                return Err(format!(
                    "{}: a round ran {} operations, the first one {}",
                    W::NAME,
                    round.op_ms.len(),
                    best_op_ms.len()
                ));
            }
        }
        let kind = usize::from(trace_this);
        firsts[kind].get_or_insert_with(|| round.clone());
        lasts[kind] = Some(round);
    }
    let timed_secs = phase.elapsed().as_secs_f64();

    // In-run determinism: sim-clock values and exact counts must not move
    // between the first and the last round, nor away from the panel.
    let mut correct = failed == 0;
    let mut exact = Values::new();
    for (first, last) in firsts.iter().zip(&lasts) {
        let (Some(first), Some(last)) = (first, last) else {
            continue;
        };
        for (name, a) in &first.exact {
            let b = last.exact.get(name);
            if b.map(|b| b.to_bits()) != Some(a.to_bits()) {
                correct = false;
                notes.push(format!("{name}: first round {a}, last round {b:?}"));
            }
        }
        exact.extend(last.exact.iter());
    }
    for (name, want) in panel.values() {
        if let Some(got) = exact.get(name) {
            if got.to_bits() != want.to_bits() {
                correct = false;
                notes.push(format!("{name}: round computed {got}, panel {want}"));
            }
        }
    }

    let sorted = stats::sorted(&plain_ms);
    let p50 = stats::percentile(&sorted, 50.0);
    let mut metrics = Values::new();
    if traced {
        let all = ctx.spans.snapshot();
        let trace = Trace {
            timed: spans::totals_by_name(&all, timed_from..all.len()),
            setup: spans::totals_by_name(&all, 0..timed_from),
            timed_spans: all[timed_from..].to_vec(),
            rounds: traced_ms.len() as u64,
            exact,
        };
        for (name, v) in &trace.exact {
            if PER_LAYER.iter().any(|m| m.name == *name) {
                metrics.insert(name, *v);
            }
        }
        metrics.insert("driver.rounds_timed", plain_ms.len() as f64);
        metrics.insert("driver.round_ms_p50", p50);
        metrics.insert("driver.ops_per_s_wall", attempted as f64 / timed_secs);
        if let Some((pct, ms)) = stats::tail(&sorted) {
            metrics.insert("driver.round_ms_tail", ms);
            metrics.insert("driver.round_ms_tail_pct", pct);
        }
        metrics.insert(
            "driver.trace_overhead_pct",
            (stats::median(&traced_ms) / p50 - 1.0) * 100.0,
        );
        // The driver's own spans (the round, each operation's check) are
        // what no layer accounts for.
        let round_secs = trace.totals(ROUND_SPAN).total_secs();
        let unattributed = trace.self_secs(|name| name.starts_with("driver."));
        metrics.insert(
            "driver.attributed_pct",
            (1.0 - unattributed / round_secs) * 100.0,
        );
        let dominant = trace.self_secs(|name| W::DOMINANT_LAYERS.contains(&spans::layer_of(name)));
        metrics.insert("driver.dominant_layer_pct", dominant / round_secs * 100.0);
        workload.layers(&ctx, &trace, &mut metrics);
        let path = ctx.out_dir.join(format!("trace.{}.jsonl", W::NAME));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        spans::write_jsonl(&all, std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{} traced rounds, {} spans ({} dropped) -> {}",
            trace.rounds,
            all.len(),
            ctx.spans.dropped(),
            path.display()
        ));
        for m in &PER_LAYER {
            metrics.entry(m.name).or_insert(0.0);
        }
    } else {
        metrics.insert("setup_s", stats::median(&setup_secs));
        let best_round_ms: f64 = best_op_ms.iter().sum();
        metrics.insert("ops_per_s", best_op_ms.len() as f64 / best_round_ms * 1e3);
        metrics.insert("op_ms_p50", stats::median(&best_op_ms));
        metrics.insert("peak_rss_mb", peak_rss_mb());
        for (name, v) in panel.values() {
            metrics.insert(name, v);
        }
        debug_assert!(END_TO_END.iter().all(|m| metrics.contains_key(m.name)));
        notes.push(format!(
            "{} rounds in {timed_secs:.2} s: median {p50:.3} ms, {:.1} ops/s by the wall clock",
            plain_ms.len(),
            attempted as f64 / timed_secs
        ));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    })
}
