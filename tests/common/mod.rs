//! What the root differential tests share: the random-program grammar,
//! the stored arrays it scans, the scale-aware input the planning tests
//! sample, the random fault plans, and [`contract`], the harness of the
//! determinism contract.
//!
//! The contract: every run of a program gives one `values_fingerprint` or
//! one error text, whatever its engine, thread count, fleet size, fault
//! plan, kill point, observer or wire format. The harness holds a
//! [`contract::Case`] (a program, its storage and placement, and its
//! reference run, the clean unsharded `execute`, run once), one
//! [`contract::agree`] that matches an outcome against a reference, the
//! invariants several axes assert (recovery accounting, spelling is free,
//! the engine comparison), one function per axis, and each axis's case and
//! completed-case counts ([`contract::Axis`]).
//!
//! The vendored proptest is fixed-seed and samples a tuple's members in
//! order, and `prop_map` draws nothing, so every test that draws from these
//! strategies in the same order sees the same cases on every run; changing
//! a strategy here changes the pinned cases of every test that uses it.

// Each test binary compiles this module separately and uses its own subset.
#![allow(dead_code)]

pub mod contract;

use activepy::OffloadPlan;
use alang::ast::Expr;
use alang::builtins::Storage;
use alang::value::ArrayVal;
use alang::{Program, Value};
use csd_sim::fault::FaultPlan;
use csd_sim::units::{Duration, SimTime};
use csd_sim::EngineKind;
use isp_obs::{AttrValue, MemorySink, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;

/// Assignment targets; reads of not-yet-defined names are valid programs
/// that must fail identically wherever they run.
pub const VARS: [&str; 4] = ["a", "b", "c", "d"];

/// Builtins safe to call with one argument of any generated type: either
/// they succeed or every engine raises the same runtime error. `sort` is
/// left out: on the NaNs that `sqrt`/`0/0` legitimately produce here it
/// only raises an error, and drawing it would re-pin every user's cases.
pub const FNS: [&str; 5] = ["sum", "mean", "sqrt", "abs", "len"];

pub const OPS: [&str; 8] = ["+", "-", "*", "/", "<", ">", "==", "!="];

/// A grammar of random expressions in source form, up to three levels
/// deep: numbers, [`VARS`] and scans of `v` and `w` under negation, `ops`,
/// one-argument `calls`, and `reduces` of `scan('v') + e`.
#[derive(Clone, Copy)]
pub struct Grammar {
    pub ops: &'static [&'static str],
    pub calls: &'static [&'static str],
    pub reduces: &'static [&'static str],
}

/// The shared grammar: [`OPS`] and [`FNS`], no reductions.
pub const GRAMMAR: Grammar = Grammar {
    ops: &OPS,
    calls: &FNS,
    reduces: &[],
};

impl Grammar {
    fn expr(self) -> BoxedStrategy<String> {
        let leaf = prop_oneof![
            (0u32..50).prop_map(|n| n.to_string()),
            (1u32..40).prop_map(|n| format!("{n}.5")),
            (0usize..VARS.len()).prop_map(|i| VARS[i].to_owned()),
            Just("scan('v')".to_owned()),
            Just("scan('w')".to_owned()),
        ];
        let (ops, calls, reduces) = (self.ops, self.calls, self.reduces);
        leaf.boxed().prop_recursive(3, 24, 3, move |inner| {
            let mut arms = vec![
                inner.clone().prop_map(|e| format!("-({e})")).boxed(),
                (inner.clone(), inner.clone(), 0usize..ops.len())
                    .prop_map(move |(l, r, op)| format!("({l} {} {r})", ops[op]))
                    .boxed(),
                (inner.clone(), 0usize..calls.len())
                    .prop_map(move |(e, f)| format!("{}({e})", calls[f]))
                    .boxed(),
            ];
            if !reduces.is_empty() {
                let reduce = (inner, 0usize..reduces.len())
                    .prop_map(move |(e, f)| format!("{}((scan('v') + {e}))", reduces[f]));
                arms.push(reduce.boxed());
            }
            proptest::Union::new(arms)
        })
    }

    /// `count` lines, each a drawn target and expression.
    pub fn lines(self, count: Range<usize>) -> impl Strategy<Value = Vec<(usize, String)>> {
        prop::collection::vec((0usize..VARS.len(), self.expr()), count)
    }
}

/// The program a `(target, expression)` draw spells.
pub fn source(lines: &[(usize, String)]) -> String {
    lines
        .iter()
        .map(|(t, e)| format!("{} = {e}\n", VARS[*t]))
        .collect()
}

/// Programs in the grammar's vocabulary that run to completion and reuse
/// names the way the drawn ones rarely survive to: a result spelled like
/// the scanned input, a gathered value's name reused in the tail, a line
/// that reads the name it assigns.
pub const REASSIGNING: [&str; 3] = [
    "a = scan('v')\nb = a * 2\nc = a + b\na = sum(c)\n",
    "a = scan('v')\nb = sqrt(a)\nc = sum(b)\nb = c + 1\n",
    "a = scan('w')\na = abs(a)\nb = a - 1\na = mean(b)\nd = a * a\n",
];

/// Every host/CSD placement of a `len`-line program.
pub fn all_placements(len: usize) -> impl Iterator<Item = Vec<EngineKind>> {
    (0..1u32 << len).map(move |bits| {
        let on_csd: Vec<bool> = (0..len).map(|i| bits >> i & 1 == 1).collect();
        placements(&on_csd, len)
    })
}

/// `program` respelled single-assignment, as source: line *i*'s target
/// becomes its old name followed by *i*, and every read is rewritten to
/// the new name of its reaching definition — the latest earlier line
/// assigning the name it reads. A read no earlier line assigns is left
/// alone and stays the same error. Walks the `Expr` with its own name
/// table, so it shares nothing with `Program`'s resolution.
///
/// The old name stays as the prefix because staging transfers are issued
/// in name order: [`VARS`] are single letters, so a line's reads sort
/// after the respelling as they did before it and the simulated clock
/// adds the same terms in the same order.
pub fn single_assignment(program: &Program) -> String {
    fn respell(expr: &Expr, names: &BTreeMap<&str, String>) -> Expr {
        let boxed = |e: &Expr| Box::new(respell(e, names));
        match expr {
            Expr::Num(_) | Expr::Str(_) => expr.clone(),
            Expr::Ident(name) => Expr::Ident(names.get(name.as_str()).unwrap_or(name).clone()),
            Expr::Call { name, args } => Expr::Call {
                name: name.clone(),
                args: args.iter().map(|a| respell(a, names)).collect(),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: boxed(lhs),
                rhs: boxed(rhs),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: boxed(expr),
            },
        }
    }
    let mut names: BTreeMap<&str, String> = BTreeMap::new();
    let mut src = String::new();
    for line in program.lines() {
        let target = format!("{}{}", line.target, line.index);
        src.push_str(&format!("{target} = {}\n", respell(&line.expr, &names)));
        names.insert(&line.target, target);
    }
    src
}

/// The first `len` draws of `on_csd` as per-line placements.
pub fn placements(on_csd: &[bool], len: usize) -> Vec<EngineKind> {
    let engine = |csd: &bool| {
        if *csd {
            EngineKind::Cse
        } else {
            EngineKind::Host
        }
    };
    on_csd[..len].iter().map(engine).collect()
}

/// The two stored arrays the grammar scans: `v` (64 elements standing for
/// 1 M logical rows) and `w` (32 standing for 500 k). Both logical sizes
/// clear `SHARD_MIN_ROWS`, so an auto shard map always partitions them.
pub fn storage() -> Storage {
    storage_with(64, 32)
}

/// As [`storage`] with `len_v` / `len_w` materialized elements behind the
/// same logical sizes, for tests that need arrays long enough to chunk.
/// `v` cycles 0..10; `w` cycles 0..97 centred on zero (on its midpoint
/// while it is shorter than one cycle).
pub fn storage_with(len_v: u32, len_w: u32) -> Storage {
    let centre = f64::from((len_w / 2).min(48));
    arrays([
        ("v", len_v, 10, 0.0, 1_000_000),
        ("w", len_w, 97, centre, 500_000),
    ])
}

/// Stored arrays: each `(name, len, cycle, centre, logical)` holds `len`
/// elements cycling `0..cycle` less `centre` and stands for `logical` rows.
fn arrays(arrays: impl IntoIterator<Item = (&'static str, u32, u32, f64, u64)>) -> Storage {
    let mut st = Storage::new();
    for (name, len, cycle, centre, logical) in arrays {
        let values = (0..len).map(|i| f64::from(i % cycle) - centre).collect();
        st.insert(name, Value::Array(ArrayVal::with_logical(values, logical)));
    }
    st
}

/// One array of a [`scaled_storage`]: its name, the cycle its values
/// repeat with, what is subtracted to centre them, and what its logical
/// length is divided by.
pub type ScaledArray = (&'static str, u32, f64, u64);

/// `v` cycles 0..100 over the full logical length, so `a < 50` selects
/// exactly half at every scale.
pub const SCALED_V: ScaledArray = ("v", 100, 0.0, 1);

/// `w` cycles 0..97 centred on zero over half the logical length.
pub const SCALED_W: ScaledArray = ("w", 97, 48.0, 2);

/// Scale-aware input for the tests that plan (an `InputSource` is any
/// `Fn(f64) -> Storage`): logical sizes follow `scale` — 10⁹ elements at
/// 1.0 — while the materialized prefix stays small, 100–8 000 elements
/// and a multiple of 100.
pub fn scaled_storage(scale: f64, specs: &[ScaledArray]) -> Storage {
    let logical = (scale * 1e9).round().max(100.0) as u64;
    let actual = (((logical / 100_000).clamp(100, 8000) / 100) * 100) as u32;
    let at_scale = |&(name, cycle, centre, divisor): &ScaledArray| {
        (name, actual, cycle, centre, logical / divisor)
    };
    arrays(specs.iter().map(at_scale))
}

/// Raw parameters of a fault plan: independent transient error rates per
/// device surface, an optional hard crash, an optional GC burst.
#[derive(Debug, Clone)]
pub struct FaultParams {
    pub seed: u64,
    pub flash: f64,
    pub nvme: f64,
    pub dma: f64,
    pub crash: Option<f64>,
    pub gc: Option<(f64, f64, f64)>,
}

impl FaultParams {
    /// The plan under exactly the drawn seed.
    pub fn plan(&self) -> FaultPlan {
        self.plan_seeded(self.seed)
    }

    /// The plan for shard `s`: each device draws an independent
    /// deterministic stream from a shard-salted seed.
    pub fn plan_for_shard(&self, s: usize) -> FaultPlan {
        self.plan_seeded(self.seed.wrapping_mul(31).wrapping_add(s as u64))
    }

    fn plan_seeded(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::none()
            .with_seed(seed)
            .with_flash_read_error_prob(self.flash)
            .with_nvme_error_prob(self.nvme)
            .with_dma_error_prob(self.dma);
        if let Some(at) = self.crash {
            plan = plan.with_crash_at(SimTime::from_secs(at));
        }
        if let Some((at, dur, frac)) = self.gc {
            plan = plan.with_gc_burst(SimTime::from_secs(at), Duration::from_secs(dur), frac);
        }
        plan
    }
}

/// Random but valid fault parameters with per-surface error rates below
/// `max_prob`.
pub fn fault_params(max_prob: f64) -> impl Strategy<Value = FaultParams> {
    (
        0u64..1_000,
        0.0f64..max_prob,
        0.0f64..max_prob,
        0.0f64..max_prob,
        (any::<bool>(), 0.0f64..0.05),
        (any::<bool>(), 0.0f64..0.05, 0.0f64..0.05, 0.05f64..1.0),
    )
        .prop_map(|(seed, flash, nvme, dma, crash, gc)| FaultParams {
            seed,
            flash,
            nvme,
            dma,
            crash: crash.0.then_some(crash.1),
            gc: gc.0.then_some((gc.1, gc.2, gc.3)),
        })
}

/// Asserts `sink` traced a `kernel.par` span, and every one at `threads`
/// threads.
pub fn assert_kernels_ran_at(sink: &MemorySink, threads: u64, what: &str) {
    let at = ("threads".to_string(), AttrValue::U64(threads));
    let mut spans = 0;
    for event in sink.events() {
        if let TraceEvent::Span(span) = event {
            if span.name == "kernel.par" {
                spans += 1;
                assert!(span.attrs.contains(&at), "{what}: {:?}", span.attrs);
            }
        }
    }
    assert!(spans > 0, "{what}: no kernel.par span was traced");
}

/// Asserts that two plans reached the same planning facts: assignment,
/// estimates, predictions, calibration, sampling report and the two
/// simulated pipeline overheads.
pub fn assert_same_planning(a: &OffloadPlan, b: &OffloadPlan) {
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.estimates, b.estimates);
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.calibration, b.calibration);
    assert_eq!(a.sampling, b.sampling);
    assert_eq!(
        (a.sampling_secs, a.compile_secs),
        (b.sampling_secs, b.compile_secs)
    );
}
