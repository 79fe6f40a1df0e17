//! What the root differential tests share: [`programs`], the programs
//! drawn from the builtin table; [`datasets`], the one stored dataset per
//! type they read, and [`Scaled`], the same at every sampling scale; the
//! random fault plans; and [`contract`], the harness of the determinism
//! contract.
//!
//! A drawn program's every call is to a row of
//! `alang::builtins::signatures()`, its arguments drawn by the types the
//! row admits (see [`programs`]), so no test here restates a builtin's
//! signature; one draw in eight ignores the types, so error parity stays
//! checked.
//!
//! The contract: every run of a program gives one `values_fingerprint` or
//! one error text, whatever its engine, thread count, fleet size, fault
//! plan, kill point, observer or wire format. The harness holds a
//! [`contract::Case`] (a program, its storage and placement, and its
//! reference run, the clean unsharded `execute`, run once), one
//! [`contract::agree`] that matches an outcome against a reference, the
//! invariants several axes assert (recovery accounting, spelling is free,
//! the engine comparison), one function per axis, and each axis's case and
//! completed-case counts and the builtins its completed cases call
//! ([`contract::Axis`]).
//!
//! The vendored proptest is fixed-seed and samples a tuple's members in
//! order, and `prop_map` draws nothing, so every test that draws from these
//! strategies in the same order sees the same cases on every run; changing
//! a strategy or a dataset here changes the pinned cases of every test that
//! uses it.

// Each test binary compiles this module separately and uses its own subset.
#![allow(dead_code)]

pub mod contract;
pub mod programs;

use activepy::sampling::InputSource;
use activepy::OffloadPlan;
use alang::ast::Expr;
use alang::builtins::Storage;
use alang::forest::{Forest, Tree, TreeNode};
use alang::matrix::Matrix;
use alang::shape::StoredReads;
use alang::table::{Column, Table};
use alang::value::{ArrayVal, EncodedVal};
use alang::{Program, Value};
use csd_sim::fault::FaultPlan;
use csd_sim::units::{Duration, SimTime};
use csd_sim::wire::Encoding;
use csd_sim::EngineKind;
use isp_obs::{AttrValue, MemorySink, TraceEvent};
use programs::{KEYS, VARS};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The program a `(target, expression)` draw spells.
pub fn source(lines: &[(usize, String)]) -> String {
    lines
        .iter()
        .map(|(t, e)| format!("{} = {e}\n", VARS[*t]))
        .collect()
}

/// Programs that run to completion and reuse names in the three ways that
/// matter, checked under every placement rather than as drawn: a result
/// spelled like the scanned input, a gathered value's name reused in the
/// tail, a line that reads the name it assigns.
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

/// The stored datasets at 16 materialized rows standing for 2²⁰ logical
/// ones, which clear `SHARD_MIN_ROWS`: an auto shard map partitions every
/// dataset with rows.
pub fn storage() -> Storage {
    datasets(16, 16 << 16)
}

/// What every drawn program reads, one stored dataset per type, each of
/// `n` materialized rows standing for `logical` (a whole multiple of `n`):
/// [`datasets_without_matrix`] and the matrix `m`.
pub fn datasets(n: usize, logical: u64) -> Storage {
    let mut st = datasets_without_matrix(n, logical);
    st.insert("m", Value::Matrix(matrix(n, logical)));
    st
}

/// [`arrays_table_forest`] and the encoded column `e`.
pub fn datasets_without_matrix(n: usize, logical: u64) -> Storage {
    let mut st = arrays_table_forest(n, logical, &StoredReads::every());
    st.insert("e", Value::Encoded(encoded(n, logical)));
    st
}

/// The `n × n` matrix `m`, its entries cycling −5..=5 along its rows and
/// columns.
fn matrix(n: usize, logical: u64) -> Matrix {
    let entries = (0..n * n).map(|i| ((i / n + 2 * (i % n)) % 11) as f64 - 5.0);
    Matrix::with_logical(entries.collect(), n, n, logical, n as u64).expect("matrix")
}

/// The encoded column `e`: quarters cycling 0..2.5, gzip-compressed and
/// byte-shuffled.
fn encoded(n: usize, logical: u64) -> EncodedVal {
    let quarters: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.25).collect();
    EncodedVal::from_f64s(Encoding::gzip_shuffled(), &quarters, logical)
}

/// The arrays `v` and `w`, both of the keys `0..KEYS` in two orders; the
/// table `t` of [`table_columns`] under `reads`; and the two-tree forest
/// `f` over features 0 and 2.
fn arrays_table_forest(n: usize, logical: u64, reads: &StoredReads) -> Storage {
    let keys = KEYS as usize;
    let array = |key: fn(usize, usize) -> usize| {
        let values = (0..n).map(|i| key(i, keys) as f64).collect();
        Value::Array(ArrayVal::with_logical(values, logical))
    };
    let mut st = Storage::new();
    st.insert("v", array(|i, keys| i % keys));
    st.insert("w", array(|i, keys| (3 * i + 5) % keys));
    let t = Table::with_logical_rows(table_columns(n, reads), logical).expect("table");
    st.insert("t", Value::Table(t));
    let tree = |feature, threshold, below, above| {
        let split = TreeNode::split(feature, threshold, 1, 2);
        Tree::new(vec![split, TreeNode::leaf(below), TreeNode::leaf(above)]).expect("tree")
    };
    let trees = vec![tree(0, 3.5, -1.0, 1.0), tree(2, 0.0, 0.5, 2.0)];
    st.insert("f", Value::Forest(Forest::new(trees, 3).expect("forest")));
    st
}

/// The columns of the stored table `t` at `n` rows: `x` cycling 0..10,
/// `y` cycling −6..=6 and the dictionary column `k` cycling its three
/// codes. A column `reads` does not name holds zeros, as a projected
/// sample input's would.
fn table_columns(n: usize, reads: &StoredReads) -> Vec<(String, Column)> {
    let read = |column: &str| reads.column("t", column);
    let f64s = |name: &str, value: fn(usize) -> f64| {
        let data = (0..n).map(|i| if read(name) { value(i) } else { 0.0 });
        (name.to_owned(), Column::F64(Arc::new(data.collect())))
    };
    let codes = (0..n).map(|i| if read("k") { (i % 3) as u32 } else { 0 });
    let dict = ["lo", "mid", "hi"].map(str::to_owned).to_vec();
    vec![
        f64s("x", |i| (i % 10) as f64),
        f64s("y", |i| (i % 13) as f64 - 6.0),
        (
            "k".to_owned(),
            Column::Dict {
                codes: Arc::new(codes.collect()),
                dict: Arc::new(dict),
            },
        ),
    ]
}

/// [`datasets`] as the planning tests sample them: `n` materialized rows
/// at every scale, standing for `scale × 2³⁰` logical ones rounded to a
/// whole multiple of `n`, the table's unread columns zeroed in a
/// projected draw. The matrix and the encoded column are built once and
/// relabelled per scale, as the registered workloads' are.
pub struct Scaled {
    n: usize,
    m: Matrix,
    e: EncodedVal,
}

impl Scaled {
    pub fn new(n: usize) -> Self {
        let (m, e) = (matrix(n, n as u64), encoded(n, n as u64));
        Scaled { n, m, e }
    }
}

impl InputSource for Scaled {
    fn storage_at(&self, scale: f64) -> Storage {
        self.projected_storage_at(scale, &StoredReads::every())
    }

    fn projected_storage_at(&self, scale: f64, reads: &StoredReads) -> Storage {
        let n = self.n as u64;
        let logical = ((scale * f64::from(1u32 << 30) / n as f64).round() as u64).max(1) * n;
        let mut st = arrays_table_forest(self.n, logical, reads);
        let m = self
            .m
            .with_logical_rows(logical)
            .expect("rows past the materialized");
        st.insert("m", Value::Matrix(m));
        st.insert("e", Value::Encoded(self.e.with_logical_len(logical)));
        st
    }
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
