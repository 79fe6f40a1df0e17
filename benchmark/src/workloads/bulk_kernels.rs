//! `bulk_kernels`: the registered plain sources over 2^18-element inputs
//! built with the public `datagen` functions, each through the VM once
//! serially and once with `nproc` threads. `lang::{builtins, simd, par,
//! matrix, table}` do the work; no codec, no executor. 2 MiB columns sit
//! inside L2/L3, so this reports elements per second, not a bandwidth
//! roofline.

use crate::catalogue::{Values, LINE_KINDS};
use crate::driver::{Ctx, Round, Trace, Workload, OP_SPAN};
use crate::rng::Rng;
use crate::stats::median_secs;
use crate::workloads::bulk::{BulkProgram, KINDS, PAR_SPANS, SERIAL_SPANS};
use alang::{simd, ParallelPolicy, Storage};
use isp_workloads::datagen::{graph, linalg, options, points, tpch};

/// The input size the issue names; each program scales it so that no
/// program takes more than a third of the round.
const ELEMS: usize = 1 << 18;

pub struct BulkKernels {
    programs: Vec<BulkProgram>,
    /// Seed-drawn program order inside a round.
    order: Vec<usize>,
    threaded: ParallelPolicy,
}

/// `(metric suffix, registered source)`.
const PROGRAMS: [(&str, &str); 6] = [
    ("q6_plain", "TPC-H-6"),
    ("q1_groupby", "TPC-H-1"),
    ("blackscholes", "blackscholes"),
    ("sparsemv", "SparseMV"),
    ("kmeans", "KMeans"),
    ("matrixmul", "MatrixMul"),
];

/// The storage a registered source scans, at bulk size, from `seed`, and
/// the materialised f64 elements of its main input (rows for a table,
/// rows × columns for a matrix).
fn storage_for(source: &str, seed: u64) -> (Storage, usize) {
    let mut st = Storage::new();
    let elems = match source {
        "TPC-H-6" => {
            st.insert("lineitem", tpch::lineitem(6.9, 1.0, ELEMS, 2048, seed));
            ELEMS
        }
        // Five grouped aggregates over nearly every row: a quarter of the rows.
        "TPC-H-1" => {
            st.insert("lineitem", tpch::lineitem(6.9, 1.0, ELEMS / 4, 2048, seed));
            ELEMS / 4
        }
        "blackscholes" => {
            st.insert("options", options::option_chain(9.1, 1.0, ELEMS / 2, seed));
            ELEMS / 2
        }
        "SparseMV" => {
            let n = 1024;
            st.insert("sparse_matrix", graph::adjacency(6.4, 1.0, n, 24.0, seed));
            st.insert("xvec", graph::dense_vector(6.4, 1.0, n, seed));
            n * n
        }
        "KMeans" => {
            let (dims, k, rows) = (8, 8, ELEMS / 2);
            st.insert(
                "points",
                points::clustered_points(5.3, 1.0, dims, k, rows, seed),
            );
            st.insert("centroids", points::initial_centroids(dims, k, seed));
            rows * dims
        }
        "MatrixMul" => {
            let (cols, out, rows) = (64, 4, ELEMS / 16);
            st.insert(
                "features64",
                linalg::feature_matrix(6.0, 1.0, cols, rows, seed),
            );
            st.insert("proj_weights", linalg::weight_matrix(cols, out, seed));
            rows * cols
        }
        other => unreachable!("{other} is not a bulk program"),
    };
    (st, elems)
}

impl Workload for BulkKernels {
    const NAME: &'static str = "bulk_kernels";
    const DOMINANT_LAYERS: &'static [&'static str] = &["lang.builtins", "lang.par"];

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let programs = PROGRAMS
            .iter()
            .map(|(name, source)| {
                let app = isp_workloads::by_name(source)
                    .ok_or_else(|| format!("{source} is not registered"))?;
                let (storage, elems) = storage_for(source, ctx.seed);
                BulkProgram::build(name, app.source(), storage, elems as u64, 1)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BulkKernels {
            order: Rng::new(ctx.seed, 1).permutation(programs.len()),
            programs,
            threaded: ParallelPolicy::with_threads(ctx.nproc),
        })
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        let mut round = Round::default();
        let (mut par_calls, mut chunks) = (0u64, 0u64);
        let base = ctx.spans.op();
        for &i in &self.order {
            let program = &self.programs[i];
            ctx.spans.set_op(base | i as u64);
            let _op = ctx.spans.enter(OP_SPAN);
            let (ok, _) = program.run(&ctx.spans, ParallelPolicy::serial(), &SERIAL_SPANS);
            round.op(ok);
            let (ok, stats) = program.run(&ctx.spans, self.threaded, &PAR_SPANS);
            round.op(ok);
            par_calls += stats.par_calls;
            chunks += stats.chunks;
        }
        round.exact = Values::from([
            ("lang.par.par_calls", par_calls as f64),
            ("lang.par.chunks", chunks as f64),
        ]);
        round
    }

    fn layers(&mut self, _ctx: &Ctx, trace: &Trace, out: &mut Values) {
        let mut elems = [0u64; KINDS];
        for program in &self.programs {
            for (total, e) in elems.iter_mut().zip(program.elems_by_kind()) {
                *total += e;
            }
        }
        for (kind, name) in LINE_KINDS.iter().enumerate() {
            let secs = trace.totals(SERIAL_SPANS[kind]).total_secs();
            if secs > 0.0 {
                let metric = crate::catalogue::find(&format!("lang.builtins.melem_per_s.{name}"))
                    .expect("every line kind has a metric");
                out.insert(
                    metric.name,
                    (elems[kind] * trace.rounds) as f64 / secs / 1e6,
                );
            }
        }
        let serial = trace.secs_by_op(|name| name.starts_with("lang.builtins."));
        let threaded = trace.secs_by_op(|name| name.starts_with("lang.par."));
        for (i, (name, _)) in PROGRAMS.iter().enumerate() {
            let metric = crate::catalogue::find(&format!("lang.par.speedup_nproc.{name}"))
                .expect("every bulk program has a speed-up metric");
            if let (Some(s), Some(t)) = (serial.get(&(i as u64)), threaded.get(&(i as u64))) {
                out.insert(metric.name, s / t);
            }
        }
        probe_simd(out);
    }
}

/// The eight-lane reductions against their scalar twins on one column.
fn probe_simd(out: &mut Values) {
    let xs: Vec<f64> = (0..ELEMS).map(|i| (i % 1013) as f64 * 0.25).collect();
    let ys: Vec<f64> = (0..ELEMS).map(|i| (i % 977) as f64 * 0.5).collect();
    const REPS: usize = 20;
    let time = |f: &dyn Fn() -> f64| {
        median_secs(9, || {
            for _ in 0..REPS {
                std::hint::black_box(f());
            }
        }) / REPS as f64
    };
    let (xs, ys) = (std::hint::black_box(&xs), std::hint::black_box(&ys));
    let sum8 = time(&|| simd::sum8(xs));
    let sum8_ref = time(&|| simd::sum8_ref(xs));
    let dot8 = time(&|| simd::dot8(xs, ys));
    let dot8_ref = time(&|| simd::dot8_ref(xs, ys));
    out.insert("lang.simd.sum8_melem_per_s", ELEMS as f64 / sum8 / 1e6);
    out.insert("lang.simd.dot8_melem_per_s", ELEMS as f64 / dot8 / 1e6);
    out.insert("lang.simd.speedup_vs_ref.sum8", sum8_ref / sum8);
    out.insert("lang.simd.speedup_vs_ref.dot8", dot8_ref / dot8);
}
