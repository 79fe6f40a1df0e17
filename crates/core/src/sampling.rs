//! The sampling phase (§III-A).
//!
//! ActivePy "starts by heuristically selecting data from raw inputs to
//! create sample inputs of different sizes" at four scaling factors — tiny
//! 2⁻¹⁰, small 2⁻⁹, medium 2⁻⁸, large 2⁻⁷ — runs the program on each, and
//! records per line the execution time, input size, and output size,
//! separating data-access time from computation.
//!
//! Here the [`InputSource`] trait abstracts "the raw input": workload
//! generators materialize storage at any requested scale, and the sampler
//! runs the interpreted program on each sample, collecting
//! [`alang::LineCost`] records and the dataset types that later enable
//! copy elimination.
//!
//! A sample run measures costs, so it computes only the values some cost
//! reads ([`alang::shape`]): a line whose value no computed line reads by
//! value is charged from its arguments' shapes through its kernel's own
//! cost formula and leaves a zero placeholder. Its sample inputs are drawn
//! for their value-read columns alone: the same pass states what the runs
//! read by value of each stored dataset ([`StoredReads`]), and the source
//! may leave every other column of a table zero
//! ([`InputSource::projected_storage_at`]). The report is the one runs
//! computing every line over whole inputs produce, errors included.
//!
//! A source may serve every scale from one stored draw, relabelled to each
//! scale's logical size; the four sample runs then read the same buffers.
//! One [`alang::KernelMemo`], made per [`run_sampling`] call and dropped
//! when it returns, is lent to each run's `Vm`, so a heavy kernel over
//! those buffers (`kmeans_assign`, `decode`) computes its result once. Every `LineCost` is still priced from its own scale's
//! logical sizes: the report is the one runs without the memo produce.

use crate::error::{ActivePyError, Result};
use alang::builtins::Storage;
use alang::copyelim::{DatasetTypes, StaticType};
use alang::shape::{Demand, StoredReads};
use alang::{KernelMemo, LineCost, Program, Vm};
use isp_obs::{SpanKind, Tracer};
use serde::Serialize;

/// A provider of program inputs at arbitrary scale.
///
/// `scale = 1.0` is the full (paper-scale) input; the sampler requests the
/// paper's four sub-unity factors. Implementations must keep logical sizes
/// proportional to `scale` so extrapolation is meaningful.
pub trait InputSource {
    /// Materializes the named datasets at the given scale.
    fn storage_at(&self, scale: f64) -> Storage;

    /// Materializes the named datasets at the given scale for runs that
    /// read by value only what `reads` names: a source may leave any other
    /// column of a table zero, its type, dictionary and sizes kept. The
    /// default materializes everything ([`Self::storage_at`]).
    fn projected_storage_at(&self, scale: f64, reads: &StoredReads) -> Storage {
        let _ = reads;
        self.storage_at(scale)
    }

    /// Combined fingerprint of the wire-format encodings this source
    /// declares for its datasets, `0` when everything is served as plain
    /// in-memory values.
    ///
    /// Folded into plan-cache keys so plans for differently-encoded
    /// inputs never collide — and answerable *without* materializing
    /// storage, so deriving a key draws no input.
    fn wire_fingerprint(&self) -> u64 {
        0
    }
}

impl<F: Fn(f64) -> Storage> InputSource for F {
    fn storage_at(&self, scale: f64) -> Storage {
        self(scale)
    }
}

/// The input the crate's unit tests plan against: one array `v` of 10⁹
/// logical elements (8 GB) at scale 1.0. The materialized prefix stays
/// small (100–8 000 elements) and a multiple of 100 cycling 0..100, so
/// `a < 50` selects exactly half of it at every sampling scale.
#[cfg(test)]
pub(crate) fn test_input() -> impl InputSource {
    |scale: f64| {
        let logical = (scale * 1e9).round().max(100.0) as u64;
        let actual = (((logical / 100_000).clamp(100, 8000) / 100) * 100) as usize;
        let data: Vec<f64> = (0..actual).map(|i| (i % 100) as f64).collect();
        let mut st = Storage::new();
        st.insert(
            "v",
            alang::Value::Array(alang::value::ArrayVal::with_logical(data, logical)),
        );
        st
    }
}

/// The paper's four sampling scale factors.
#[must_use]
pub fn paper_scales() -> Vec<f64> {
    vec![
        2f64.powi(-10), // tiny
        2f64.powi(-9),  // small
        2f64.powi(-8),  // medium
        2f64.powi(-7),  // large
    ]
}

/// One sample run's measurement for one line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SamplePoint {
    /// The scale factor of the sample input.
    pub scale: f64,
    /// The measured per-line cost at that scale.
    pub cost: LineCost,
}

/// All sample measurements for one line.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LineSamples {
    /// The line index.
    pub line: usize,
    /// One point per sampling scale, in increasing scale order.
    pub points: Vec<SamplePoint>,
}

/// The outcome of the sampling phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingReport {
    /// Per-line measurements.
    pub lines: Vec<LineSamples>,
    /// Dataset types observed in the samples (feeds copy elimination).
    pub dataset_types: DatasetTypes,
}

impl SamplingReport {
    /// Total cost of all sample runs combined, summed from the points (the
    /// overhead ActivePy pays; the paper reports ≈0.1 s / ≈1 %).
    #[must_use]
    pub fn total_cost(&self) -> LineCost {
        self.lines
            .iter()
            .flat_map(|l| &l.points)
            .map(|p| p.cost)
            .sum()
    }
}

/// Runs the sampling phase: executes `program` once per scale factor and
/// collects per-line statistics. The program is lowered, and what its runs
/// must compute is marked, once; every sample run reuses both.
///
/// # Errors
///
/// Returns an error if `scales` is empty or holds a factor outside
/// `(0, 1]` (both checked before any sample is generated), lowering fails,
/// or any sample run fails.
pub fn run_sampling(
    program: &Program,
    input: &dyn InputSource,
    scales: &[f64],
) -> Result<SamplingReport> {
    run_sampling_traced(program, input, scales, &Tracer::disabled())
}

/// As [`run_sampling`], recording one `sampling.scale` span per sample
/// run into `tracer`. The tracer is observation-only: reports are
/// identical with it enabled, disabled, or absent.
///
/// # Errors
///
/// As [`run_sampling`].
pub fn run_sampling_traced(
    program: &Program,
    input: &dyn InputSource,
    scales: &[f64],
    tracer: &Tracer,
) -> Result<SamplingReport> {
    if scales.is_empty() {
        return Err(ActivePyError::sampling("no sampling scales provided"));
    }
    if let Some(scale) = scales.iter().find(|s| !(**s > 0.0 && **s <= 1.0)) {
        return Err(ActivePyError::sampling(format!(
            "scale factor {scale} outside (0, 1]"
        )));
    }
    sample(program, input, scales, tracer, &KernelMemo::default())
}

/// The sample runs of [`run_sampling_traced`] over valid `scales`, each
/// run's `Vm` borrowing `memo`.
fn sample(
    program: &Program,
    input: &dyn InputSource,
    scales: &[f64],
    tracer: &Tracer,
    memo: &KernelMemo,
) -> Result<SamplingReport> {
    let lowered = alang::lower::lower(program)?;
    let demand = Demand::of(&lowered);
    let mut lines: Vec<LineSamples> = (0..program.len())
        .map(|line| LineSamples {
            line,
            points: Vec::with_capacity(scales.len()),
        })
        .collect();
    let mut dataset_types = DatasetTypes::new();
    for &scale in scales {
        let span = tracer.begin_with(
            "sampling.scale",
            SpanKind::Phase,
            None,
            tracer.attrs(|| vec![("scale".into(), scale.into())]),
        );
        let storage = input.projected_storage_at(scale, demand.stored());
        dataset_types.extend(observe_dataset_types(&storage));
        // Sample runs execute the unoptimized program — the original code,
        // before any code generation — with copy elimination disabled, and
        // compute only the values some sampled cost reads.
        let records = Vm::new(&lowered, &storage)
            .with_memo(memo)
            .costs_only(&demand)
            .run()?;
        tracer.end(span, None);
        for rec in records {
            lines[rec.index].points.push(SamplePoint {
                scale,
                cost: rec.cost,
            });
        }
    }
    Ok(SamplingReport {
        lines,
        dataset_types,
    })
}

/// Observes the static types of every dataset in `storage` — what a
/// sampling run learns about stored data, and what the copy-elimination
/// pass needs as seeds.
#[must_use]
pub fn observe_dataset_types(storage: &Storage) -> DatasetTypes {
    storage
        .names()
        .filter_map(|name| {
            storage
                .get(name)
                .ok()
                .map(|v| (name.to_owned(), StaticType::of(v)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::parser::parse;
    use alang::value::ArrayVal;
    use alang::Interpreter;
    use alang::Value;
    use std::collections::BTreeMap;

    /// A linear synthetic input: `n = scale * 1e6` logical elements,
    /// materialized at `n / 1000`.
    fn linear_input() -> impl InputSource {
        |scale: f64| {
            let logical = (scale * 1e6).round().max(4.0) as u64;
            let actual = (logical / 100).clamp(4, 4096) as usize;
            let data: Vec<f64> = (0..actual).map(|i| i as f64).collect();
            let mut st = Storage::new();
            st.insert("v", Value::Array(ArrayVal::with_logical(data, logical)));
            st
        }
    }

    #[test]
    fn paper_scales_are_the_four_powers() {
        let s = paper_scales();
        assert_eq!(s.len(), 4);
        assert!((s[0] - 1.0 / 1024.0).abs() < 1e-12);
        assert!((s[3] - 1.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_collects_one_point_per_scale_per_line() {
        let program = parse("a = scan('v')\nb = a * 2\ns = sum(b)\n").expect("parse");
        let rep = run_sampling(&program, &linear_input(), &paper_scales()).expect("sampling");
        assert_eq!(rep.lines.len(), 3);
        for ls in &rep.lines {
            assert_eq!(ls.points.len(), 4);
        }
        // Larger scale => more storage bytes on the scan line.
        let scan = &rep.lines[0].points;
        assert!(scan[3].cost.storage_bytes > scan[0].cost.storage_bytes);
    }

    #[test]
    fn sampling_observes_dataset_types() {
        let program = parse("a = scan('v')\n").expect("parse");
        let rep = run_sampling(&program, &linear_input(), &[0.01]).expect("sampling");
        assert_eq!(rep.dataset_types.get("v"), Some(&StaticType::Array));
    }

    #[test]
    fn sampling_cost_is_small_relative_to_full_run() {
        let program = parse("a = scan('v')\ns = sum(a)\n").expect("parse");
        let rep = run_sampling(&program, &linear_input(), &paper_scales()).expect("sampling");
        // Full-scale run for comparison.
        let storage = linear_input().storage_at(1.0);
        let mut interp = Interpreter::new(&storage);
        let full: LineCost = interp
            .run(&program, &[])
            .expect("run")
            .iter()
            .map(|r| r.cost)
            .sum();
        // Four samples at <= 2^-7 each: total sampling compute should be a
        // few percent of the real run.
        assert!((rep.total_cost().compute_ops as f64) < 0.05 * full.compute_ops as f64);
    }

    #[test]
    fn empty_scales_rejected() {
        let program = parse("a = 1\n").expect("parse");
        assert!(run_sampling(&program, &linear_input(), &[]).is_err());
    }

    #[test]
    fn out_of_range_scale_rejected() {
        let program = parse("a = 1\n").expect("parse");
        assert!(run_sampling(&program, &linear_input(), &[1.5]).is_err());
        assert!(run_sampling(&program, &linear_input(), &[0.0]).is_err());
    }

    #[test]
    fn a_bad_scale_list_is_refused_before_any_sample_runs() {
        let program = parse("a = scan('v')\ns = sum(a)\n").expect("parse");
        let calls = std::cell::Cell::new(0);
        let counting = |scale: f64| {
            calls.set(calls.get() + 1);
            linear_input().storage_at(scale)
        };
        for scales in [[2f64.powi(-10), 1.5], [2f64.powi(-10), 0.0]] {
            let (tracer, sink) = Tracer::to_memory();
            let refused = run_sampling_traced(&program, &counting, &scales, &tracer);
            assert!(refused.is_err(), "{scales:?}");
            assert_eq!(calls.get(), 0, "{scales:?}: a sample was generated");
            assert!(sink.is_empty(), "{scales:?}: a sampling.scale span opened");
        }
    }

    /// The hit count of each line of `w`'s program whose kernel result
    /// the four paper-scale sample runs shared, by the line's target.
    fn shared_lines(w: &isp_workloads::Workload) -> BTreeMap<String, u64> {
        let program = w.program().expect("parses");
        let memo = KernelMemo::default();
        let source = |scale: f64| w.storage_at(scale);
        sample(
            &program,
            &source,
            &paper_scales(),
            &Tracer::disabled(),
            &memo,
        )
        .expect("samples");
        memo.hits()
            .into_iter()
            .map(|(line, hits)| (program.lines()[line].target.clone(), hits))
            .collect()
    }

    #[test]
    fn a_buffer_stored_once_is_sampled_once() {
        // The workloads that relabel one stored draw per scale: each
        // computed line of a memoized kernel over those buffers, or over a
        // result shared from them, hits at each of the three later scales.
        // MatrixMul's and MixedGEMM's products are read by no value, so
        // they are charged from shapes and never reach the memo. The others
        // draw every scale afresh and share nothing.
        let stored_once: [(&str, &[&str]); 3] = [
            ("KMeans", &["a1"]),
            ("TPC-H-6-gz", &["d", "q", "dc", "price"]),
            ("LogGrep", &["code", "lat"]),
        ];
        for w in isp_workloads::full_set() {
            let expected: BTreeMap<String, u64> = stored_once
                .iter()
                .filter(|(name, _)| *name == w.name())
                .flat_map(|(_, lines)| lines.iter().map(|t| ((*t).to_owned(), 3)))
                .collect();
            let shared = shared_lines(&w);
            assert_eq!(shared, expected, "{}", w.name());
        }
    }
}
