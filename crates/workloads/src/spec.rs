//! The [`Workload`] type: an unannotated ALang program plus its input
//! generator and Table-I metadata.

use activepy::sampling::InputSource;
use alang::builtins::Storage;
use alang::error::Result;
use alang::shape::StoredReads;
use alang::value::encoding_canonical;
use alang::{lower, parser, CanonicalSink, Fingerprinter, LoweredProgram, Program};
use csd_sim::wire::Encoding;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Type of the input-materialization closures workloads carry: the
/// storage at a scale, of which only what the [`StoredReads`] names need
/// hold its values (a table generator draws those columns alone).
pub type Generator = Arc<dyn Fn(f64, &StoredReads) -> Storage + Send + Sync>;

/// One evaluated application: name, Table-I data size, the ALang source
/// (with one single-entry-single-exit region per line), and a deterministic
/// input generator parameterized by scale.
///
/// The input sits where the paper puts it — stored once, with code moving
/// to it: a workload generates its Table-I dataset (scale 1.0), parses its
/// source and lowers it the first time each is asked for, and keeps all
/// three for the life of the value, clones included (≈ 5 MB for all twelve
/// registered workloads together; nothing is evicted). Every other scale is a
/// sampling input, generated per call. A dataset whose values no sampled
/// cost reads (a wire-format stream, MatrixMul's and MixedGEMM's features,
/// KMeans' points) is relabelled from the one draw its generator stored;
/// one a filter, a select, a group, a tree path or a CSR density reads is
/// drawn afresh at each scale, since that draw noise is what §V's
/// data-dependent volume error is made of. A sampling input's table is
/// drawn for its value-read columns alone
/// ([`InputSource::projected_storage_at`]): TPC-H-6 draws three of
/// `lineitem`'s eight columns, and the rest hold zeros.
#[derive(Clone)]
pub struct Workload {
    name: String,
    table1_gb: f64,
    description: String,
    source: String,
    generator: Generator,
    kept: Arc<Kept>,
    /// Declared on-storage wire formats, `(dataset, encoding)` pairs in
    /// declaration order. Metadata mirroring what the generator encodes —
    /// it lets [`InputSource::wire_fingerprint`] answer without ever
    /// materializing storage, so a plan-cache key costs no datagen.
    encodings: Vec<(String, Encoding)>,
}

/// What a [`Workload`] makes once and shares with its clones.
#[derive(Default)]
struct Kept {
    program: OnceLock<Result<Program>>,
    lowered: OnceLock<Result<LoweredProgram>>,
    table1_storage: OnceLock<Storage>,
}

impl Workload {
    /// Assembles a workload.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        table1_gb: f64,
        description: impl Into<String>,
        source: impl Into<String>,
        generator: Generator,
    ) -> Self {
        Workload {
            name: name.into(),
            table1_gb,
            description: description.into(),
            source: source.into(),
            generator,
            kept: Arc::default(),
            encodings: Vec::new(),
        }
    }

    /// Declares the on-storage wire formats the generator applies, as
    /// `(dataset, encoding)` pairs. The declaration feeds plan-cache
    /// fingerprints (a re-encoded dataset invalidates cached plans);
    /// generators must encode exactly what is declared here.
    #[must_use]
    pub fn with_encodings(mut self, encodings: Vec<(String, Encoding)>) -> Self {
        self.encodings = encodings;
        self
    }

    /// The declared `(dataset, encoding)` pairs (empty for plain
    /// workloads).
    #[must_use]
    pub fn encodings(&self) -> &[(String, Encoding)] {
        &self.encodings
    }

    /// The workload's name as printed in Table I.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input data size in gigabytes (Table I).
    #[must_use]
    pub fn table1_gb(&self) -> f64 {
        self.table1_gb
    }

    /// One-line description of the computation.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The unannotated program source.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed program (parsed on the first call, cloned after).
    ///
    /// # Errors
    ///
    /// Propagates parse errors (none expected for the built-in sources).
    pub fn program(&self) -> Result<Program> {
        self.kept
            .program
            .get_or_init(|| parser::parse(&self.source))
            .clone()
    }

    /// The parsed program's plain lowering, without copy elimination
    /// (lowered on the first call, kept after): every run of the program
    /// that does not eliminate copies can share it.
    ///
    /// # Errors
    ///
    /// Propagates parse and lowering errors.
    pub fn lowered(&self) -> Result<&LoweredProgram> {
        self.kept
            .lowered
            .get_or_init(|| lower::lower(&self.program()?))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The workload's storage at `scale` (1.0 = Table-I size). Scale 1.0 is
    /// generated on the first call and every call returns a clone of that
    /// one storage — same buffers, same remembered digests; any other
    /// scale calls the generator again (see [`Workload`]).
    #[must_use]
    pub fn storage_at(&self, scale: f64) -> Storage {
        self.projected_storage_at(scale, &StoredReads::every())
    }

    /// As [`Self::storage_at`], with only what `reads` names drawn at a
    /// sampling scale; scale 1.0 is the kept storage, whole.
    #[must_use]
    pub fn projected_storage_at(&self, scale: f64, reads: &StoredReads) -> Storage {
        if scale == 1.0 {
            self.kept
                .table1_storage
                .get_or_init(|| (self.generator)(1.0, &StoredReads::every()))
                .clone()
        } else {
            (self.generator)(scale, reads)
        }
    }
}

impl InputSource for Workload {
    fn storage_at(&self, scale: f64) -> Storage {
        Workload::storage_at(self, scale)
    }

    fn projected_storage_at(&self, scale: f64, reads: &StoredReads) -> Storage {
        Workload::projected_storage_at(self, scale, reads)
    }

    /// The declared `(dataset, encoding)` pairs, each descriptor through
    /// the walk an encoded value opens with, into one [`Fingerprinter`] —
    /// `0` for plain workloads, matching the trait default. Computed from
    /// the declarations alone, so plan-cache keys never materialize
    /// storage.
    fn wire_fingerprint(&self) -> u64 {
        if self.encodings.is_empty() {
            return 0;
        }
        let mut f = Fingerprinter::default();
        for (name, enc) in &self.encodings {
            f.str(name);
            encoding_canonical(enc, &mut f);
        }
        f.finish()
    }
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("table1_gb", &self.table1_gb)
            .field(
                "lines",
                &self.source.lines().filter(|l| !l.trim().is_empty()).count(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activepy::exec::execute_all_host;
    use alang::table::{Column, Table};
    use alang::{ExecTier, Value};
    use csd_sim::SystemConfig;
    use std::sync::Mutex;

    fn toy_storage(scale: f64, _: &StoredReads) -> Storage {
        let logical = ((scale * 1e8) as u64).max(16);
        let mut st = Storage::new();
        st.insert(
            "v",
            Value::Array(alang::value::ArrayVal::with_logical(vec![1.0; 16], logical)),
        );
        let x = Column::F64(Arc::new((0..16).map(f64::from).collect()));
        let t = Table::with_logical_rows(vec![("x".to_owned(), x)], logical).expect("table");
        st.insert("t", Value::Table(t));
        st
    }

    const TOY_SOURCE: &str = "a = scan('v')\nt = scan('t')\ns = sum(a) + sum(col(t, 'x'))\n";

    fn toy() -> Workload {
        Workload::new("toy", 1.0, "toy sum", TOY_SOURCE, Arc::new(toy_storage))
    }

    /// [`toy`] with a generator that logs the scale of every call.
    fn logged() -> (Workload, Arc<Mutex<Vec<f64>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&calls);
        let generator = Arc::new(move |scale, reads: &StoredReads| {
            log.lock().expect("no generator panicked").push(scale);
            toy_storage(scale, reads)
        });
        let w = Workload::new("toy", 1.0, "toy sum", TOY_SOURCE, generator);
        (w, calls)
    }

    fn calls(log: &Mutex<Vec<f64>>) -> Vec<f64> {
        log.lock().expect("no generator panicked").clone()
    }

    /// The `Arc` behind column `x` of dataset `t`.
    fn x_payload(st: &Storage) -> &Arc<Vec<f64>> {
        let Ok(Value::Table(t)) = st.get("t") else {
            panic!("`t` is a table");
        };
        let Ok(Column::F64(x)) = t.column("x") else {
            panic!("`x` is an f64 column");
        };
        x
    }

    #[test]
    fn fingerprints_split_on_every_field() {
        use csd_sim::wire::{ByteOrder, Codec};
        let fp = |name: &str, encoding: Encoding| {
            toy()
                .with_encodings(vec![(name.to_owned(), encoding)])
                .wire_fingerprint()
        };
        let base = Encoding::gzip_shuffled();
        let variants = [
            Encoding {
                codec: Codec::Zlib,
                ..base
            },
            Encoding {
                codec: Codec::None,
                ..base
            },
            Encoding {
                shuffle: false,
                ..base
            },
            Encoding {
                byte_order: ByteOrder::Big,
                ..base
            },
            Encoding {
                fill_value: Some(0.0),
                ..base
            },
            Encoding {
                fill_value: Some(-9999.0),
                ..base
            },
        ];
        // Zero is what a plain workload declares.
        let mut seen = std::collections::HashSet::from([0, fp("v", base)]);
        for v in variants {
            assert!(seen.insert(fp("v", v)), "collision for {v:?}");
        }
        assert!(seen.insert(fp("w", base)), "the dataset name is not hashed");
        // Deterministic across calls.
        assert_eq!(fp("v", base), fp("v", Encoding::gzip_shuffled()));
    }

    #[test]
    fn accessors_and_parse() {
        let w = toy();
        assert_eq!(w.name(), "toy");
        assert_eq!(w.table1_gb(), 1.0);
        assert_eq!(w.program().expect("parse").len(), 3);
        assert!(format!("{w:?}").contains("toy"));
    }

    #[test]
    fn storage_scales() {
        let w = toy();
        let full = w.storage_at(1.0);
        let tiny = w.storage_at(1.0 / 1024.0);
        let fb = full.get("v").expect("v").virtual_bytes();
        let tb = tiny.get("v").expect("v").virtual_bytes();
        assert!(fb > 500 * tb);
    }

    #[test]
    fn the_table1_input_is_generated_once_and_its_buffers_shared() {
        let (w, log) = logged();
        assert!(calls(&log).is_empty(), "nothing is generated up front");
        let first = w.storage_at(1.0);
        let second = w.storage_at(1.0);
        let of_a_clone = w.clone().storage_at(1.0);
        let through_the_trait = InputSource::storage_at(&w, 1.0);
        assert_eq!(calls(&log), [1.0]);
        for other in [&second, &of_a_clone, &through_the_trait] {
            assert!(Arc::ptr_eq(x_payload(&first), x_payload(other)));
        }
        // A digest one of them works out, all of them have.
        assert_eq!(
            first.digest("t").expect("t"),
            alang::Fingerprinter::digest(second.get("t").expect("t"))
        );
    }

    #[test]
    fn sampling_scales_are_generated_per_call_and_nothing_of_them_is_kept() {
        let (w, log) = logged();
        let a = w.storage_at(0.5);
        let b = w.storage_at(0.5);
        assert_eq!(calls(&log), [0.5, 0.5]);
        assert!(!Arc::ptr_eq(x_payload(&a), x_payload(&b)));
        let sampled = Arc::downgrade(x_payload(&a));
        drop((a, b));
        assert!(sampled.upgrade().is_none(), "the caller held the only copy");
        // ... unlike the Table-I input, which outlives the caller's clone.
        let full = w.storage_at(1.0);
        let kept = Arc::downgrade(x_payload(&full));
        drop(full);
        assert!(kept.upgrade().is_some());
        assert_eq!(calls(&log), [0.5, 0.5, 1.0]);
    }

    #[test]
    fn a_run_over_the_kept_input_is_the_run_over_a_fresh_one() {
        let w = toy();
        let program = w.program().expect("parse");
        let run = |storage: &Storage| {
            let mut system = SystemConfig::paper_default().build();
            let report = execute_all_host(
                &program,
                storage,
                &mut system,
                ExecTier::Native,
                &vec![false; program.len()],
            )
            .expect("runs");
            (report.values_fingerprint, report.total_secs.to_bits())
        };
        let fresh = run(&(w.generator)(1.0, &StoredReads::every()));
        assert_eq!(run(&w.storage_at(1.0)), fresh);
        // Again, now that the kept input's digests are remembered.
        assert_eq!(run(&w.storage_at(1.0)), fresh);
    }

    #[test]
    fn the_program_is_parsed_once_and_a_parse_error_is_kept_too() {
        let w = toy();
        let program = w.program().expect("parse");
        assert_eq!(w.program().expect("parse"), program);
        assert_eq!(w.clone().program().expect("parse"), program);
        assert_eq!(program, parser::parse(TOY_SOURCE).expect("parse"));

        let bad = Workload::new("bad", 1.0, "bad", "a = = 1\n", Arc::new(toy_storage));
        let err = bad.program().expect_err("does not parse");
        assert_eq!(bad.program().expect_err("still does not parse"), err);
    }
}
