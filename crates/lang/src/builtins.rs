//! The builtin function library.
//!
//! Builtins play the role NumPy / native extension modules play for Python:
//! bulk kernels invoked from interpreted code across a library boundary.
//! Each builtin computes a *real* result on the materialized data and
//! reports an *analytic* operation count at logical (paper) scale, plus any
//! stored bytes it streamed.
//!
//! Per-element operation weights are crude but consistent; what matters for
//! the reproduction is their relative magnitudes (a transcendental costs
//! more than an add, a tree traversal more than a compare) and that data
//! volumes are exact.

use crate::canonical::Fingerprinter;
use crate::copyelim::StaticType;
use crate::error::{LangError, Result};
use crate::forest::FlatForest;
use crate::matrix::Matrix;
use crate::memo::KernelMemo;
use crate::par::ParEngine;
use crate::shape::{Charge, ColumnShape, Shape, ShapeFn};
use crate::simd;
use crate::table::{selected_rows, take_rows, Column, Table};
use crate::value::{type_err, ArrayVal, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, LazyLock, OnceLock};

/// Per-element operation weights used by the analytic cost reports.
pub mod weights {
    /// Cheap per-element view/convert (e.g. `col`).
    pub const VIEW: u64 = 1;
    /// Elementwise arithmetic.
    pub const ELEM: u64 = 4;
    /// Reduction step (sum/min/max/mean).
    pub const REDUCE: u64 = 2;
    /// Gather step per row per column in `filter`.
    pub const GATHER: u64 = 2;
    /// Comparison-sort constant (× n log₂ n).
    pub const SORT: u64 = 2;
    /// Hash-aggregate per row.
    pub const GROUP: u64 = 8;
    /// Multiply-add in dense GEMM.
    pub const MADD: u64 = 2;
    /// Per stored non-zero in SpMV.
    pub const SPMV: u64 = 4;
    /// Per dense element scanned by CSR conversion.
    pub const TO_CSR: u64 = 3;
    /// Per edge in a PageRank step.
    pub const PR_EDGE: u64 = 6;
    /// Per node in a PageRank step.
    pub const PR_NODE: u64 = 2;
    /// Per point-centroid-dimension term in k-means.
    pub const KMEANS: u64 = 3;
    /// Per tree node visited during forest scoring.
    pub const TREE_NODE: u64 = 6;
    /// Transcendental (`exp`, `log`).
    pub const TRANSCENDENTAL: u64 = 20;
    /// Square root.
    pub const SQRT: u64 = 10;
    /// Error function.
    pub const ERF: u64 = 30;
    /// Elementwise select (`where`, `select`).
    pub const SELECT: u64 = 2;
    /// Per *encoded* byte of DEFLATE stream inflated by `decode`
    /// (Huffman walk + LZ77 copy).
    pub const INFLATE_BYTE: u64 = 6;
    /// Per *decoded* byte moved by the un-shuffle transpose.
    pub const SHUFFLE_BYTE: u64 = 1;
    /// Per element of `decode` byte-assembly work (bit-pattern load;
    /// charged again for a byte swap and again for a fill-value check).
    pub const DECODE_ELEM: u64 = 1;
}

/// Named stored datasets visible to `scan`.
///
/// The workload generators populate one of these at the desired scale; the
/// sampling phase populates smaller ones at the paper's four scale factors.
///
/// A storage keeps each dataset's integrity tag with the data: the first
/// [`digest`](Storage::digest) of a dataset is remembered beside its value.
/// Clones share the entry — a clone holds the same value, so whichever of
/// them hashes it first has hashed it for all — and
/// [`insert`](Storage::insert) replaces entry and tag together.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    datasets: BTreeMap<String, Arc<Dataset>>,
}

#[derive(Debug)]
struct Dataset {
    value: Value,
    /// [`Fingerprinter::digest`] of `value`, once something has asked.
    digest: OnceLock<u64>,
}

impl Storage {
    /// An empty storage.
    #[must_use]
    pub fn new() -> Self {
        Storage::default()
    }

    /// Adds (or replaces) a dataset.
    pub fn insert(&mut self, name: impl Into<String>, value: Value) {
        let dataset = Dataset {
            value,
            digest: OnceLock::new(),
        };
        self.datasets.insert(name.into(), Arc::new(dataset));
    }

    fn dataset(&self, name: &str) -> Result<&Dataset> {
        self.datasets
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| LangError::UnknownDataset {
                name: name.to_owned(),
            })
    }

    /// Looks up a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::UnknownDataset`] if absent.
    pub fn get(&self, name: &str) -> Result<&Value> {
        self.dataset(name).map(|d| &d.value)
    }

    /// [`Fingerprinter::digest`] of a dataset, computed on the first call
    /// and remembered for as long as the storage (or any clone of it) holds
    /// this value under this name.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::UnknownDataset`] if absent.
    pub fn digest(&self, name: &str) -> Result<u64> {
        self.dataset(name)
            .map(|d| *d.digest.get_or_init(|| Fingerprinter::digest(&d.value)))
    }

    /// Names of all datasets.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.datasets.keys().map(String::as_str)
    }

    /// Total virtual bytes across all datasets.
    #[must_use]
    pub fn total_virtual_bytes(&self) -> u64 {
        self.datasets
            .values()
            .map(|d| d.value.virtual_bytes())
            .sum()
    }
}

/// Result of a builtin call: the produced value plus its analytic cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltinOutput {
    /// The produced value.
    pub value: Value,
    /// Compute operations at logical scale.
    pub ops: u64,
    /// Bytes streamed from storage (non-zero only for `scan`).
    pub storage_bytes: u64,
}

impl BuiltinOutput {
    pub(crate) fn new(value: Value, ops: u64) -> Self {
        BuiltinOutput {
            value,
            ops,
            storage_bytes: 0,
        }
    }
}

/// Execution context handed to every kernel: the stored datasets plus the
/// data-parallel engine that decides chunked execution.
#[derive(Debug, Clone, Copy)]
pub struct KernelCtx<'a> {
    /// Named stored datasets visible to `scan`.
    pub storage: &'a Storage,
    /// The chunked-execution engine (serial by default).
    pub par: &'a ParEngine,
    /// The evaluator's group-index memo; `None` where no evaluator runs.
    pub(crate) groups: Option<&'a GroupMemo>,
    /// The memo lent to the evaluator, with the running line's index:
    /// `kmeans_assign` and `decode` take their label-free result from it
    /// when an earlier run's same line read the same buffers. `None` — the
    /// default everywhere but the sampling phase's runs — computes every
    /// call.
    pub(crate) memo: Option<(&'a KernelMemo, usize)>,
    /// The columns of a table result some computed line reads by value;
    /// `filter` gathers only these and leaves zeros in the others. `None` —
    /// everywhere but the sampling phase's runs — gathers every column.
    pub(crate) columns: Option<&'a BTreeSet<String>>,
}

impl<'a> KernelCtx<'a> {
    /// A context running `storage` with the shared serial engine.
    #[must_use]
    pub fn serial(storage: &'a Storage) -> Self {
        KernelCtx {
            storage,
            par: ParEngine::serial_ref(),
            groups: None,
            memo: None,
            columns: None,
        }
    }

    /// `compute`'s label-free result for `kernel` over `args`: from the
    /// lent memo when it holds one over these very buffers, else computed
    /// (and, with a memo, kept for the next run of this line).
    fn reuse(
        &self,
        kernel: &'static str,
        args: &[Value],
        compute: impl FnOnce() -> Result<Vec<f64>>,
    ) -> Result<Arc<Vec<f64>>> {
        match self.memo {
            Some((memo, line)) => memo.get_or_compute(line, kernel, args, compute),
            None => compute().map(Arc::new),
        }
    }
}

/// A builtin kernel: its row's name, the arguments its row admitted and
/// the execution context in; value and analytic cost out. Function
/// pointers (not trait objects) so the lowered VM dispatches with one
/// indirect call and zero allocation.
pub type KernelFn = for<'a> fn(&'static str, &[Value], &KernelCtx<'a>) -> Result<BuiltinOutput>;

/// A builtin's static result type, as copy elimination infers it: "if
/// ActivePy can determine the target type of memory objects" (§III-C0c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultType {
    /// Always this type.
    Fixed(StaticType),
    /// The first argument's type.
    FirstArg,
    /// The type of the stored dataset the first argument names, as sampling
    /// observed it: the call reads storage.
    Stored,
}

/// One argument of a builtin, as its row declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// A value of this type.
    Is(StaticType),
    /// A number or an array: the unary math rows.
    NumOrArray,
    /// Any value: `len`.
    Any,
}

const NUM: Arg = Arg::Is(StaticType::Num);
const STR: Arg = Arg::Is(StaticType::Str);
const ARRAY: Arg = Arg::Is(StaticType::Array);
const MASK: Arg = Arg::Is(StaticType::BoolArray);
const TABLE: Arg = Arg::Is(StaticType::Table);
const MATRIX: Arg = Arg::Is(StaticType::Matrix);
const CSR: Arg = Arg::Is(StaticType::Csr);
const FOREST: Arg = Arg::Is(StaticType::Forest);
const ENCODED: Arg = Arg::Is(StaticType::Encoded);

impl Arg {
    /// Whether the argument admits a value of type `ty`.
    #[must_use]
    pub fn admits(self, ty: StaticType) -> bool {
        match self {
            Arg::Is(wanted) => ty == wanted,
            NumOrArray => matches!(ty, StaticType::Num | StaticType::Array),
            Any => true,
        }
    }
}

/// How a builtin's output rows line up with row-sharded arguments
/// ([`crate::shard::analyze`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowRule {
    /// Row-aligned with any sharded argument.
    Elementwise,
    /// Rows selected from the first argument by the second; a sharded
    /// second argument over a replicated first has no aligned partition.
    SelectFirst,
    /// Row-aligned with the first argument; the others must be replicated
    /// (the right-hand side of `matmul`, the centroids of `kmeans_assign`).
    FirstOnly,
    /// `(model, rows)`: row-aligned with the rows; the model must be
    /// replicated.
    ModelThenRows,
    /// Fences when fed sharded data: reductions and global restructurings.
    /// A storage read's rows are instead its dataset's.
    Fence,
}

use Arg::{Any, NumOrArray};
use ResultType::{FirstArg, Fixed, Stored};
use RowRule::{Elementwise, Fence, FirstOnly, ModelThenRows, SelectFirst};

/// A read-only view of one builtin's row: its name, its arguments' types,
/// its result type, how its output rows line up with its arguments' and
/// which arguments it reads by value. Dispatch checks every call against
/// the same row, so the view cannot drift from what a call admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// The builtin's name.
    pub name: &'static str,
    /// Its arguments, in order.
    pub args: &'static [Arg],
    /// Its result type.
    pub result: ResultType,
    /// How its output rows line up with row-sharded arguments.
    pub rows: RowRule,
    /// The arguments whose values, not only types and sizes, its cost,
    /// result shape or errors read ([`crate::shape`]).
    pub by_value: &'static [usize],
}

/// Every builtin's [`Signature`], in table order.
pub fn signatures() -> impl ExactSizeIterator<Item = Signature> {
    KERNELS.iter().map(|k| k.sig)
}

/// One builtin: its signature, its kernel and what sampling may skip of
/// it.
struct Kernel {
    /// Every call is checked against its arguments ([`Kernel::check`])
    /// before its kernel or shape charge runs.
    sig: Signature,
    func: KernelFn,
    /// The kernel's cost from its arguments' shapes, when its result can
    /// be a placeholder; without one, a sampling run always computes it.
    shape: Option<ShapeFn>,
}

impl Kernel {
    /// `args` against the row: their number first, then each one's type in
    /// order.
    fn check(&self, args: &[Value]) -> Result<()> {
        let (name, row) = (self.sig.name, self.sig.args);
        if args.len() != row.len() {
            return Err(LangError::Arity {
                name: name.to_owned(),
                expected: row.len(),
                got: args.len(),
            });
        }
        for (arg, value) in row.iter().zip(args) {
            if arg.admits(StaticType::of(value)) {
                continue;
            }
            return Err(match *arg {
                Arg::Is(wanted) => type_err(wanted, value),
                _ => LangError::type_error(format!(
                    "{name} expects num or array, got {}",
                    value.type_name()
                )),
            });
        }
        Ok(())
    }
}

/// Binds a call's arguments by type — `checked!([Array(x), Num(k)] = args)`
/// — where [`Kernel::check`] has already admitted those types.
macro_rules! checked {
    ([$($ty:ident($bind:pat)),+] = $args:expr) => {
        let [$(Value::$ty($bind)),+] = $args else {
            unreachable!("arguments are checked against the row")
        };
    };
}

const fn row(
    name: &'static str,
    func: KernelFn,
    args: &'static [Arg],
    result: ResultType,
    rows: RowRule,
    by_value: &'static [usize],
    shape: Option<ShapeFn>,
) -> Kernel {
    let sig = Signature {
        name,
        args,
        result,
        rows,
        by_value,
    };
    Kernel { sig, func, shape }
}

/// The builtins: the one place a name, its kernel, its argument types, its
/// result type, its row rule, its by-value arguments and its shape charge
/// are written down.
#[rustfmt::skip]
static KERNELS: &[Kernel] = &[
    row("scan",          k_scan,          &[STR],                Stored,                    Fence,         &[0],    None),
    row("col",           k_col,           &[TABLE, STR],         Fixed(StaticType::Array),  SelectFirst,   &[1],    None),
    row("filter",        k_filter,        &[TABLE, MASK],        Fixed(StaticType::Table),  SelectFirst,   &[1],    Some(filter_charge)),
    row("select",        k_select,        &[ARRAY, MASK],        Fixed(StaticType::Array),  SelectFirst,   &[1],    Some(select_charge)),
    row("len",           k_len,           &[Any],                Fixed(StaticType::Num),    Fence,         &[],     Some(len_charge)),
    row("sum",           reduce,          &[ARRAY],              Fixed(StaticType::Num),    Fence,         &[],     Some(reduce_charge)),
    row("mean",          reduce,          &[ARRAY],              Fixed(StaticType::Num),    Fence,         &[],     Some(reduce_charge)),
    row("minv",          reduce,          &[ARRAY],              Fixed(StaticType::Num),    Fence,         &[],     Some(reduce_charge)),
    row("maxv",          reduce,          &[ARRAY],              Fixed(StaticType::Num),    Fence,         &[],     Some(reduce_charge)),
    row("count",         k_count,         &[MASK],               Fixed(StaticType::Num),    Fence,         &[],     Some(count_charge)),
    row("exp",           unary_math,      &[NumOrArray],         FirstArg,                  Elementwise,   &[],     Some(unary_charge)),
    row("log",           unary_math,      &[NumOrArray],         FirstArg,                  Elementwise,   &[],     Some(unary_charge)),
    row("sqrt",          unary_math,      &[NumOrArray],         FirstArg,                  Elementwise,   &[],     Some(unary_charge)),
    row("erf",           unary_math,      &[NumOrArray],         FirstArg,                  Elementwise,   &[],     Some(unary_charge)),
    row("abs",           unary_math,      &[NumOrArray],         FirstArg,                  Elementwise,   &[],     Some(unary_charge)),
    row("sort",          k_sort,          &[ARRAY],              Fixed(StaticType::Array),  Fence,         &[0],    None),
    row("dot",           k_dot,           &[ARRAY, ARRAY],       Fixed(StaticType::Num),    Fence,         &[],     Some(dot_charge)),
    row("where",         k_where,         &[MASK, ARRAY, ARRAY], Fixed(StaticType::Array),  Elementwise,   &[],     Some(where_charge)),
    row("group_sum",     group_sum,       &[ARRAY, ARRAY],       Fixed(StaticType::Table),  Fence,         &[0],    Some(group_sum_charge)),
    row("matmul",        k_matmul,        &[MATRIX, MATRIX],     Fixed(StaticType::Matrix), FirstOnly,     &[],     Some(matmul_charge)),
    row("gemm_batch",    gemm_batch,      &[MATRIX, MATRIX],     Fixed(StaticType::Matrix), FirstOnly,     &[],     Some(gemm_batch_charge)),
    row("to_csr",        k_to_csr,        &[MATRIX],             Fixed(StaticType::Csr),    Fence,         &[0],    None),
    row("spmv",          k_spmv,          &[CSR, ARRAY],         Fixed(StaticType::Array),  Fence,         &[],     Some(spmv_charge)),
    row("pagerank_step", k_pagerank_step, &[CSR, ARRAY, NUM],    Fixed(StaticType::Array),  Fence,         &[],     Some(pagerank_step_charge)),
    row("kmeans_assign", kmeans_assign,   &[MATRIX, MATRIX],     Fixed(StaticType::Array),  FirstOnly,     &[],     Some(kmeans_assign_charge)),
    row("kmeans_update", kmeans_update,   &[MATRIX, ARRAY, NUM], Fixed(StaticType::Matrix), Fence,         &[1, 2], Some(kmeans_update_charge)),
    row("forest_score",  forest_score,    &[FOREST, MATRIX],     Fixed(StaticType::Array),  ModelThenRows, &[0, 1], None),
    row("gather",        k_gather,        &[ARRAY, ARRAY],       Fixed(StaticType::Array),  Fence,         &[1],    Some(gather_charge)),
    row("frob",          k_frob,          &[MATRIX],             Fixed(StaticType::Num),    Fence,         &[],     Some(frob_charge)),
    row("gram",          k_gram,          &[MATRIX],             Fixed(StaticType::Matrix), Fence,         &[],     Some(gram_charge)),
    row("scan_raw",      k_scan_raw,      &[STR],                Stored,                    Fence,         &[0],    None),
    row("decode",        k_decode,        &[ENCODED],            Fixed(StaticType::Array),  Elementwise,   &[0],    None),
];

/// Dense identifier of a builtin kernel: an index into the dispatch table,
/// resolved once at lower time so execution never re-matches name strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(u16);

impl KernelId {
    fn kernel(self) -> &'static Kernel {
        &KERNELS[self.0 as usize]
    }

    /// The kernel's surface name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.kernel().sig.name
    }

    /// Invokes the kernel on already-evaluated arguments in an explicit
    /// execution context.
    ///
    /// # Errors
    ///
    /// Arity, type, and kernel-specific shape errors, exactly as [`call`]
    /// with the same name would produce.
    pub fn invoke_in(self, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
        let kernel = self.kernel();
        kernel.check(args)?;
        (kernel.func)(kernel.sig.name, args, ctx)
    }

    /// The call's static result type.
    pub(crate) fn result_type(self) -> ResultType {
        self.kernel().sig.result
    }

    /// How the call's output rows line up with sharded arguments.
    pub(crate) fn row_rule(self) -> RowRule {
        self.kernel().sig.rows
    }

    /// Whether the kernel's cost, result shape or errors read argument
    /// `arg`'s values, not only its type and sizes.
    pub(crate) fn reads_by_value(self, arg: usize) -> bool {
        self.kernel().sig.by_value.contains(&arg)
    }

    /// Whether a sampling run may charge the call from its arguments'
    /// shapes, leaving a placeholder for its result.
    pub(crate) fn charges_from_shapes(self) -> bool {
        self.kernel().shape.is_some()
    }

    /// The call's cost from its arguments' shapes.
    ///
    /// # Errors
    ///
    /// The arity, type and shape errors [`Self::invoke_in`] raises.
    pub(crate) fn charge(self, args: &[Value], ctx: &KernelCtx<'_>) -> Result<Charge> {
        let kernel = self.kernel();
        let shape = kernel.shape;
        kernel.check(args)?;
        (shape.expect("a call charged from shapes has a shape function"))(
            kernel.sig.name,
            args,
            ctx,
        )
    }

    /// Whether the call's result is the column of its table argument that
    /// its second argument names (`col`): a read of the result reads that
    /// column alone ([`crate::shape::Demand`]).
    pub(crate) fn takes_a_column(self) -> bool {
        self.name() == "col"
    }

    /// Whether the call's result has its table argument's columns, some
    /// rows of each (`filter`): a read of some of the result's columns
    /// reads those columns of the table alone.
    pub(crate) fn keeps_columns(self) -> bool {
        self.name() == "filter"
    }

    /// Whether the call reads a stored dataset.
    pub(crate) fn reads_storage(self) -> bool {
        self.result_type() == Stored
    }

    /// Whether calls to this kernel charge an output-copy to the cost model
    /// (storage reads are the exceptions: they stream from storage
    /// instead).
    #[must_use]
    pub fn charges_copy(self) -> bool {
        !self.reads_storage()
    }
}

/// Kernel names sorted for binary-search resolution, each carrying its
/// index into the (insertion-ordered) dispatch table.
static SORTED_KERNELS: LazyLock<Vec<(&'static str, u16)>> = LazyLock::new(|| {
    let mut sorted: Vec<(&'static str, u16)> = KERNELS
        .iter()
        .enumerate()
        .map(|(i, k)| (k.sig.name, i as u16))
        .collect();
    sorted.sort_unstable_by_key(|(name, _)| *name);
    sorted
});

/// Resolves a builtin name to its dense kernel id, if registered.
/// Binary search over a precomputed sorted table, not a linear scan.
#[must_use]
pub fn kernel_id(name: &str) -> Option<KernelId> {
    let sorted = &*SORTED_KERNELS;
    sorted
        .binary_search_by_key(&name, |(n, _)| n)
        .ok()
        .map(|pos| KernelId(sorted[pos].1))
}

/// Invokes builtin `name` on already-evaluated `args`.
///
/// # Errors
///
/// Returns [`LangError::UnknownFunction`]-shaped errors via the caller (this
/// function returns [`LangError::Runtime`] for unknown names), arity errors,
/// type errors, and any kernel-specific shape errors.
pub fn call(name: &str, args: &[Value], storage: &Storage) -> Result<BuiltinOutput> {
    call_in(name, args, &KernelCtx::serial(storage))
}

/// Invokes builtin `name` in an explicit execution context.
///
/// # Errors
///
/// Same surface as [`call`].
pub fn call_in(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    match kernel_id(name) {
        Some(id) => id.invoke_in(args, ctx),
        None => Err(LangError::runtime(format!("`{name}` is not a builtin"))),
    }
}

fn k_scan(_: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    checked!([Str(name)] = args);
    let value = ctx.storage.get(name)?.clone();
    if matches!(value, Value::Encoded(_)) {
        return Err(LangError::type_error(format!(
            "scan: dataset `{name}` is wire-encoded; use scan_raw + decode"
        )));
    }
    let bytes = value.virtual_bytes();
    Ok(BuiltinOutput {
        value,
        ops: 0,
        storage_bytes: bytes,
    })
}

fn k_scan_raw(_: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    // Reads a dataset *without* decoding: the result is the encoded byte
    // stream, so only `Encoding::encoded_logical_bytes` move off flash
    // and the decode stage becomes a separately placeable line.
    checked!([Str(name)] = args);
    let value = ctx.storage.get(name)?.clone();
    if !matches!(value, Value::Encoded(_)) {
        return Err(LangError::type_error(format!(
            "scan_raw: dataset `{name}` is not wire-encoded; use scan"
        )));
    }
    let bytes = value.virtual_bytes();
    Ok(BuiltinOutput {
        value,
        ops: 0,
        storage_bytes: bytes,
    })
}

fn k_decode(_: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    use csd_sim::wire::Codec;

    checked!([Encoded(e)] = args);
    let encoding = *e.encoding();
    // One encoded chunk per grid chunk: decode parallelizes over exactly
    // the deterministic ENCODED_CHUNK_ELEMS boundaries the value was
    // encoded on, and decoding is exact, so chunk-ordered concat is
    // bit-identical to the serial loop at any thread count.
    let data = ctx.reuse("decode", args, || {
        match ctx.par.map_chunks(
            e.chunks().len(),
            crate::value::ENCODED_CHUNK_ELEMS,
            |_, r| e.decode_range(r),
        ) {
            Some(parts) => {
                let mut data = Vec::with_capacity(e.actual_len());
                for part in parts {
                    data.extend(part?);
                }
                Ok(data)
            }
            None => e.decode_all(),
        }
    })?;
    let logical = e.logical_len();
    // Analytic cost per feature actually present in the encoding: the
    // inflate walk is priced per *encoded* byte, the un-shuffle per
    // decoded byte, byte swap and fill check per element.
    let mut ops = logical * weights::DECODE_ELEM;
    if matches!(encoding.codec, Codec::Gzip | Codec::Zlib) {
        ops += e.encoded_logical_bytes() * weights::INFLATE_BYTE;
    }
    if encoding.shuffle {
        ops += logical * 8 * weights::SHUFFLE_BYTE;
    }
    if encoding.byte_order == csd_sim::wire::ByteOrder::Big {
        ops += logical * weights::DECODE_ELEM;
    }
    if encoding.fill_value.is_some() {
        ops += logical * weights::DECODE_ELEM;
    }
    let tracer = ctx.par.tracer();
    tracer.counter_add("kernel.decode.calls", 1);
    tracer.counter_add("kernel.decode.bytes_in", e.encoded_actual_bytes());
    tracer.counter_add("kernel.decode.bytes_out", data.len() as u64 * 8);
    tracer.counter_add(
        match encoding.codec {
            Codec::Gzip => "kernel.decode.codec.gzip",
            Codec::Zlib => "kernel.decode.codec.zlib",
            Codec::None => "kernel.decode.codec.none",
        },
        1,
    );
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::shared(data, logical)),
        ops,
    ))
}

fn k_col(_: &str, args: &[Value], _ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    checked!([Table(table), Str(name)] = args);
    // An f64 column is already the array's representation: share it.
    let data = match table.column(name)? {
        Column::F64(v) => Arc::clone(v),
        Column::Dict { codes, .. } => Arc::new(codes.iter().map(|c| f64::from(*c)).collect()),
    };
    let arr = ArrayVal::shared(data, table.logical_rows());
    Ok(BuiltinOutput::new(
        Value::Array(arr),
        table.logical_rows() * weights::VIEW,
    ))
}

/// `filter`'s operations: a mask test per row and a gather per row of
/// each column.
fn filter_ops(table: &Table) -> u64 {
    table.logical_rows() * (1 + table.column_count() as u64 * weights::GATHER)
}

/// `filter`'s charge reads its mask: the result keeps its `true` rows of
/// every column.
fn filter_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Table(table), BoolArray(mask)] = args);
    table.check_mask(mask.len())?;
    let kept = mask.count_true();
    Ok(Charge::new(
        Shape::table(table, kept, table.kept_logical_rows(kept)),
        filter_ops(table),
    ))
}

fn k_filter(_: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    checked!([Table(table), BoolArray(mask)] = args);
    let out = table.filter_reading(mask.data(), ctx.par, ctx.columns)?;
    Ok(BuiltinOutput::new(Value::Table(out), filter_ops(table)))
}

/// `select`'s charge reads its mask: the result keeps its `true` rows.
fn select_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Array(arr), BoolArray(mask)] = args);
    if arr.len() != mask.len() {
        return Err(LangError::runtime(format!(
            "select: array has {} elements, mask has {}",
            arr.len(),
            mask.len()
        )));
    }
    let kept = mask.count_true();
    let logical =
        ((arr.logical_len() as f64 * mask.fraction(kept)).round() as u64).max(kept as u64);
    Ok(Charge::new(
        Shape::Array { len: kept, logical },
        arr.logical_len() * weights::SELECT,
    ))
}

fn k_select(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { shape, ops } = select_charge(name, args, ctx)?;
    checked!([Array(arr), BoolArray(mask)] = args);
    // Chunk-ordered concat of per-chunk selections == the serial selection.
    let data = take_rows(arr.data(), &selected_rows(mask.data()), Some(ctx.par));
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::with_logical(data, shape.logical_len())),
        ops,
    ))
}

fn len_charge(_: &str, _: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    Ok(Charge::new(Shape::Num, 1))
}

fn k_len(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { ops, .. } = len_charge(name, args, ctx)?;
    Ok(BuiltinOutput::new(
        Value::Num(args[0].logical_elems() as f64),
        ops,
    ))
}

fn count_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([BoolArray(mask)] = args);
    Ok(Charge::new(
        Shape::Num,
        mask.logical_len() * weights::REDUCE,
    ))
}

fn k_count(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { ops, .. } = count_charge(name, args, ctx)?;
    checked!([BoolArray(mask)] = args);
    let logical_count = (mask.logical_len() as f64 * mask.selectivity()).round();
    Ok(BuiltinOutput::new(Value::Num(logical_count), ops))
}

fn k_sort(_: &str, args: &[Value], _ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    checked!([Array(arr)] = args);
    if arr.data().iter().any(|x| x.is_nan()) {
        return Err(LangError::runtime("sort: cannot order NaN"));
    }
    let mut data = arr.data().to_vec();
    // Stable, and `-0.0` equals `0.0`: equal values keep their input order.
    data.sort_by(|x, y| x.partial_cmp(y).expect("NaN refused above"));
    let n = arr.logical_len();
    let ops = weights::SORT * n * (n.max(2) as f64).log2().ceil() as u64;
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::with_logical(data, n)),
        ops,
    ))
}

fn dot_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Array(x), Array(y)] = args);
    if x.len() != y.len() {
        return Err(LangError::runtime("dot: length mismatch"));
    }
    Ok(Charge::new(Shape::Num, x.logical_len() * weights::REDUCE))
}

fn k_dot(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { ops, .. } = dot_charge(name, args, ctx)?;
    checked!([Array(x), Array(y)] = args);
    let v = ctx.par.dot(x.data(), y.data());
    Ok(BuiltinOutput::new(Value::Num(v), ops))
}

/// `where`'s charge reads no value: the result is as long as its choices.
fn where_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([BoolArray(mask), Array(x), Array(y)] = args);
    if mask.len() != x.len() || x.len() != y.len() {
        return Err(LangError::runtime("where: length mismatch"));
    }
    Ok(Charge::new(
        Shape::array(x),
        x.logical_len() * weights::SELECT,
    ))
}

fn k_where(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { shape, ops } = where_charge(name, args, ctx)?;
    checked!([BoolArray(mask), Array(x), Array(y)] = args);
    let (keep, xs, ys) = (mask.data(), x.data(), y.data());
    let data = ctx.par.concat_chunks(xs.len(), 1, |r| {
        keep[r.clone()]
            .iter()
            .zip(xs[r.clone()].iter().zip(&ys[r]))
            .map(|(k, (p, q))| if *k { *p } else { *q })
            .collect()
    });
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::with_logical(data, shape.logical_len())),
        ops,
    ))
}

fn matmul_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Matrix(x), Matrix(y)] = args);
    x.check_matmul(y)?;
    let shape = Shape::Matrix {
        rows: x.rows(),
        cols: y.cols(),
        logical_rows: x.logical_rows(),
        logical_cols: y.logical_cols(),
    };
    let ops = weights::MADD * x.logical_rows() * x.logical_cols() * y.logical_cols();
    Ok(Charge::new(shape, ops))
}

fn k_matmul(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { ops, .. } = matmul_charge(name, args, ctx)?;
    checked!([Matrix(x), Matrix(y)] = args);
    Ok(BuiltinOutput::new(
        Value::Matrix(x.matmul_with(y, ctx.par)?),
        ops,
    ))
}

fn k_to_csr(_: &str, args: &[Value], _ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    checked!([Matrix(m)] = args);
    let csr = m.to_csr();
    let ops = weights::TO_CSR * m.logical_rows() * m.logical_cols();
    Ok(BuiltinOutput::new(Value::Csr(csr), ops))
}

fn spmv_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Csr(csr), Array(x)] = args);
    csr.check_spmv(x.len())?;
    let shape = Shape::Array {
        len: csr.rows(),
        logical: csr.logical_rows(),
    };
    Ok(Charge::new(shape, weights::SPMV * csr.logical_nnz()))
}

fn k_spmv(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { shape, ops } = spmv_charge(name, args, ctx)?;
    checked!([Csr(csr), Array(x)] = args);
    let y = csr.spmv_with(x.data(), ctx.par)?;
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::with_logical(y, shape.logical_len())),
        ops,
    ))
}

fn pagerank_step_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Csr(csr), Array(ranks), Num(_)] = args);
    csr.check_pagerank(ranks.len())?;
    let shape = Shape::Array {
        len: csr.rows(),
        logical: csr.logical_rows(),
    };
    let ops = weights::PR_EDGE * csr.logical_nnz() + weights::PR_NODE * csr.logical_rows();
    Ok(Charge::new(shape, ops))
}

fn k_pagerank_step(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { shape, ops } = pagerank_step_charge(name, args, ctx)?;
    checked!([Csr(csr), Array(ranks), Num(damping)] = args);
    let next = csr.pagerank_step_with(ranks.data(), *damping, ctx.par)?;
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::with_logical(next, shape.logical_len())),
        ops,
    ))
}

/// The position `raw` names among `n` values. `as usize` saturates a
/// negative or NaN index to 0 and truncates a fraction: only an index it
/// keeps whole names a value.
fn gather_index(raw: f64, n: usize) -> Result<usize> {
    let i = raw as usize;
    if i < n && i as f64 == raw {
        Ok(i)
    } else {
        Err(LangError::runtime(format!(
            "gather: index {raw} out of range for {n} values"
        )))
    }
}

/// `gather`'s charge reads its indices: each must name a value.
fn gather_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Array(values), Array(indices)] = args);
    for raw in indices.data() {
        gather_index(*raw, values.len())?;
    }
    Ok(gather_cost(indices))
}

/// `gather`'s result shape and operations: one selection per index.
fn gather_cost(indices: &ArrayVal) -> Charge {
    Charge::new(
        Shape::array(indices),
        indices.logical_len() * weights::SELECT,
    )
}

fn k_gather(_: &str, args: &[Value], _ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    // An array-index join: `gather(values, idx)[i] = values[idx[i]]`
    // — how a dense-key hash join (TPC-H Q14's lineitem ⋈ part)
    // probes its build side.
    checked!([Array(values), Array(indices)] = args);
    let mut out = Vec::with_capacity(indices.len());
    for raw in indices.data() {
        out.push(values.data()[gather_index(*raw, values.len())?]);
    }
    let Charge { shape, ops } = gather_cost(indices);
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::with_logical(out, shape.logical_len())),
        ops,
    ))
}

fn frob_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Matrix(m)] = args);
    let ops = m.logical_rows() * m.logical_cols() * weights::REDUCE;
    Ok(Charge::new(Shape::Num, ops))
}

fn k_frob(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { ops, .. } = frob_charge(name, args, ctx)?;
    checked!([Matrix(m)] = args);
    let ss = ctx.par.sum_by(m.data(), |x| x * x);
    // Extrapolate the sum of squares to logical scale, like `sum`.
    let ratio = (m.logical_rows() * m.logical_cols()) as f64 / (m.rows() * m.cols()).max(1) as f64;
    Ok(BuiltinOutput::new(Value::Num((ss * ratio).sqrt()), ops))
}

fn gram_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Matrix(m)] = args);
    let d = m.cols();
    let shape = Shape::Matrix {
        rows: d,
        cols: d,
        logical_rows: d as u64,
        logical_cols: d as u64,
    };
    Ok(Charge::new(
        shape,
        weights::MADD * m.logical_rows() * (d as u64) * (d as u64),
    ))
}

fn k_gram(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    // `gram(M) = Mᵀ·M`, the d×d Gram matrix of an n×d feature
    // block; the classic second stage after a projection GEMM.
    let Charge { shape, ops } = gram_charge(name, args, ctx)?;
    checked!([Matrix(m)] = args);
    let (n, d) = (m.rows(), m.cols());
    // One row at a time: each nonzero `x = row[i]` adds `x * row` to row
    // `i` of the accumulator, so every cell sums its products in row order.
    let width = d.max(1);
    let add_row = |acc: &mut [f64], row: &[f64]| {
        for (x, acc_row) in row.iter().zip(acc.chunks_exact_mut(width)) {
            if *x == 0.0 {
                continue;
            }
            for (cell, y) in acc_row.iter_mut().zip(row) {
                *cell += x * y;
            }
        }
    };
    // With every entry finite, two rows at a time: a cell takes
    // `(cell + x0·y0) + x1·y1`, the same two adds in the same order, with
    // no zero test (a zero `x` adds `±0` to a cell that starts at `+0` and
    // so is never `-0`: adding it is skipping it).
    let paired = m.data().iter().all(|x| x.is_finite());
    let accumulate = |acc: &mut [f64], rows: std::ops::Range<usize>| {
        let data = &m.data()[rows.start * d..rows.end * d];
        if !paired {
            data.chunks_exact(width).for_each(|row| add_row(acc, row));
            return;
        }
        let mut pairs = data.chunks_exact(2 * width);
        for pair in &mut pairs {
            let (row0, row1) = pair.split_at(width);
            for ((x0, x1), acc_row) in row0.iter().zip(row1).zip(acc.chunks_exact_mut(width)) {
                for ((cell, y0), y1) in acc_row.iter_mut().zip(row0).zip(row1) {
                    *cell = (*cell + x0 * y0) + x1 * y1;
                }
            }
        }
        add_row(acc, pairs.remainder());
    };
    // Per-chunk d×d partials, combined in chunk order.
    let mut sums = match ctx.par.map_chunks(n, d, |_, rows| {
        let mut acc = vec![0.0; d * d];
        accumulate(&mut acc, rows);
        acc
    }) {
        Some(parts) => {
            let mut acc = vec![0.0; d * d];
            for part in parts {
                for (o, v) in acc.iter_mut().zip(&part) {
                    *o += v;
                }
            }
            acc
        }
        None => {
            let mut acc = vec![0.0; d * d];
            accumulate(&mut acc, 0..n);
            acc
        }
    };
    // Scale accumulated sums to logical row count.
    let ratio = m.logical_rows() as f64 / n.max(1) as f64;
    for v in &mut sums {
        *v *= ratio;
    }
    Ok(BuiltinOutput::new(
        Value::Matrix(shape.matrix(Arc::new(sums))?),
        ops,
    ))
}

fn reduce_charge(name: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Array(arr)] = args);
    if arr.is_empty() {
        return Err(LangError::runtime(format!("{name}: empty array")));
    }
    Ok(Charge::new(Shape::Num, arr.logical_len() * weights::REDUCE))
}

/// `sum`, `mean`, `minv` and `maxv`.
fn reduce(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { ops, .. } = reduce_charge(name, args, ctx)?;
    checked!([Array(arr)] = args);
    let (data, par) = (arr.data(), ctx.par);
    let v = match name {
        // Sums extrapolate to logical scale; the sample total stands for the
        // whole dataset. Chunk-ordered partial sums keep the result
        // identical at any thread count.
        "sum" => par.sum(data) * arr.scale_ratio(),
        "mean" => par.sum(data) / data.len() as f64,
        "minv" => par.min(data),
        "maxv" => par.max(data),
        _ => unreachable!("reduce called with {name}"),
    };
    Ok(BuiltinOutput::new(Value::Num(v), ops))
}

fn unary_charge(name: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    let weight = match name {
        "exp" | "log" => weights::TRANSCENDENTAL,
        "sqrt" => weights::SQRT,
        "erf" => weights::ERF,
        "abs" => weights::VIEW,
        _ => unreachable!("unary_charge called with {name}"),
    };
    Ok(match &args[0] {
        Value::Array(arr) => Charge::new(Shape::array(arr), arr.logical_len() * weight),
        _ => Charge::new(Shape::Num, weight),
    })
}

/// `exp`, `log`, `sqrt`, `erf` and `abs`, each instantiated on its own
/// function so the element loop inlines it.
fn unary_math(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let (charge, arg, par) = (unary_charge(name, args, ctx)?, &args[0], ctx.par);
    Ok(match name {
        "exp" => map_unary(charge, arg, f64::exp, par),
        "log" => map_unary(charge, arg, f64::ln, par),
        "sqrt" => map_unary(charge, arg, f64::sqrt, par),
        "erf" => map_unary(charge, arg, erf, par),
        "abs" => map_unary(charge, arg, f64::abs, par),
        _ => unreachable!("unary_math called with {name}"),
    })
}

/// `f` over a number or each element of an array.
fn map_unary(
    Charge { shape, ops }: Charge,
    arg: &Value,
    f: impl Fn(f64) -> f64 + Sync,
    par: &ParEngine,
) -> BuiltinOutput {
    let value = match arg {
        Value::Array(arr) => {
            let xs = arr.data();
            let data = par.concat_chunks(xs.len(), 1, |r| xs[r].iter().map(|x| f(*x)).collect());
            Value::Array(ArrayVal::with_logical(data, shape.logical_len()))
        }
        Value::Num(x) => Value::Num(f(*x)),
        _ => unreachable!("arguments are checked against the row"),
    };
    BuiltinOutput::new(value, ops)
}

/// Abramowitz–Stegun 7.1.26 rational approximation of the error function
/// (max absolute error 1.5e-7, plenty for Black-Scholes pricing).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Finds `group_sum`'s groups: one `(key, rows)` slot per distinct key in
/// first-seen order, found through an open-addressed index of slot
/// numbers. It adds no column; [`GroupIndex`] keeps what it found.
struct GroupSlots {
    slots: Vec<(i64, u64)>,
    /// Slot number per bucket, [`Self::EMPTY`] where free; a power of two
    /// long and at most half full.
    index: Vec<usize>,
}

impl GroupSlots {
    const EMPTY: usize = usize::MAX;

    fn new() -> Self {
        GroupSlots {
            slots: Vec::new(),
            index: vec![Self::EMPTY; 16],
        }
    }

    fn bucket(key: i64, buckets: usize) -> usize {
        // Fibonacci hashing: the high bits of the product mix every key
        // bit, so dense, strided and huge keys all spread.
        let hash = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> 32) as usize & (buckets - 1)
    }

    /// The slot of `key`, appended as `(key, 0)` when new.
    fn slot_of(&mut self, key: i64) -> usize {
        let mask = self.index.len() - 1;
        let mut b = Self::bucket(key, self.index.len());
        loop {
            match self.index[b] {
                Self::EMPTY => break,
                slot if self.slots[slot].0 == key => return slot,
                _ => b = (b + 1) & mask,
            }
        }
        let slot = self.slots.len();
        self.slots.push((key, 0));
        self.index[b] = slot;
        if self.slots.len() * 2 > self.index.len() {
            self.grow();
        }
        slot
    }

    fn grow(&mut self) {
        let buckets = self.index.len() * 2;
        self.index.clear();
        self.index.resize(buckets, Self::EMPTY);
        for (slot, (key, _)) in self.slots.iter().enumerate() {
            let mut b = Self::bucket(*key, buckets);
            while self.index[b] != Self::EMPTY {
                b = (b + 1) & (buckets - 1);
            }
            self.index[b] = slot;
        }
    }
}

/// 2^63, the first `f64` past `i64::MAX`.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// 2^52, from which on every `f64` is a whole number.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// A column whose every key is a whole number below this indexes
/// [`GroupIndex::small_slots`]' direct table.
const SMALL_KEYS: usize = 256;

/// `x.round() as i64` (half away from zero, saturating, NaN to 0) from
/// the truncating cast alone, so the row loop makes no libm call: below
/// 2^52 the truncated part `x - trunc(x)` is exact, from 2^52 up every
/// `f64` is an integer already.
pub(crate) fn round_to_i64(x: f64) -> i64 {
    let whole = x as i64;
    if x.abs() < TWO_52 {
        let part = x - whole as f64;
        whole + i64::from(part >= 0.5) - i64::from(part <= -0.5)
    } else {
        whole
    }
}

/// The groups of one key column, kept apart from any column summed over
/// them: every `group_sum` on the same key buffer shares one.
#[derive(Debug, Clone)]
pub(crate) struct GroupIndex {
    /// The buffer indexed. Holding it keeps its address from being reused,
    /// so `Arc::ptr_eq` is the test for "these very keys".
    key: Arc<Vec<f64>>,
    /// Slot of each row.
    row_slots: Vec<u32>,
    /// Rounded key and row count per slot, in first-appearance order.
    slots: Vec<(i64, u64)>,
    /// Slot numbers in key order: the order of the output rows.
    by_key: Vec<u32>,
}

impl GroupIndex {
    fn build(keys: &Arc<Vec<f64>>) -> Result<Self> {
        if u32::try_from(keys.len()).is_err() {
            return Err(LangError::runtime("group_sum: more than 2^32 rows"));
        }
        let (row_slots, slots) = match Self::small_slots(keys) {
            Some(found) => found,
            None => Self::hashed_slots(keys)?,
        };
        let mut by_key: Vec<u32> = (0..slots.len() as u32).collect();
        by_key.sort_unstable_by_key(|slot| slots[*slot as usize].0);
        Ok(GroupIndex {
            key: Arc::clone(keys),
            row_slots,
            slots,
            by_key,
        })
    }

    /// The slot of each row and the slots of a column whose every key is a
    /// whole number below [`SMALL_KEYS`], found through a direct table:
    /// no rounding, no probe and no repeat shortcut. `None` for any other
    /// column.
    fn small_slots(keys: &[f64]) -> Option<Groups> {
        // A whole number in [0, 2^52) plus 2^52 is exact and holds the
        // number in its low bits (and `-0.0` lands on 0, where it rounds).
        let small = keys.iter().fold(true, |all, key| {
            all & (*key >= 0.0) & (*key < SMALL_KEYS as f64) & ((key + TWO_52) - TWO_52 == *key)
        });
        if !small {
            return None;
        }
        let mut slot_of = [u32::MAX; SMALL_KEYS];
        let mut slots = Vec::new();
        // Rows per key in four interleaved tallies: a run of one key is
        // four chains of increments, not one.
        let mut rows = [[0u64; SMALL_KEYS]; 4];
        let row_slots = keys
            .iter()
            .enumerate()
            .map(|(row, key)| {
                let key = (key + TWO_52).to_bits() as usize % SMALL_KEYS;
                rows[row % 4][key] += 1;
                if slot_of[key] == u32::MAX {
                    slot_of[key] = slots.len() as u32;
                    slots.push((key as i64, 0));
                }
                slot_of[key]
            })
            .collect();
        for (key, count) in &mut slots {
            *count = rows.iter().map(|tally| tally[*key as usize]).sum();
        }
        Some((row_slots, slots))
    }

    /// The slot of each row and the slots of any column, through
    /// [`GroupSlots`].
    fn hashed_slots(keys: &[f64]) -> Result<Groups> {
        let mut groups = GroupSlots::new();
        let mut row_slots = Vec::with_capacity(keys.len());
        // A row whose key repeats the previous row's bit for bit skips the
        // check and the index.
        let mut last: Option<(u64, usize)> = None;
        for raw in keys.iter() {
            let slot = match last {
                Some((bits, slot)) if bits == raw.to_bits() => slot,
                // NaN would round into group 0, and a key whose rounded
                // value is outside [-2^63, 2^63) saturate into an end key:
                // none names a group. From 2^52 up every key is whole, so
                // the bounds hold for the key itself.
                _ if !(-TWO_63..TWO_63).contains(raw) => {
                    return Err(LangError::runtime(if raw.is_finite() {
                        format!("group_sum: key {raw:e} rounds outside the i64 range")
                    } else {
                        format!("group_sum: key {raw} is not a finite number")
                    }));
                }
                _ => groups.slot_of(round_to_i64(*raw)),
            };
            last = Some((raw.to_bits(), slot));
            groups.slots[slot].1 += 1;
            row_slots.push(slot as u32);
        }
        Ok((row_slots, groups.slots))
    }
}

/// What finding the groups of a key column yields: the slot of each row,
/// and each slot's rounded key and row count in first-appearance order.
type Groups = (Vec<u32>, Vec<(i64, u64)>);

/// An evaluator's memo of the last key column `group_sum` indexed: one
/// entry, replaced on a miss and dropped with the evaluator.
pub(crate) type GroupMemo = RefCell<Option<GroupIndex>>;

/// Runs `f` on the group index of `keys`: the evaluator's memo's when it
/// indexed this very key buffer, built otherwise (and kept in the memo in
/// place of the last one; without an evaluator it lives for this call
/// only).
fn with_groups<T>(
    keys: &ArrayVal,
    ctx: &KernelCtx<'_>,
    f: impl FnOnce(&GroupIndex) -> T,
) -> Result<T> {
    let mut unshared = None;
    let mut memo = ctx.groups.map(RefCell::borrow_mut);
    let kept = memo.as_deref_mut().unwrap_or(&mut unshared);
    if !kept
        .as_ref()
        .is_some_and(|index| Arc::ptr_eq(&index.key, keys.buffer()))
    {
        // The old index is freed before the new one is built.
        *kept = None;
        *kept = Some(GroupIndex::build(keys.buffer())?);
    }
    Ok(f(kept.as_ref().expect("filled just above")))
}

/// `group_sum`'s length check.
fn check_group_lengths(keys: &ArrayVal, vals: &ArrayVal) -> Result<()> {
    if keys.len() == vals.len() {
        Ok(())
    } else {
        Err(LangError::runtime("group_sum: length mismatch"))
    }
}

/// `group_sum`'s operations: a hash-aggregate step per row.
fn group_ops(keys: &ArrayVal) -> u64 {
    keys.logical_len() * weights::GROUP
}

/// `group_sum`'s charge reads its keys, through the evaluator's group
/// index: the result has a `key`, `sum` and `count` row per group. The
/// summed values are read by shape only.
fn group_sum_charge(_: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Array(keys), Array(vals)] = args);
    check_group_lengths(keys, vals)?;
    let groups = with_groups(keys, ctx, |index| index.slots.len())?;
    let columns = ["count", "key", "sum"]
        .map(|name| (name.to_owned(), ColumnShape::F64))
        .to_vec();
    let shape = Shape::Table {
        columns,
        rows: groups,
        logical_rows: groups as u64,
    };
    Ok(Charge::new(shape, group_ops(keys)))
}

/// Sums `vals` per distinct rounded key, in two steps: *find the groups*
/// (a [`GroupIndex`], taken from the evaluator's memo when it indexed this
/// very key buffer, built otherwise) and *add the column* (`sums[slot] +=
/// x` in row order, so a group's sum is the one an ordered map keyed the
/// same way accumulates).
fn group_sum(_: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    checked!([Array(keys), Array(vals)] = args);
    check_group_lengths(keys, vals)?;
    let table = with_groups(keys, ctx, |index| {
        let mut sums = vec![0.0; index.slots.len()];
        for (slot, val) in index.row_slots.iter().zip(vals.data()) {
            sums[*slot as usize] += *val;
        }
        let ratio = keys.scale_ratio();
        let mut gk = Vec::with_capacity(sums.len());
        let mut gs = Vec::with_capacity(sums.len());
        let mut gc = Vec::with_capacity(sums.len());
        for slot in &index.by_key {
            let (key, count) = index.slots[*slot as usize];
            gk.push(key as f64);
            // Sums and counts extrapolate to logical scale.
            gs.push(sums[*slot as usize] * ratio);
            gc.push((count as f64 * ratio).round());
        }
        // Group cardinality is a data property, not a scale property: the
        // output is genuinely small, which is what makes aggregation such
        // a good ISP candidate.
        Table::new(vec![
            ("key".into(), Column::F64(Arc::new(gk))),
            ("sum".into(), Column::F64(Arc::new(gs))),
            ("count".into(), Column::F64(Arc::new(gc))),
        ])
    })??;
    Ok(BuiltinOutput::new(Value::Table(table), group_ops(keys)))
}

fn gemm_batch_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Matrix(x), Matrix(y)] = args);
    // The logical row count encodes the batch dimension: a logical
    // (B·n × n) input materialized as one representative n × n block.
    if x.rows() == 0 || x.logical_rows() % x.rows() as u64 != 0 {
        return Err(LangError::runtime(
            "gemm_batch: logical rows must be a whole multiple of the block rows",
        ));
    }
    x.check_matmul(y)?;
    let batches = x.logical_rows() / x.rows() as u64;
    let (n, k, m) = (x.rows() as u64, x.cols() as u64, y.cols() as u64);
    let shape = Shape::Matrix {
        rows: x.rows(),
        cols: y.cols(),
        logical_rows: batches * n,
        logical_cols: m,
    };
    Ok(Charge::new(shape, weights::MADD * batches * n * k * m))
}

fn gemm_batch(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { shape, ops } = gemm_batch_charge(name, args, ctx)?;
    checked!([Matrix(x), Matrix(y)] = args);
    let block = x.matmul_with(y, ctx.par)?;
    Ok(BuiltinOutput::new(
        Value::Matrix(shape.matrix(Arc::clone(block.buffer()))?),
        ops,
    ))
}

fn kmeans_assign_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Matrix(points), Matrix(centroids)] = args);
    if points.cols() != centroids.cols() {
        return Err(LangError::runtime("kmeans_assign: dimension mismatch"));
    }
    let (k, d) = (centroids.rows(), points.cols());
    if k == 0 {
        return Err(LangError::runtime("kmeans_assign: no centroids"));
    }
    let shape = Shape::Array {
        len: points.rows(),
        logical: points.logical_rows(),
    };
    let ops = weights::KMEANS * points.logical_rows() * k as u64 * d as u64;
    Ok(Charge::new(shape, ops))
}

fn kmeans_assign(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { shape, ops } = kmeans_assign_charge(name, args, ctx)?;
    checked!([Matrix(points), Matrix(centroids)] = args);
    let assign = ctx.reuse("kmeans_assign", args, || {
        Ok(nearest_centroids(points, centroids, ctx.par))
    })?;
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::shared(assign, shape.logical_len())),
        ops,
    ))
}

/// The index of each point's nearest centroid (the first on a tie).
fn nearest_centroids(points: &Matrix, centroids: &Matrix, par: &ParEngine) -> Vec<f64> {
    let (k, d) = (centroids.rows(), points.cols());
    // Centroids by dimension (d x k), packed eight centroids to a panel: a
    // point advances its distance to eight centroids one dimension at a
    // time, independent accumulators each still summed in dimension order.
    let mut by_dim = vec![0.0; d * k];
    for (kc, centroid) in centroids.data().chunks_exact(d.max(1)).enumerate() {
        for (j, x) in centroid.iter().enumerate() {
            by_dim[j * k + kc] = *x;
        }
    }
    let panels = simd::column_panels::<{ simd::LANES }>(&by_dim, d, k);
    let nearest = |rows: std::ops::Range<usize>| -> Vec<f64> {
        rows.map(|i| {
            let point = &points.data()[i * d..(i + 1) * d];
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for first in (0..k).step_by(simd::LANES) {
                let panel = &panels[first * d..(first + simd::LANES) * d];
                let mut dist = [0.0; simd::LANES];
                for (x, lane) in point.iter().zip(panel.as_chunks::<{ simd::LANES }>().0) {
                    for (acc, c) in dist.iter_mut().zip(lane) {
                        let diff = x - c;
                        *acc += diff * diff;
                    }
                }
                // First strictly smaller distance wins; written as two
                // selects because which centroid wins is unpredictable.
                for (kc, dk) in (first..k).zip(&dist) {
                    let closer = *dk < best_d;
                    best_d = if closer { *dk } else { best_d };
                    best = if closer { kc } else { best };
                }
            }
            best as f64
        })
        .collect()
    };
    // Per-row work is one distance per centroid per dimension.
    let per_row = k.saturating_mul(d).max(1);
    par.concat_chunks(points.rows(), per_row, nearest)
}

/// `kmeans_update`'s charge reads `k`, which sizes the result, and the
/// assignments, which must each name one of the `k` clusters and leave
/// none of them without a point (its centroid would be no mean).
fn kmeans_update_charge(_: &str, args: &[Value], _: &KernelCtx<'_>) -> Result<Charge> {
    checked!([Matrix(points), Array(assign), Num(k)] = args);
    let k = *k;
    if assign.len() != points.rows() {
        return Err(LangError::runtime(
            "kmeans_update: assignment length mismatch",
        ));
    }
    let d = points.cols();
    // `k` arrives as a number in the program text and sizes the output, so
    // it is bounded by the input before anything is allocated for it: no
    // more centroid cells than the points hold (2^16 for a small input).
    let cells = points.data().len().max(1 << 16);
    if !(k >= 1.0 && k.fract() == 0.0 && k * d.max(1) as f64 <= cells as f64) {
        return Err(LangError::runtime(format!(
            "kmeans_update: k must be a positive whole number with k x {d} \
             within {cells} cells, got {k}"
        )));
    }
    let k = k as usize;
    let mut assigned = vec![false; k];
    for a in assign.data() {
        // `as usize` would saturate a negative or NaN value to cluster 0.
        if !(0.0..k as f64).contains(a) {
            return Err(LangError::runtime(format!(
                "kmeans_update: assignment {a} out of range for k={k}"
            )));
        }
        assigned[*a as usize] = true;
    }
    if let Some(c) = assigned.iter().position(|a| !a) {
        return Err(LangError::runtime(format!(
            "kmeans_update: cluster {c} has no point assigned"
        )));
    }
    let shape = Shape::Matrix {
        rows: k,
        cols: d,
        logical_rows: k as u64,
        logical_cols: d as u64,
    };
    Ok(Charge::new(
        shape,
        weights::REDUCE * points.logical_rows() * d as u64,
    ))
}

fn kmeans_update(name: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let Charge { shape, ops } = kmeans_update_charge(name, args, ctx)?;
    checked!([Matrix(points), Array(assign), Num(k)] = args);
    let (k, d) = (*k as usize, points.cols());
    // Per-chunk (sums, counts) partials accumulated over a contiguous row
    // range, every assignment already checked to name a cluster.
    let accumulate = |rows: std::ops::Range<usize>| -> (Vec<f64>, Vec<u64>) {
        let mut sums = vec![0.0; k * d];
        let mut counts = vec![0u64; k];
        for i in rows {
            let c = assign.data()[i] as usize;
            counts[c] += 1;
            let point = &points.data()[i * d..(i + 1) * d];
            for (sum, x) in sums[c * d..(c + 1) * d].iter_mut().zip(point) {
                *sum += x;
            }
        }
        (sums, counts)
    };
    let (mut sums, counts) = match ctx
        .par
        .map_chunks(points.rows(), d.max(1), |_, rows| accumulate(rows))
    {
        Some(parts) => {
            let mut sums = vec![0.0; k * d];
            let mut counts = vec![0u64; k];
            for (ps, pc) in parts {
                for (o, v) in sums.iter_mut().zip(&ps) {
                    *o += v;
                }
                for (o, v) in counts.iter_mut().zip(&pc) {
                    *o += v;
                }
            }
            (sums, counts)
        }
        None => accumulate(0..points.rows()),
    };
    // The charge refused a cluster with no point, so every count is
    // nonzero.
    for (centroid, count) in sums.chunks_mut(d.max(1)).zip(counts) {
        for x in centroid {
            *x /= count as f64;
        }
    }
    Ok(BuiltinOutput::new(
        Value::Matrix(shape.matrix(Arc::new(sums))?),
        ops,
    ))
}

fn forest_score(_: &str, args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    checked!([Forest(forest), Matrix(feats)] = args);
    let cols = feats.cols();
    // Flattened once per call; every chunk walks its own rows through it.
    let flat = FlatForest::new(forest, cols);
    let score_range = |rows: std::ops::Range<usize>| flat.score_rows(feats.data(), rows);
    // Row-local scores (concat in chunk order) plus an exact integer
    // visit count (order-independent sum).
    let (scores, visited_total) = match ctx
        .par
        .map_chunks(feats.rows(), cols.max(1), |_, rows| score_range(rows))
    {
        Some(parts) => {
            let mut scores = Vec::with_capacity(feats.rows());
            let mut visited: u64 = 0;
            for (s, v) in parts {
                scores.extend_from_slice(&s);
                visited += v;
            }
            (scores, visited)
        }
        None => score_range(0..feats.rows()),
    };
    // Per-row cost is the *measured* mean traversal length — data-dependent,
    // like real GBDT inference.
    let mean_visited = if feats.rows() == 0 {
        0.0
    } else {
        visited_total as f64 / feats.rows() as f64
    };
    let ops =
        (weights::TREE_NODE as f64 * mean_visited * feats.logical_rows() as f64).round() as u64;
    Ok(BuiltinOutput::new(
        Value::Array(ArrayVal::with_logical(scores, feats.logical_rows())),
        ops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{Forest, Tree, TreeNode};
    use crate::value::BoolArrayVal;

    fn arr(v: Vec<f64>) -> Value {
        Value::Array(ArrayVal::new(v))
    }

    fn arr_logical(v: Vec<f64>, logical: u64) -> Value {
        Value::Array(ArrayVal::with_logical(v, logical))
    }

    #[test]
    fn scan_returns_dataset_and_charges_storage() {
        let mut st = Storage::new();
        st.insert("d", arr_logical(vec![1.0, 2.0], 1000));
        let out = call("scan", &[Value::Str("d".into())], &st).expect("scan");
        assert_eq!(out.storage_bytes, 8000);
        assert_eq!(out.value.as_array().expect("arr").len(), 2);
    }

    #[test]
    fn a_digest_is_remembered_with_its_dataset_shared_by_clones_and_dropped_by_insert() {
        let remembered = |st: &Storage| st.datasets["d"].digest.get().copied();
        let mut st = Storage::new();
        st.insert("d", arr_logical(vec![1.0, 2.0], 1000));
        assert_eq!(remembered(&st), None, "nothing is hashed up front");
        let clone = st.clone();
        let digest = clone.digest("d").expect("present");
        assert_eq!(digest, Fingerprinter::digest(st.get("d").expect("present")));
        assert_eq!(remembered(&st), Some(digest), "the clone hashed for both");
        assert_eq!(st.digest("d"), Ok(digest));

        st.insert("d", arr_logical(vec![1.0, 2.0], 1001));
        assert_eq!(remembered(&st), None, "a new value has no digest yet");
        assert_eq!(remembered(&clone), Some(digest));
        assert_ne!(st.digest("d"), Ok(digest), "one logical size apart");
        assert!(matches!(
            st.digest("nope"),
            Err(LangError::UnknownDataset { .. })
        ));
    }

    #[test]
    fn scan_unknown_dataset_errors() {
        let st = Storage::new();
        let e = call("scan", &[Value::Str("nope".into())], &st).unwrap_err();
        assert!(matches!(e, LangError::UnknownDataset { .. }));
    }

    #[test]
    fn reductions_extrapolate_to_logical_scale() {
        let st = Storage::new();
        let a = arr_logical(vec![1.0, 2.0, 3.0, 4.0], 4000);
        let sum = call("sum", std::slice::from_ref(&a), &st).expect("sum");
        assert!((sum.value.as_num().expect("num") - 10_000.0).abs() < 1e-6);
        let mean = call("mean", std::slice::from_ref(&a), &st).expect("mean");
        assert!((mean.value.as_num().expect("num") - 2.5).abs() < 1e-12);
        let mn = call("minv", std::slice::from_ref(&a), &st).expect("min");
        assert_eq!(mn.value.as_num().expect("num"), 1.0);
        let mx = call("maxv", &[a], &st).expect("max");
        assert_eq!(mx.value.as_num().expect("num"), 4.0);
    }

    #[test]
    fn unary_math_applies_elementwise() {
        let st = Storage::new();
        let out = call("sqrt", &[arr(vec![4.0, 9.0])], &st).expect("sqrt");
        assert_eq!(out.value.as_array().expect("arr").data(), &[2.0, 3.0]);
        let out = call("exp", &[Value::Num(0.0)], &st).expect("exp");
        assert_eq!(out.value.as_num().expect("num"), 1.0);
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn sort_orders_and_costs_nlogn() {
        let st = Storage::new();
        let out = call("sort", &[arr_logical(vec![3.0, 1.0, 2.0], 3000)], &st).expect("sort");
        assert_eq!(out.value.as_array().expect("arr").data(), &[1.0, 2.0, 3.0]);
        let expected = weights::SORT * 3000 * (3000f64).log2().ceil() as u64;
        assert_eq!(out.ops, expected);
    }

    #[test]
    fn select_scales_output_by_selectivity() {
        let st = Storage::new();
        let mask = Value::BoolArray(BoolArrayVal::with_logical(
            vec![true, false, true, false],
            4000,
        ));
        let out = call(
            "select",
            &[arr_logical(vec![1.0, 2.0, 3.0, 4.0], 4000), mask],
            &st,
        )
        .expect("select");
        let a = out.value.as_array().expect("arr");
        assert_eq!(a.data(), &[1.0, 3.0]);
        assert_eq!(a.logical_len(), 2000);
    }

    #[test]
    fn count_extrapolates() {
        let st = Storage::new();
        let mask = Value::BoolArray(BoolArrayVal::with_logical(
            vec![true, true, false, false],
            4000,
        ));
        let out = call("count", &[mask], &st).expect("count");
        assert_eq!(out.value.as_num().expect("num"), 2000.0);
    }

    #[test]
    fn group_sum_keeps_group_cardinality_and_extrapolates_sums() {
        let st = Storage::new();
        let keys = arr_logical(vec![1.0, 2.0, 1.0, 2.0], 4000);
        let vals = arr_logical(vec![10.0, 20.0, 30.0, 40.0], 4000);
        let out = call("group_sum", &[keys, vals], &st).expect("group");
        let t = out.value.as_table().expect("table");
        assert_eq!(t.rows(), 2);
        assert_eq!(t.logical_rows(), 2, "groups do not scale with data size");
        match t.column("sum").expect("sum") {
            Column::F64(v) => {
                assert!((v[0] - 40_000.0).abs() < 1e-6);
                assert!((v[1] - 60_000.0).abs() < 1e-6);
            }
            other => panic!("wrong type {other:?}"),
        }
    }

    /// `group_sum` of `vals` over `keys`, or its error.
    fn group_sum_of(keys: Vec<f64>, vals: Vec<f64>) -> Result<BuiltinOutput> {
        call("group_sum", &[arr(keys), arr(vals)], &Storage::new())
    }

    #[test]
    fn group_sum_refuses_a_nan_key_and_still_rounds_a_fraction() {
        let e = group_sum_of(vec![0.0, f64::NAN, 0.4, 1.0], vec![1.0; 4]).unwrap_err();
        let message = "group_sum: key NaN is not a finite number";
        assert_eq!(e, LangError::runtime(message));
        // Without the NaN, 0.4 rounds into group 0 beside 0.0.
        let out = group_sum_of(vec![0.0, 0.4, 1.0], vec![1.0; 3]).expect("group");
        let t = out.value.as_table().expect("table");
        match (t.column("key"), t.column("count")) {
            (Ok(Column::F64(k)), Ok(Column::F64(c))) => {
                assert_eq!(
                    (k.as_slice(), c.as_slice()),
                    (&[0.0, 1.0][..], &[2.0, 1.0][..])
                );
            }
            other => panic!("wrong columns {other:?}"),
        }
    }

    #[test]
    fn group_sum_refuses_an_infinite_key() {
        for (bad, shown) in [(f64::INFINITY, "inf"), (f64::NEG_INFINITY, "-inf")] {
            let e = group_sum_of(vec![0.0, 1.0, bad, 1.0], vec![1.0; 4]).unwrap_err();
            let message = format!("group_sum: key {shown} is not a finite number");
            assert_eq!(e, LangError::runtime(message), "{shown}");
        }
    }

    #[test]
    fn group_sum_refuses_a_key_past_the_i64_range() {
        // Rounded and saturated, all three would be one group labelled 2^63.
        let e = group_sum_of(vec![1e300, 1e301, 2e19], vec![1.0; 3]).unwrap_err();
        let message = "group_sum: key 1e300 rounds outside the i64 range";
        assert_eq!(e, LangError::runtime(message));
        let two_63 = 2f64.powi(63);
        let e = group_sum_of(vec![0.0, two_63], vec![1.0; 2]).unwrap_err();
        let message = "group_sum: key 9.223372036854776e18 rounds outside the i64 range";
        assert_eq!(e, LangError::runtime(message));
        // The range's ends, -2^63 and the last f64 below 2^63, are groups.
        let ends = vec![-two_63, two_63 - 1024.0, -two_63];
        let out = group_sum_of(ends, vec![1.0; 3]).expect("group");
        let t = out.value.as_table().expect("table");
        match (t.column("key"), t.column("count")) {
            (Ok(Column::F64(k)), Ok(Column::F64(c))) => assert_eq!(
                (k.as_slice(), c.as_slice()),
                (&[-two_63, two_63 - 1024.0][..], &[2.0, 1.0][..])
            ),
            other => panic!("wrong columns {other:?}"),
        }
    }

    #[test]
    fn gemm_batch_multiplies_ops_by_batches() {
        let st = Storage::new();
        let a =
            Value::Matrix(Matrix::with_logical(vec![1.0, 0.0, 0.0, 1.0], 2, 2, 200, 2).expect("a"));
        let b = Value::Matrix(Matrix::new(vec![3.0, 4.0, 5.0, 6.0], 2, 2).expect("b"));
        let out = call("gemm_batch", &[a, b], &st).expect("gemm");
        // 100 batches × 2·2·2·2 madds × weight 2.
        assert_eq!(out.ops, weights::MADD * 100 * 8);
        let m = out.value.as_matrix().expect("m");
        assert_eq!(m.data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.logical_rows(), 200);
    }

    #[test]
    fn gemm_batch_rejects_ragged_logical_rows() {
        let st = Storage::new();
        let a = Value::Matrix(Matrix::with_logical(vec![1.0; 4], 2, 2, 201, 2).expect("a"));
        let b = Value::Matrix(Matrix::new(vec![1.0; 4], 2, 2).expect("b"));
        assert!(call("gemm_batch", &[a, b], &st).is_err());
    }

    #[test]
    fn kmeans_assign_and_update_round_trip() {
        let st = Storage::new();
        // Four points in 1-D: two clusters around 0 and 10.
        let points = Value::Matrix(Matrix::new(vec![0.0, 1.0, 10.0, 11.0], 4, 1).expect("pts"));
        let cents = Value::Matrix(Matrix::new(vec![0.5, 10.5], 2, 1).expect("cents"));
        let out = call("kmeans_assign", &[points.clone(), cents], &st).expect("assign");
        let assign = out.value.clone();
        assert_eq!(assign.as_array().expect("a").data(), &[0.0, 0.0, 1.0, 1.0]);
        let upd = call("kmeans_update", &[points, assign, Value::Num(2.0)], &st).expect("update");
        let m = upd.value.as_matrix().expect("m");
        assert!((m.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((m.get(1, 0) - 10.5).abs() < 1e-12);
    }

    #[test]
    fn kmeans_assign_refuses_an_empty_centroid_set() {
        let st = Storage::new();
        let points = Value::Matrix(Matrix::new(vec![0.0, 1.0, 2.0, 3.0], 2, 2).expect("pts"));
        let none = Value::Matrix(Matrix::new(vec![], 0, 2).expect("no centroids"));
        let e = call("kmeans_assign", &[points, none], &st).unwrap_err();
        assert!(e.to_string().contains("no centroids"), "{e}");
    }

    #[test]
    fn kmeans_update_refuses_assignments_that_name_no_cluster() {
        let st = Storage::new();
        let points = Value::Matrix(Matrix::new(vec![0.0, 1.0, 10.0], 3, 1).expect("pts"));
        for bad in [-1.0, -0.5, f64::NAN, f64::NEG_INFINITY, f64::INFINITY, 2.0] {
            let assign = arr(vec![0.0, bad, 1.0]);
            let e = call(
                "kmeans_update",
                &[points.clone(), assign, Value::Num(2.0)],
                &st,
            )
            .unwrap_err();
            assert!(e.to_string().contains("out of range for k=2"), "{bad}: {e}");
        }
        // `-0.0` and a fraction still name clusters 0 and 1.
        let assign = arr(vec![-0.0, 1.9, 1.0]);
        let out = call("kmeans_update", &[points, assign, Value::Num(2.0)], &st).expect("update");
        assert_eq!(out.value.as_matrix().expect("m").data(), &[0.0, 5.5]);
    }

    #[test]
    fn kmeans_update_refuses_a_cluster_no_point_is_assigned_to() {
        let st = Storage::new();
        let points = Value::Matrix(Matrix::new(vec![1.0, 2.0, 4.0], 3, 1).expect("pts"));
        // Cluster 1 of three is empty: its centroid would be no mean.
        let args = [points.clone(), arr(vec![0.0, 2.0, 0.0]), Value::Num(3.0)];
        let e = call("kmeans_update", &args, &st).unwrap_err();
        assert_eq!(
            e.to_string(),
            "runtime error: kmeans_update: cluster 1 has no point assigned"
        );
        // The charge refuses it alike, so a costs-only run does too.
        let ctx = KernelCtx::serial(&st);
        let charged = super::kmeans_update_charge("kmeans_update", &args, &ctx).unwrap_err();
        assert_eq!(charged, e);
        // No point at all leaves cluster 0 empty.
        let none = Value::Matrix(Matrix::new(vec![], 0, 1).expect("no points"));
        let e = call("kmeans_update", &[none, arr(vec![]), Value::Num(1.0)], &st).unwrap_err();
        assert!(
            e.to_string().ends_with("cluster 0 has no point assigned"),
            "{e}"
        );
        // Every cluster assigned: the means.
        let args = [points, arr(vec![0.0, 2.0, 1.0]), Value::Num(3.0)];
        let out = call("kmeans_update", &args, &st).expect("update");
        assert_eq!(out.value.as_matrix().expect("m").data(), &[1.0, 4.0, 2.0]);
    }

    #[test]
    fn forest_score_uses_measured_depth() {
        let st = Storage::new();
        let tree = Tree::new(vec![
            TreeNode::split(0, 0.5, 1, 2),
            TreeNode::leaf(-1.0),
            TreeNode::leaf(1.0),
        ])
        .expect("tree");
        let forest = Value::Forest(Forest::new(vec![tree], 1).expect("forest"));
        let feats =
            Value::Matrix(Matrix::with_logical(vec![0.0, 1.0], 2, 1, 2000, 1).expect("feats"));
        let out = call("forest_score", &[forest, feats], &st).expect("score");
        assert_eq!(out.value.as_array().expect("a").data(), &[-1.0, 1.0]);
        // 2 nodes visited per row, 2000 logical rows.
        assert_eq!(out.ops, weights::TREE_NODE * 2 * 2000);
    }

    #[test]
    fn gather_joins_by_dense_key() {
        let st = Storage::new();
        let values = arr(vec![10.0, 20.0, 30.0]);
        let idx = arr_logical(vec![2.0, 0.0, 2.0, 1.0], 4000);
        let out = call("gather", &[values, idx], &st).expect("gather");
        let a = out.value.as_array().expect("arr");
        assert_eq!(a.data(), &[30.0, 10.0, 30.0, 20.0]);
        assert_eq!(a.logical_len(), 4000);
    }

    #[test]
    fn gather_rejects_out_of_range_index() {
        let st = Storage::new();
        let values = arr(vec![10.0]);
        let idx = arr(vec![5.0]);
        assert!(call("gather", &[values, idx], &st).is_err());
    }

    #[test]
    fn gather_refuses_an_index_that_names_no_value() {
        let st = Storage::new();
        let values = arr(vec![10.0, 20.0, 30.0]);
        for bad in [-1.0, -0.5, 1.7, f64::NAN, f64::INFINITY, 3.0] {
            let idx = arr(vec![0.0, bad]);
            let e = call("gather", &[values.clone(), idx], &st).unwrap_err();
            let message = format!("gather: index {bad} out of range for 3 values");
            assert_eq!(e, LangError::runtime(message), "{bad}");
        }
        // `-0.0` names the first value.
        let out = call("gather", &[values, arr(vec![-0.0, 2.0])], &st).expect("gather");
        assert_eq!(out.value.as_array().expect("arr").data(), &[10.0, 30.0]);
    }

    #[test]
    fn sort_refuses_nan_and_keeps_equal_values_in_input_order() {
        let st = Storage::new();
        let e = call("sort", &[arr(vec![1.0, f64::NAN, 0.0])], &st).unwrap_err();
        assert_eq!(e, LangError::runtime("sort: cannot order NaN"));
        // -0.0 and 0.0 compare equal, so a stable sort keeps their order.
        let out = call("sort", &[arr(vec![0.0, 1.0, -0.0, -1.0])], &st).expect("sort");
        let bits: Vec<u64> = out
            .value
            .as_array()
            .expect("arr")
            .data()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let expected: Vec<u64> = [-1.0f64, 0.0, -0.0, 1.0]
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn frob_extrapolates_to_logical_scale() {
        let st = Storage::new();
        let m = Value::Matrix(Matrix::with_logical(vec![3.0, 4.0], 1, 2, 100, 2).expect("m"));
        let out = call("frob", &[m], &st).expect("frob");
        // Sum of squares 25, scaled by 100: sqrt(2500) = 50.
        assert!((out.value.as_num().expect("n") - 50.0).abs() < 1e-9);
    }

    #[test]
    fn gram_computes_mt_m() {
        let st = Storage::new();
        // M = [[1, 2], [3, 4]]; MᵀM = [[10, 14], [14, 20]].
        let m = Value::Matrix(Matrix::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2).expect("m"));
        let out = call("gram", &[m], &st).expect("gram");
        let g = out.value.as_matrix().expect("g");
        assert_eq!(g.data(), &[10.0, 14.0, 14.0, 20.0]);
    }

    #[test]
    fn scan_raw_and_decode_round_trip_encoded_datasets() {
        use crate::value::EncodedVal;
        use csd_sim::wire::Encoding;

        let data: Vec<f64> = (0..10_000).map(|i| ((i * 31) % 257) as f64 * 0.5).collect();
        let mut st = Storage::new();
        st.insert(
            "wire",
            Value::Encoded(EncodedVal::from_f64s(
                Encoding::gzip_shuffled(),
                &data,
                10_000_000,
            )),
        );
        st.insert("plain", arr_logical(data.clone(), 10_000_000));

        // scan_raw streams the *encoded* bytes — far fewer than the
        // decoded 8 B/elem — and scan refuses encoded datasets.
        let raw = call("scan_raw", &[Value::Str("wire".into())], &st).expect("scan_raw");
        let plain = call("scan", &[Value::Str("plain".into())], &st).expect("scan");
        assert!(raw.storage_bytes * 2 < plain.storage_bytes);
        assert!(call("scan", &[Value::Str("wire".into())], &st).is_err());
        assert!(call("scan_raw", &[Value::Str("plain".into())], &st).is_err());

        // decode restores the exact f64s and charges inflate + shuffle ops.
        let out = call("decode", std::slice::from_ref(&raw.value), &st).expect("decode");
        assert_eq!(out.value.as_array().expect("arr").data(), &data[..]);
        assert_eq!(out.value.as_array().expect("arr").logical_len(), 10_000_000);
        assert!(out.ops > 10_000_000 * weights::SHUFFLE_BYTE * 8);
        assert_eq!(out.storage_bytes, 0);
        assert!(call("decode", &[Value::Num(1.0)], &st).is_err());
    }

    #[test]
    fn decode_is_bit_identical_across_thread_counts() {
        use crate::par::ParallelPolicy;
        use crate::value::EncodedVal;
        use csd_sim::wire::{ByteOrder, Codec, Encoding};

        let data: Vec<f64> = (0..20_000)
            .map(|i| ((i * 37) % 101) as f64 * 0.5 - 20.0)
            .collect();
        let st = Storage::new();
        for encoding in [
            Encoding::gzip_shuffled(),
            Encoding {
                codec: Codec::Zlib,
                shuffle: false,
                byte_order: ByteOrder::Big,
                fill_value: Some(-15.0),
            },
            Encoding::raw(),
        ] {
            let arg = [Value::Encoded(EncodedVal::from_f64s(
                encoding, &data, 2_000_000,
            ))];
            let mut outputs = Vec::new();
            for threads in [1usize, 2, 4, 8] {
                let engine = ParEngine::new(ParallelPolicy::with_threads(threads));
                let ctx = KernelCtx {
                    storage: &st,
                    par: &engine,
                    groups: None,
                    memo: None,
                    columns: None,
                };
                let out = call_in("decode", &arg, &ctx).expect("decode");
                assert!(engine.stats().par_calls > 0, "decode: chunked");
                outputs.push((threads, format!("{out:?}")));
            }
            let (_, reference) = &outputs[0];
            for (threads, repr) in &outputs[1..] {
                assert_eq!(repr, reference, "decode differs at {threads} threads");
            }
        }
    }

    /// A value of each type a call can be given.
    fn sample(ty: StaticType) -> Value {
        let square = || Matrix::new(vec![1.0, 0.0, 2.0, 3.0], 2, 2).expect("matrix");
        match ty {
            StaticType::Num => Value::Num(2.0),
            StaticType::Bool => Value::Bool(true),
            StaticType::Str => Value::Str("v".into()),
            StaticType::Array => arr(vec![0.0, 1.0]),
            StaticType::BoolArray => Value::BoolArray(BoolArrayVal::new(vec![true, false])),
            StaticType::Table => Value::Table(
                Table::new(vec![("v".into(), Column::F64(Arc::new(vec![1.0, 2.0])))])
                    .expect("table"),
            ),
            StaticType::Matrix => Value::Matrix(square()),
            StaticType::Csr => Value::Csr(square().to_csr()),
            StaticType::Forest => Value::Forest(
                Forest::new(vec![Tree::new(vec![TreeNode::leaf(1.0)]).expect("tree")], 1)
                    .expect("forest"),
            ),
            StaticType::Encoded => Value::Encoded(crate::value::EncodedVal::from_f64s(
                csd_sim::wire::Encoding::gzip_shuffled(),
                &[1.0, 2.0],
                2,
            )),
            StaticType::Unknown => unreachable!("no value is of unknown type"),
        }
    }

    /// Every type a value can have.
    fn value_types() -> impl Iterator<Item = StaticType> {
        StaticType::ALL
            .into_iter()
            .filter(|ty| *ty != StaticType::Unknown)
    }

    /// Every row's signature as its errors spell it: arity first, then
    /// each argument's type in order, with the same error from the kernel
    /// and from its shape charge.
    #[test]
    fn every_row_checks_arity_then_each_argument_type() {
        // A value of the first type each argument admits.
        let well_typed = |sig: &Signature| -> Vec<Value> {
            let first = |arg: &Arg| value_types().find(|ty| arg.admits(*ty)).expect("admits");
            sig.args.iter().map(|arg| sample(first(arg))).collect()
        };
        let mut st = Storage::new();
        st.insert("v", arr(vec![0.0, 1.0]));
        assert_eq!(signatures().len(), 32, "the view is every row");
        for sig in signatures() {
            let name = sig.name;
            let id = kernel_id(name).expect("a row");
            // The call's error, and its shape charge's where it has one.
            let errors = |args: &[Value]| {
                let err = call(name, args, &st).err();
                if id.charges_from_shapes() {
                    assert_eq!(
                        id.charge(args, &KernelCtx::serial(&st)).err(),
                        err,
                        "{name}: charge and call"
                    );
                }
                err
            };
            let args = well_typed(&sig);
            for got in [sig.args.len() - 1, sig.args.len() + 1] {
                let mut wrong = args.clone();
                wrong.resize(got, Value::Num(1.0));
                let arity = LangError::Arity {
                    name: name.to_owned(),
                    expected: sig.args.len(),
                    got,
                };
                assert_eq!(errors(&wrong), Some(arity), "{name}: {got} arguments");
            }
            for (i, arg) in sig.args.iter().enumerate() {
                for ty in value_types().filter(|ty| !arg.admits(*ty)) {
                    let mut wrong = args.clone();
                    wrong[i] = sample(ty);
                    let message = match arg {
                        Arg::Is(wanted) => format!("expected {}, got {}", wanted.name(), ty.name()),
                        _ => format!("{name} expects num or array, got {}", ty.name()),
                    };
                    assert_eq!(
                        errors(&wrong),
                        Some(LangError::type_error(message)),
                        "{name}: a {ty:?} as argument {i}"
                    );
                }
            }
            // Declared types pass: any error is the kernel's own.
            match errors(&args) {
                None | Some(LangError::Runtime { .. } | LangError::UnknownDataset { .. }) => {}
                Some(LangError::Type { message }) => assert!(
                    !message.starts_with("expected ") && !message.contains(" expects "),
                    "{name}: {message}"
                ),
                Some(other) => panic!("{name}: {other}"),
            }
        }
    }

    #[test]
    fn sorted_kernel_table_resolves_every_entry() {
        // The binary-search table is sorted, complete, and maps every name
        // back to its insertion-order kernel id; only the two storage reads
        // stream instead of charging a copy.
        let sorted = &*SORTED_KERNELS;
        assert_eq!(sorted.len(), KERNELS.len());
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, kernel) in KERNELS.iter().enumerate() {
            let name = kernel.sig.name;
            let id = kernel_id(name).expect("every KERNELS entry resolves");
            assert_eq!(id, KernelId(i as u16), "{name} resolves to its slot");
            assert_eq!(id.name(), name);
            let reads = matches!(name, "scan" | "scan_raw");
            assert_eq!(id.reads_storage(), reads, "{name}");
            assert_eq!(id.charges_copy(), !reads, "{name}");
        }
        assert!(kernel_id("np_dot").is_none());
    }

    /// Each row's declared by-value arguments, against its kernel: one
    /// test per row (`by_value::sum`, ...).
    mod by_value {
        use super::*;
        use crate::forest::{Forest, Tree, TreeNode};
        use crate::value::{BoolArrayVal, EncodedVal};
        use csd_sim::wire::Encoding;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// The type and sizes of `v`: what a sampled cost reads of it.
        fn sizes(v: &Value) -> String {
            match v {
                Value::Num(_) | Value::Bool(_) => v.type_name().to_owned(),
                Value::Str(s) => format!("str {}", s.len()),
                Value::Array(a) => format!("array {}/{}", a.len(), a.logical_len()),
                Value::BoolArray(m) => format!("mask {}/{}", m.len(), m.logical_len()),
                Value::Table(t) => {
                    let names: Vec<_> = t.column_names().collect();
                    let (rows, logical, width) = (t.rows(), t.logical_rows(), t.bytes_per_row());
                    format!("table {rows}/{logical} {names:?} {width} B/row")
                }
                Value::Matrix(m) => format!(
                    "matrix {}x{}/{}x{}",
                    m.rows(),
                    m.cols(),
                    m.logical_rows(),
                    m.logical_cols()
                ),
                Value::Csr(c) => format!(
                    "csr {}x{} nnz {}/{} rows {}",
                    c.rows(),
                    c.cols(),
                    c.nnz(),
                    c.logical_nnz(),
                    c.logical_rows()
                ),
                Value::Forest(f) => format!("forest {}", f.node_count()),
                Value::Encoded(e) => format!(
                    "encoded {}/{} {}",
                    e.actual_len(),
                    e.logical_len(),
                    e.encoded_actual_bytes()
                ),
            }
        }

        /// `v` with the same type and sizes and every element zero.
        fn zeroed(v: &Value) -> Value {
            let zeros = |n: usize| vec![0.0; n];
            match v {
                Value::Num(_) => Value::Num(0.0),
                Value::Bool(_) => Value::Bool(false),
                Value::Array(a) => {
                    Value::Array(ArrayVal::with_logical(zeros(a.len()), a.logical_len()))
                }
                Value::BoolArray(m) => Value::BoolArray(BoolArrayVal::with_logical(
                    vec![false; m.len()],
                    m.logical_len(),
                )),
                Value::Matrix(m) => Value::Matrix(
                    Matrix::with_logical(
                        zeros(m.data().len()),
                        m.rows(),
                        m.cols(),
                        m.logical_rows(),
                        m.logical_cols(),
                    )
                    .expect("same shape"),
                ),
                Value::Table(t) => {
                    let columns = t
                        .column_names()
                        .map(|name| {
                            let column = match t.column(name).expect("listed") {
                                Column::F64(c) => Column::F64(Arc::new(zeros(c.len()))),
                                Column::Dict { codes, dict } => Column::Dict {
                                    codes: Arc::new(vec![0; codes.len()]),
                                    dict: Arc::clone(dict),
                                },
                            };
                            (name.to_owned(), column)
                        })
                        .collect();
                    Value::Table(
                        Table::with_logical_rows(columns, t.logical_rows()).expect("table"),
                    )
                }
                Value::Csr(c) => Value::Csr(
                    crate::matrix::Csr::from_parts(
                        c.row_ptr().to_vec(),
                        c.col_idx().to_vec(),
                        zeros(c.nnz()),
                        c.cols(),
                        c.logical_rows(),
                        c.logical_cols(),
                        c.logical_nnz(),
                    )
                    .expect("same structure"),
                ),
                Value::Str(_) | Value::Forest(_) | Value::Encoded(_) => {
                    panic!("no row reads a {} by shape alone", v.type_name())
                }
            }
        }

        /// What a sampled cost reads of `name`'s call on `args`: its
        /// operations, stored bytes and result's sizes, or its error.
        fn outcome(name: &str, args: &[Value], st: &Storage) -> String {
            match catch_unwind(AssertUnwindSafe(|| call(name, args, st))) {
                Ok(Ok(out)) => format!(
                    "ops {} stored {} -> {}",
                    out.ops,
                    out.storage_bytes,
                    sizes(&out.value)
                ),
                Ok(Err(e)) => format!("error: {e}"),
                Err(_) => "panic".to_owned(),
            }
        }

        /// As [`outcome`], through the row's shape-only charge.
        fn charged(id: KernelId, args: &[Value]) -> String {
            match id.charge(args, &KernelCtx::serial(&Storage::new())) {
                Ok(charge) => {
                    let value = crate::shape::Placeholders::default()
                        .value(charge.shape)
                        .expect("a placeholder");
                    format!("ops {} stored 0 -> {}", charge.ops, sizes(&value))
                }
                Err(e) => format!("error: {e}"),
            }
        }

        fn arr(v: &[f64], logical: u64) -> Value {
            Value::Array(ArrayVal::with_logical(v.to_vec(), logical))
        }

        fn mask(v: &[bool], logical: u64) -> Value {
            Value::BoolArray(BoolArrayVal::with_logical(v.to_vec(), logical))
        }

        fn matrix(v: &[f64], rows: usize, logical_rows: u64) -> Value {
            let cols = v.len() / rows;
            Value::Matrix(
                Matrix::with_logical(v.to_vec(), rows, cols, logical_rows, cols as u64)
                    .expect("matrix"),
            )
        }

        fn name(s: &str) -> Value {
            Value::Str(s.to_owned())
        }

        fn table() -> Value {
            let column = |v: &[f64]| Column::F64(Arc::new(v.to_vec()));
            Value::Table(
                Table::with_logical_rows(
                    vec![
                        ("qty".into(), column(&[10.0, 30.0, 5.0, 40.0])),
                        ("tax".into(), column(&[0.1, 0.2, 0.3, 0.4])),
                    ],
                    4_000,
                )
                .expect("table"),
            )
        }

        /// A depth-two tree on feature 0 with its root at `root`.
        fn forest(root: f64) -> Value {
            let tree = Tree::new(vec![
                TreeNode::split(0, root, 1, 2),
                TreeNode::split(0, 0.25, 3, 4),
                TreeNode::leaf(1.0),
                TreeNode::leaf(2.0),
                TreeNode::leaf(3.0),
            ])
            .expect("tree");
            Value::Forest(Forest::new(vec![tree], 1).expect("forest"))
        }

        fn encoded(data: &[f64]) -> EncodedVal {
            EncodedVal::from_f64s(Encoding::gzip_shuffled(), data, 4_000)
        }

        fn storage() -> Storage {
            let mut st = Storage::new();
            st.insert("v", arr(&[1.0, 2.0, 3.0, 4.0], 4_000));
            st.insert("w", arr(&[1.0, 2.0], 2_000));
            st.insert("e", Value::Encoded(encoded(&[1.0, 2.0, 3.0, 4.0])));
            st
        }

        /// Valid arguments for row `name`, and for each argument it reads
        /// by value one of the same sizes that changes what its cost reads.
        fn case(name: &str) -> (Vec<Value>, Vec<(usize, Value)>) {
            let xs = || arr(&[1.0, -2.0, 3.0, 4.0], 4_000);
            let keep = || mask(&[true, false, true, true], 4_000);
            let square = || matrix(&[1.0, 0.0, 2.0, 3.0], 2, 2);
            let csr = || match square() {
                Value::Matrix(m) => Value::Csr(m.to_csr()),
                _ => unreachable!(),
            };
            let points = || matrix(&[0.0, 1.0, 10.0, 11.0], 4, 4_000);
            match name {
                "scan" => (vec![self::name("v")], vec![(0, self::name("w"))]),
                "scan_raw" => (vec![self::name("e")], vec![(0, self::name("v"))]),
                "col" => (
                    vec![table(), self::name("qty")],
                    vec![(1, self::name("qtx"))],
                ),
                "filter" | "select" => {
                    let first = if name == "filter" { table() } else { xs() };
                    let fewer = mask(&[true, false, false, false], 4_000);
                    (vec![first, keep()], vec![(1, fewer)])
                }
                "len" | "sum" | "mean" | "minv" | "maxv" | "exp" | "log" | "sqrt" | "erf"
                | "abs" => (vec![xs()], vec![]),
                "count" => (vec![keep()], vec![]),
                "sort" => (
                    vec![xs()],
                    vec![(0, arr(&[1.0, f64::NAN, 3.0, 4.0], 4_000))],
                ),
                "dot" => (vec![xs(), xs()], vec![]),
                "where" => (vec![keep(), xs(), xs()], vec![]),
                "group_sum" => (
                    vec![arr(&[1.0, 2.0, 1.0, 2.0], 4_000), xs()],
                    vec![(0, arr(&[1.0, 1.0, 1.0, 1.0], 4_000))],
                ),
                "matmul" => (vec![square(), square()], vec![]),
                "gemm_batch" => (
                    vec![matrix(&[1.0, 0.0, 2.0, 3.0], 2, 200), square()],
                    vec![],
                ),
                "to_csr" => (
                    vec![square()],
                    vec![(0, matrix(&[1.0, 0.0, 0.0, 3.0], 2, 2))],
                ),
                "spmv" => (vec![csr(), arr(&[1.0, 2.0], 2)], vec![]),
                "pagerank_step" => (vec![csr(), arr(&[0.5, 0.5], 2), Value::Num(0.85)], vec![]),
                "kmeans_assign" => (vec![points(), matrix(&[0.5, 10.5], 2, 2)], vec![]),
                "kmeans_update" => (
                    vec![points(), arr(&[0.0, 0.0, 1.0, 1.0], 4_000), Value::Num(2.0)],
                    vec![(1, arr(&[0.0, 0.0, 1.0, 5.0], 4_000)), (2, Value::Num(3.0))],
                ),
                "forest_score" => (
                    vec![forest(0.5), points()],
                    vec![
                        (0, forest(100.0)),
                        (1, matrix(&[0.0, 0.1, 0.2, 0.3], 4, 4_000)),
                    ],
                ),
                "gather" => (
                    vec![
                        arr(&[10.0, 20.0, 30.0], 3),
                        arr(&[2.0, 0.0, 2.0, 1.0], 4_000),
                    ],
                    vec![(1, arr(&[2.0, 0.0, 7.0, 1.0], 4_000))],
                ),
                "frob" | "gram" => (vec![points()], vec![]),
                "decode" => {
                    let good = encoded(&[1.0, 2.0, 3.0, 4.0]);
                    let mut chunks = good.chunks().to_vec();
                    let last = chunks[0].len() - 1;
                    chunks[0][last] ^= 0xFF;
                    let bad = EncodedVal::from_parts(
                        *good.encoding(),
                        chunks,
                        good.actual_len(),
                        good.logical_len(),
                        good.encoded_logical_bytes(),
                    );
                    (vec![Value::Encoded(good)], vec![(0, Value::Encoded(bad))])
                }
                other => panic!("no case for row `{other}`"),
            }
        }

        fn check_row(name: &str) {
            let name = name.trim_start_matches("r#");
            let id = kernel_id(name).expect("a KERNELS row");
            let st = storage();
            let (args, witnesses) = case(name);
            let reference = outcome(name, &args, &st);
            assert!(!reference.starts_with("error"), "{name}: {reference}");
            let swapped = |i: usize, v: Value| {
                let mut args = args.clone();
                args[i] = v;
                args
            };
            // A by-value argument: values of the same sizes move the cost.
            let declared: Vec<usize> = witnesses.iter().map(|(i, _)| *i).collect();
            assert_eq!(
                declared,
                id.kernel().sig.by_value,
                "{name}: by-value arguments"
            );
            for (i, witness) in witnesses {
                assert_eq!(sizes(&witness), sizes(&args[i]), "{name}: arg {i} witness");
                let moved = swapped(i, witness);
                let outcome = outcome(name, &moved, &st);
                assert_ne!(outcome, reference, "{name}: arg {i} is read by value");
                if id.charges_from_shapes() && outcome != "panic" {
                    assert_eq!(
                        charged(id, &moved),
                        outcome,
                        "{name}: charge, arg {i} moved"
                    );
                }
            }
            // Every other argument: all-zero elements move nothing, alone
            // or together, through the kernel or its charge.
            let mut all_zeroed = args.clone();
            for i in (0..args.len()).filter(|i| !id.reads_by_value(*i)) {
                let zero = zeroed(&args[i]);
                assert_eq!(
                    outcome(name, &swapped(i, zero.clone()), &st),
                    reference,
                    "{name}: arg {i}"
                );
                all_zeroed[i] = zero;
            }
            assert_eq!(outcome(name, &all_zeroed, &st), reference, "{name}: zeroed");
            if id.charges_from_shapes() {
                assert_eq!(charged(id, &args), reference, "{name}: charge");
                assert_eq!(
                    charged(id, &all_zeroed),
                    reference,
                    "{name}: charge, zeroed"
                );
            }
        }

        macro_rules! rows {
            ($($row:ident),* $(,)?) => {
                $(
                    #[test]
                    fn $row() {
                        check_row(stringify!($row));
                    }
                )*

                #[test]
                fn every_row_has_its_test() {
                    let tested = [$(stringify!($row).trim_start_matches("r#")),*];
                    let rows: Vec<&str> = signatures().map(|sig| sig.name).collect();
                    assert_eq!(rows, tested);
                }
            };
        }

        rows!(
            scan,
            col,
            filter,
            select,
            len,
            sum,
            mean,
            minv,
            maxv,
            count,
            exp,
            log,
            sqrt,
            erf,
            abs,
            sort,
            dot,
            r#where,
            group_sum,
            matmul,
            gemm_batch,
            to_csr,
            spmv,
            pagerank_step,
            kmeans_assign,
            kmeans_update,
            forest_score,
            gather,
            frob,
            gram,
            scan_raw,
            decode,
        );
    }

    #[test]
    fn wired_kernels_are_bit_identical_across_thread_counts() {
        use crate::forest::{Forest, Tree, TreeNode};
        use crate::par::ParallelPolicy;

        let mut st = Storage::new();
        let n = 20_000usize;
        let xs: Vec<f64> = (0..n)
            .map(|i| ((i * 37) % 101) as f64 * 0.5 - 20.0)
            .collect();
        let ys: Vec<f64> = (0..n)
            .map(|i| ((i * 13) % 89) as f64 * 0.25 - 10.0)
            .collect();
        let keep: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        st.insert("xs", arr_logical(xs.clone(), 1_000_000));
        // Every kernel below takes the chunked path: at least
        // `MIN_PARALLEL_LEN` elements of work each.
        let side = 128;
        let mvals: Vec<f64> = (0..side * side)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    (i % 23) as f64 - 11.0
                }
            })
            .collect();
        let mat = Matrix::new(mvals, side, side).expect("mat");
        let csr = mat.to_csr();
        let points = Matrix::new(
            (0..2048 * 8).map(|i| ((i * 7) % 19) as f64).collect(),
            2048,
            8,
        )
        .expect("pts");
        let cents = Matrix::new((0..4 * 8).map(|i| i as f64).collect(), 4, 8).expect("cents");
        let assign_vals: Vec<f64> = (0..2048).map(|i| (i % 4) as f64).collect();
        let tree = Tree::new(vec![
            TreeNode::split(0, 6.0, 1, 2),
            TreeNode::leaf(-1.0),
            TreeNode::leaf(1.0),
        ])
        .expect("tree");
        let forest = Forest::new(vec![tree], 1).expect("forest");

        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("sum", vec![arr_logical(xs.clone(), 1_000_000)]),
            ("mean", vec![arr(xs.clone())]),
            ("minv", vec![arr(xs.clone())]),
            ("maxv", vec![arr(xs.clone())]),
            ("exp", vec![arr(ys.clone())]),
            ("abs", vec![arr(xs.clone())]),
            ("sqrt", vec![arr(xs.iter().map(|x| x.abs()).collect())]),
            ("dot", vec![arr(xs.clone()), arr(ys.clone())]),
            (
                "where",
                vec![
                    Value::BoolArray(BoolArrayVal::new(keep.clone())),
                    arr(xs.clone()),
                    arr(ys.clone()),
                ],
            ),
            (
                "select",
                vec![arr(xs.clone()), Value::BoolArray(BoolArrayVal::new(keep))],
            ),
            (
                "matmul",
                vec![Value::Matrix(mat.clone()), Value::Matrix(mat.clone())],
            ),
            (
                "gemm_batch",
                vec![
                    Value::Matrix(
                        Matrix::with_logical(mat.data().to_vec(), side, side, 1280, 128)
                            .expect("gm"),
                    ),
                    Value::Matrix(mat.clone()),
                ],
            ),
            ("frob", vec![Value::Matrix(mat.clone())]),
            ("gram", vec![Value::Matrix(mat.clone())]),
            (
                "spmv",
                vec![Value::Csr(csr.clone()), arr(ys[..side].to_vec())],
            ),
            (
                "pagerank_step",
                vec![
                    Value::Csr(csr),
                    arr(vec![1.0 / side as f64; side]),
                    Value::Num(0.85),
                ],
            ),
            (
                "kmeans_assign",
                vec![Value::Matrix(points.clone()), Value::Matrix(cents)],
            ),
            (
                "kmeans_update",
                vec![Value::Matrix(points), arr(assign_vals), Value::Num(4.0)],
            ),
            (
                "forest_score",
                vec![
                    Value::Forest(forest),
                    Value::Matrix(
                        Matrix::new((0..2048 * 8).map(|i| (i % 13) as f64).collect(), 2048, 8)
                            .expect("feats"),
                    ),
                ],
            ),
        ];

        for (name, argv) in &cases {
            let mut outputs = Vec::new();
            for threads in [1usize, 2, 8] {
                let engine = ParEngine::new(ParallelPolicy::with_threads(threads));
                let ctx = KernelCtx {
                    storage: &st,
                    par: &engine,
                    groups: None,
                    memo: None,
                    columns: None,
                };
                let out = call_in(name, argv, &ctx).expect(name);
                assert!(engine.stats().par_calls > 0, "{name}: chunked");
                outputs.push((threads, format!("{out:?}")));
            }
            let (_, reference) = &outputs[0];
            for (threads, repr) in &outputs[1..] {
                assert_eq!(repr, reference, "{name} differs at {threads} threads");
            }
        }
    }
}
