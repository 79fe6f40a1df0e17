//! Runtime values.
//!
//! Every bulk value (array, table, matrix, …) carries both its materialized
//! data — kept small enough to compute on a laptop — and a *logical* size
//! representing the paper-scale dataset it stands for. Builtins compute
//! real results on the materialized data and report costs analytically from
//! the logical sizes, so quantities that depend on the data (selectivity,
//! sparsity, tree depth) remain genuinely data-driven while volumes match
//! Table I of the paper.

use crate::canonical::CanonicalSink;
use crate::copyelim::StaticType;
use crate::error::{LangError, Result};
use crate::forest::Forest;
use crate::matrix::{Csr, Matrix};
use crate::table::Table;
use csd_sim::wire::Encoding;
use std::fmt;
use std::sync::Arc;

/// A wire descriptor's part of the canonical walk: codec, shuffle flag,
/// byte order, then the fill sentinel if there is one. An encoded value
/// opens with it, and a workload's declared formats are fingerprinted
/// through it.
pub fn encoding_canonical(encoding: &Encoding, sink: &mut impl CanonicalSink) {
    sink.u8(encoding.codec.code());
    sink.bool(encoding.shuffle);
    sink.u8(encoding.byte_order.code());
    sink.bool(encoding.fill_value.is_some());
    if let Some(fill) = encoding.fill_value {
        sink.f64(fill);
    }
}

/// The kind tags that open each value's part of the canonical walk.
mod kind {
    pub(super) const NUM: u8 = 0;
    pub(super) const BOOL: u8 = 1;
    pub(super) const STR: u8 = 2;
    pub(super) const ARRAY: u8 = 3;
    pub(super) const BOOL_ARRAY: u8 = 4;
    pub(super) const TABLE: u8 = 5;
    pub(super) const MATRIX: u8 = 6;
    pub(super) const CSR: u8 = 7;
    pub(super) const FOREST: u8 = 8;
    pub(super) const ENCODED: u8 = 9;
}

/// Elements per independently-encoded chunk of an [`EncodedVal`].
///
/// Matches the parallel engine's chunk grid, so decode parallelizes over
/// the same deterministic chunk boundaries every other kernel uses, and a
/// journaled run replays each chunk's bytes exactly.
pub const ENCODED_CHUNK_ELEMS: usize = 4096;

/// A bulk numeric value still in its on-storage wire format.
///
/// The materialized sample is held as independently-encoded
/// [`ENCODED_CHUNK_ELEMS`]-element chunks (so decode can run under the
/// chunk grid), while `logical_len` and `encoded_logical_bytes` describe
/// the paper-scale dataset: the logical byte volume is the materialized
/// compression ratio extrapolated to the logical length, so Eq. 1 prices
/// moving the *encoded* stream, not the decoded array it stands for.
#[derive(Debug, Clone)]
pub struct EncodedVal {
    encoding: Encoding,
    chunks: Arc<Vec<Vec<u8>>>,
    actual_len: usize,
    logical_len: u64,
    encoded_logical_bytes: u64,
}

impl PartialEq for EncodedVal {
    fn eq(&self, other: &Self) -> bool {
        self.encoding == other.encoding
            && self.logical_len == other.logical_len
            && self.actual_len == other.actual_len
            && (Arc::ptr_eq(&self.chunks, &other.chunks) || self.chunks == other.chunks)
    }
}

impl EncodedVal {
    /// Encodes a materialized sample standing for `logical_len`
    /// paper-scale elements.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    #[must_use]
    pub fn from_f64s(encoding: Encoding, data: &[f64], logical_len: u64) -> Self {
        let chunks = data.chunks(ENCODED_CHUNK_ELEMS).map(|c| encoding.encode(c));
        Self::from_parts(encoding, chunks.collect(), data.len(), data.len() as u64, 0)
            .with_logical_len(logical_len)
    }

    /// The same stored stream standing for `logical_len` paper-scale
    /// elements: the chunks are shared, not re-encoded.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    #[must_use]
    pub fn with_logical_len(&self, logical_len: u64) -> Self {
        assert!(
            logical_len >= self.actual_len as u64,
            "logical length must cover the materialized data"
        );
        // Extrapolate the sample's real compression ratio to paper scale.
        let encoded_logical_bytes = if self.actual_len == 0 {
            0
        } else {
            let ratio = logical_len as f64 / self.actual_len as f64;
            (self.encoded_actual_bytes() as f64 * ratio).round() as u64
        };
        EncodedVal {
            encoding: self.encoding,
            chunks: Arc::clone(&self.chunks),
            actual_len: self.actual_len,
            logical_len,
            encoded_logical_bytes,
        }
    }

    /// Reassembles an encoded value from serialized parts (warm-start
    /// persistence). The chunks must have been produced by
    /// `encoding.encode` over [`ENCODED_CHUNK_ELEMS`]-element slices;
    /// byte-level round trips are exact because encoding is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than `actual_len`.
    #[must_use]
    pub fn from_parts(
        encoding: Encoding,
        chunks: Vec<Vec<u8>>,
        actual_len: usize,
        logical_len: u64,
        encoded_logical_bytes: u64,
    ) -> Self {
        assert!(
            logical_len >= actual_len as u64,
            "logical length must cover the materialized data"
        );
        EncodedVal {
            encoding,
            chunks: Arc::new(chunks),
            actual_len,
            logical_len,
            encoded_logical_bytes,
        }
    }

    /// Whether `other` is this very stored stream, whatever logical length
    /// each stands for: the same chunk buffer under the same encoding.
    pub(crate) fn same_stream(&self, other: &EncodedVal) -> bool {
        Arc::ptr_eq(&self.chunks, &other.chunks)
            && self.encoding == other.encoding
            && self.actual_len == other.actual_len
    }

    /// The wire-format descriptor.
    #[must_use]
    pub fn encoding(&self) -> &Encoding {
        &self.encoding
    }

    /// The encoded chunks (each covers [`ENCODED_CHUNK_ELEMS`] decoded
    /// elements, except a shorter tail).
    #[must_use]
    pub fn chunks(&self) -> &[Vec<u8>] {
        &self.chunks
    }

    /// Materialized (decoded) element count.
    #[must_use]
    pub fn actual_len(&self) -> usize {
        self.actual_len
    }

    /// Logical (paper-scale) decoded element count.
    #[must_use]
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// Paper-scale size of the *encoded* stream in bytes.
    #[must_use]
    pub fn encoded_logical_bytes(&self) -> u64 {
        self.encoded_logical_bytes
    }

    /// Materialized size of the encoded stream in bytes.
    #[must_use]
    pub fn encoded_actual_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }

    /// The encoded value's part of [`Value::canonical`]: the wire
    /// descriptor, both logical sizes, then every chunk's bytes.
    fn canonical(&self, sink: &mut impl CanonicalSink) {
        encoding_canonical(&self.encoding, sink);
        sink.u64(self.logical_len);
        sink.u64(self.encoded_logical_bytes);
        sink.len(self.actual_len);
        sink.len(self.chunks.len());
        for chunk in self.chunks.iter() {
            sink.bytes(chunk);
        }
    }

    /// Decodes the chunks in `range`, in order — the one decode loop
    /// (`decode(..)` runs it per grid chunk, [`Self::decode_all`] over
    /// everything). Chunk `i` must decode to exactly the share of
    /// `actual_len` its position gives it, which is also the bound the
    /// wire layer inflates it under.
    ///
    /// # Errors
    ///
    /// Returns a corruption description from the wire layer, or a
    /// chunk count or decoded length that disagrees with `actual_len`.
    pub(crate) fn decode_range(&self, range: std::ops::Range<usize>) -> Result<Vec<f64>> {
        let chunks_needed = self.actual_len.div_ceil(ENCODED_CHUNK_ELEMS);
        if self.chunks.len() != chunks_needed {
            return Err(LangError::type_error(format!(
                "encoded value holds {} chunks but its {} elements need {chunks_needed}",
                self.chunks.len(),
                self.actual_len
            )));
        }
        let elems_from =
            |chunk: usize| self.actual_len - (chunk * ENCODED_CHUNK_ELEMS).min(self.actual_len);
        let mut out = Vec::with_capacity(elems_from(range.start) - elems_from(range.end));
        for i in range {
            let want = elems_from(i).min(ENCODED_CHUNK_ELEMS);
            let got = self
                .encoding
                .decode_into(&self.chunks[i], want, &mut out)
                .map_err(LangError::type_error)?;
            if got != want {
                return Err(LangError::type_error(format!(
                    "encoded chunk {i} decoded to {got} elements, expected {want}"
                )));
            }
        }
        Ok(out)
    }

    /// Decodes every chunk serially.
    ///
    /// # Errors
    ///
    /// Returns a corruption description from the wire layer, or a
    /// chunk count or decoded length that disagrees with `actual_len`.
    pub fn decode_all(&self) -> Result<Vec<f64>> {
        self.decode_range(0..self.chunks.len())
    }
}

/// A 1-D array of `f64` with a logical length.
#[derive(Debug, Clone)]
pub struct ArrayVal {
    data: Arc<Vec<f64>>,
    logical_len: u64,
}

impl PartialEq for ArrayVal {
    fn eq(&self, other: &Self) -> bool {
        self.logical_len == other.logical_len
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl ArrayVal {
    /// Builds an array whose logical length equals its materialized length.
    #[must_use]
    pub fn new(data: Vec<f64>) -> Self {
        let logical_len = data.len() as u64;
        ArrayVal {
            data: Arc::new(data),
            logical_len,
        }
    }

    /// Builds an array standing for `logical_len` paper-scale elements.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    #[must_use]
    pub fn with_logical(data: Vec<f64>, logical_len: u64) -> Self {
        Self::shared(Arc::new(data), logical_len)
    }

    /// [`Self::with_logical`] over a buffer that stays shared with its
    /// other owners instead of being copied.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    #[must_use]
    pub fn shared(data: Arc<Vec<f64>>, logical_len: u64) -> Self {
        assert!(
            logical_len >= data.len() as u64,
            "logical length must cover the materialized data"
        );
        ArrayVal { data, logical_len }
    }

    /// The materialized data.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The buffer itself: immutable once shared, so its address is the
    /// identity of the data while any handle to it lives.
    pub(crate) fn buffer(&self) -> &Arc<Vec<f64>> {
        &self.data
    }

    /// Whether this array's buffer is `buffer` itself, not a copy of it.
    #[cfg(test)]
    pub(crate) fn shares(&self, buffer: &Arc<Vec<f64>>) -> bool {
        Arc::ptr_eq(&self.data, buffer)
    }

    /// Materialized length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the materialized data is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Logical (paper-scale) length.
    #[must_use]
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// Ratio `logical / materialized`.
    #[must_use]
    pub fn scale_ratio(&self) -> f64 {
        if self.data.is_empty() {
            1.0
        } else {
            self.logical_len as f64 / self.data.len() as f64
        }
    }
}

/// A 1-D boolean mask with a logical length.
#[derive(Debug, Clone)]
pub struct BoolArrayVal {
    data: Arc<Vec<bool>>,
    logical_len: u64,
}

impl PartialEq for BoolArrayVal {
    fn eq(&self, other: &Self) -> bool {
        self.logical_len == other.logical_len
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl BoolArrayVal {
    /// Builds a mask whose logical length equals its materialized length.
    #[must_use]
    pub fn new(data: Vec<bool>) -> Self {
        let logical_len = data.len() as u64;
        BoolArrayVal {
            data: Arc::new(data),
            logical_len,
        }
    }

    /// Builds a mask standing for `logical_len` paper-scale elements.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    #[must_use]
    pub fn with_logical(data: Vec<bool>, logical_len: u64) -> Self {
        Self::shared(Arc::new(data), logical_len)
    }

    /// [`Self::with_logical`] over a buffer that stays shared.
    ///
    /// # Panics
    ///
    /// Panics if `logical_len` is smaller than the materialized length.
    pub(crate) fn shared(data: Arc<Vec<bool>>, logical_len: u64) -> Self {
        assert!(
            logical_len >= data.len() as u64,
            "logical length must cover the materialized data"
        );
        BoolArrayVal { data, logical_len }
    }

    /// The materialized mask.
    #[must_use]
    pub fn data(&self) -> &[bool] {
        &self.data
    }

    /// Materialized length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the materialized mask is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Logical length.
    #[must_use]
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// Fraction of `true` entries in the materialized mask.
    #[must_use]
    pub fn selectivity(&self) -> f64 {
        self.fraction(self.count_true())
    }

    /// Number of `true` entries in the materialized mask.
    pub(crate) fn count_true(&self) -> usize {
        self.data.iter().filter(|b| **b).count()
    }

    /// `kept` entries as a fraction of the materialized mask (0 when it
    /// is empty).
    pub(crate) fn fraction(&self, kept: usize) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            kept as f64 / self.data.len() as f64
        }
    }
}

/// Any ALang runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Scalar number.
    Num(f64),
    /// Scalar boolean.
    Bool(bool),
    /// String (used for column names and dataset names).
    Str(String),
    /// Numeric array.
    Array(ArrayVal),
    /// Boolean mask.
    BoolArray(BoolArrayVal),
    /// Columnar table.
    Table(Table),
    /// Dense matrix.
    Matrix(Matrix),
    /// Sparse CSR matrix.
    Csr(Csr),
    /// Decision-tree forest model.
    Forest(Forest),
    /// Bulk numeric data still in its on-storage wire format.
    Encoded(EncodedVal),
}

impl Value {
    /// Short type name for diagnostics.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        StaticType::of(self).name()
    }

    /// Streams this value into `sink` in its one canonical order: kind
    /// tag, logical sizes, length prefixes, then each bulk payload as a
    /// whole slice. The answer fingerprint and every byte-level
    /// comparison of values are this walk seen through a sink, so a new
    /// kind or field is described here and nowhere else.
    pub fn canonical(&self, sink: &mut impl CanonicalSink) {
        match self {
            Value::Num(x) => {
                sink.u8(kind::NUM);
                sink.f64(*x);
            }
            Value::Bool(b) => {
                sink.u8(kind::BOOL);
                sink.bool(*b);
            }
            Value::Str(s) => {
                sink.u8(kind::STR);
                sink.str(s);
            }
            Value::Array(a) => {
                sink.u8(kind::ARRAY);
                sink.u64(a.logical_len);
                sink.len(a.data.len());
                sink.f64s(&a.data);
            }
            Value::BoolArray(m) => {
                sink.u8(kind::BOOL_ARRAY);
                sink.u64(m.logical_len);
                sink.len(m.data.len());
                sink.bools(&m.data);
            }
            Value::Table(t) => {
                sink.u8(kind::TABLE);
                t.canonical(sink);
            }
            Value::Matrix(m) => {
                sink.u8(kind::MATRIX);
                m.canonical(sink);
            }
            Value::Csr(c) => {
                sink.u8(kind::CSR);
                c.canonical(sink);
            }
            Value::Forest(f) => {
                sink.u8(kind::FOREST);
                f.canonical(sink);
            }
            Value::Encoded(e) => {
                sink.u8(kind::ENCODED);
                e.canonical(sink);
            }
        }
    }

    /// Whether this is a bulk value whose movement costs bandwidth.
    #[must_use]
    pub fn is_bulk(&self) -> bool {
        !matches!(self, Value::Num(_) | Value::Bool(_) | Value::Str(_))
    }

    /// Paper-scale data volume in bytes.
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        match self {
            Value::Num(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
            Value::Array(a) => a.logical_len() * 8,
            Value::BoolArray(m) => m.logical_len(),
            Value::Table(t) => t.virtual_bytes(),
            Value::Matrix(m) => m.virtual_bytes(),
            Value::Csr(c) => c.virtual_bytes(),
            Value::Forest(f) => f.virtual_bytes(),
            // Moving an encoded value moves the compressed stream — this
            // asymmetry against the decoded Array is exactly what makes
            // decode placement a profitable axis for Eq. 1.
            Value::Encoded(e) => e.encoded_logical_bytes(),
        }
    }

    /// Logical element count (rows for tables, elements for matrices and
    /// arrays, nodes scored for forests, 1 for scalars).
    #[must_use]
    pub fn logical_elems(&self) -> u64 {
        match self {
            Value::Num(_) | Value::Bool(_) | Value::Str(_) => 1,
            Value::Array(a) => a.logical_len(),
            Value::BoolArray(m) => m.logical_len(),
            Value::Table(t) => t.logical_rows(),
            Value::Matrix(m) => m.logical_rows() * m.logical_cols(),
            Value::Csr(c) => c.logical_nnz(),
            Value::Forest(f) => f.node_count() as u64,
            Value::Encoded(e) => e.logical_len(),
        }
    }

    /// Extracts a scalar number.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-numbers.
    pub fn as_num(&self) -> Result<f64> {
        match self {
            Value::Num(n) => Ok(*n),
            other => Err(type_err(StaticType::Num, other)),
        }
    }

    /// Extracts a scalar boolean.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-booleans.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err(StaticType::Bool, other)),
        }
    }

    /// Extracts a string.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-strings.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(type_err(StaticType::Str, other)),
        }
    }

    /// Extracts a numeric array.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_array(&self) -> Result<&ArrayVal> {
        match self {
            Value::Array(a) => Ok(a),
            other => Err(type_err(StaticType::Array, other)),
        }
    }

    /// Extracts a boolean mask.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_bool_array(&self) -> Result<&BoolArrayVal> {
        match self {
            Value::BoolArray(m) => Ok(m),
            other => Err(type_err(StaticType::BoolArray, other)),
        }
    }

    /// Extracts a table.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_table(&self) -> Result<&Table> {
        match self {
            Value::Table(t) => Ok(t),
            other => Err(type_err(StaticType::Table, other)),
        }
    }

    /// Extracts a dense matrix.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_matrix(&self) -> Result<&Matrix> {
        match self {
            Value::Matrix(m) => Ok(m),
            other => Err(type_err(StaticType::Matrix, other)),
        }
    }

    /// Extracts a CSR matrix.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_csr(&self) -> Result<&Csr> {
        match self {
            Value::Csr(c) => Ok(c),
            other => Err(type_err(StaticType::Csr, other)),
        }
    }

    /// Extracts a forest model.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_forest(&self) -> Result<&Forest> {
        match self {
            Value::Forest(f) => Ok(f),
            other => Err(type_err(StaticType::Forest, other)),
        }
    }

    /// Extracts a wire-format encoded value.
    ///
    /// # Errors
    ///
    /// Returns a type error for other values.
    pub fn as_encoded(&self) -> Result<&EncodedVal> {
        match self {
            Value::Encoded(e) => Ok(e),
            other => Err(type_err(StaticType::Encoded, other)),
        }
    }
}

/// The error a value of the wrong type raises where a `wanted` is expected.
pub(crate) fn type_err(wanted: StaticType, got: &Value) -> LangError {
    LangError::type_error(format!(
        "expected {}, got {}",
        wanted.name(),
        got.type_name()
    ))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Array(a) => {
                write!(f, "array[{} (logical {})]", a.len(), a.logical_len())
            }
            Value::BoolArray(m) => {
                write!(f, "mask[{} (logical {})]", m.len(), m.logical_len())
            }
            Value::Table(t) => write!(f, "{t}"),
            Value::Matrix(m) => write!(f, "{m}"),
            Value::Csr(c) => write!(f, "{c}"),
            Value::Forest(fr) => write!(f, "{fr}"),
            Value::Encoded(e) => write!(
                f,
                "encoded[{}B for {} elems (logical {})]",
                e.encoded_actual_bytes(),
                e.actual_len(),
                e.logical_len()
            ),
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::Array(ArrayVal::new(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_sim::wire::{ByteOrder, Codec};

    #[test]
    fn scalar_volumes() {
        assert_eq!(Value::Num(1.0).virtual_bytes(), 8);
        assert_eq!(Value::Bool(true).virtual_bytes(), 1);
        assert_eq!(Value::Str("abc".into()).virtual_bytes(), 3);
        assert!(!Value::Num(1.0).is_bulk());
    }

    #[test]
    fn array_logical_scaling() {
        let a = ArrayVal::with_logical(vec![1.0, 2.0], 2000);
        assert_eq!(a.logical_len(), 2000);
        assert!((a.scale_ratio() - 1000.0).abs() < 1e-12);
        let v = Value::Array(a);
        assert_eq!(v.virtual_bytes(), 16_000);
        assert!(v.is_bulk());
    }

    #[test]
    fn array_eq_shares_and_compares() {
        // Clones share the buffer: equal via the pointer fast path.
        let a = ArrayVal::with_logical(vec![1.0, 2.0], 2000);
        assert_eq!(a, a.clone());
        // Same contents in distinct buffers still compare equal.
        assert_eq!(a, ArrayVal::with_logical(vec![1.0, 2.0], 2000));
        // Same buffer contents but different logical length differ.
        assert_ne!(a, ArrayVal::with_logical(vec![1.0, 2.0], 3000));
        assert_ne!(a, ArrayVal::with_logical(vec![1.0, 3.0], 2000));
        let m = BoolArrayVal::with_logical(vec![true, false], 2000);
        assert_eq!(m, m.clone());
        assert_eq!(m, BoolArrayVal::with_logical(vec![true, false], 2000));
        assert_ne!(m, BoolArrayVal::with_logical(vec![true, true], 2000));
        assert_ne!(m, BoolArrayVal::with_logical(vec![true, false], 3000));
    }

    #[test]
    #[should_panic(expected = "logical length")]
    fn logical_shorter_than_actual_panics() {
        let _ = ArrayVal::with_logical(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn mask_selectivity() {
        let m = BoolArrayVal::new(vec![true, false, true, true]);
        assert!((m.selectivity() - 0.75).abs() < 1e-12);
        assert_eq!(Value::BoolArray(m).virtual_bytes(), 4);
    }

    #[test]
    fn accessors_enforce_types() {
        let v = Value::from(3.5);
        assert_eq!(v.as_num().expect("num"), 3.5);
        assert!(v.as_array().is_err());
        assert!(v.as_table().is_err());
        let msg = format!("{}", Value::from(true).as_num().unwrap_err());
        assert!(msg.contains("expected num"));
        assert!(msg.contains("bool"));
    }

    #[test]
    fn encoded_values_extrapolate_compressed_bytes() {
        let data: Vec<f64> = (0..6000).map(|i| f64::from(i % 97)).collect();
        let e = EncodedVal::from_f64s(Encoding::gzip_shuffled(), &data, 6_000_000);
        // 6000 elems at 4096/chunk -> 2 chunks.
        assert_eq!(e.chunks().len(), 2);
        assert_eq!(e.actual_len(), 6000);
        let v = Value::Encoded(e.clone());
        assert!(v.is_bulk());
        assert_eq!(v.logical_elems(), 6_000_000);
        // Compressible data: encoded logical bytes are far below the
        // 8 B/elem a decoded Array would report, and the extrapolation
        // preserves the materialized ratio.
        assert!(v.virtual_bytes() < 6_000_000 * 8 / 4);
        let ratio = e.encoded_logical_bytes() as f64 / e.encoded_actual_bytes() as f64;
        assert!((ratio - 1000.0).abs() < 1.0);
        // Decode returns the original data.
        assert_eq!(e.decode_all().expect("decodes"), data);
        assert_eq!(v.as_encoded().expect("encoded").actual_len(), 6000);
        assert!(Value::Num(1.0).as_encoded().is_err());
        // Equality: clone (shared chunks) and a re-encode both compare
        // equal; a different encoding does not.
        assert_eq!(e, e.clone());
        assert_eq!(
            e,
            EncodedVal::from_f64s(Encoding::gzip_shuffled(), &data, 6_000_000)
        );
        assert_ne!(e, EncodedVal::from_f64s(Encoding::raw(), &data, 6_000_000));
    }

    #[test]
    fn a_relabelled_stream_is_the_stream_encoded_at_that_length() {
        use crate::canonical::Fingerprinter;
        for len in [0, 1, ENCODED_CHUNK_ELEMS, ENCODED_CHUNK_ELEMS + 1] {
            let data: Vec<f64> = (0..len).map(|i| (i % 97) as f64 * 0.25).collect();
            for encoding in [Encoding::gzip_shuffled(), Encoding::raw()] {
                let stored = EncodedVal::from_f64s(encoding, &data, len as u64);
                for logical in [len as u64, len as u64 + 1, 6_000_000_000] {
                    let relabelled = stored.with_logical_len(logical);
                    let encoded = EncodedVal::from_f64s(encoding, &data, logical);
                    assert_eq!(relabelled, encoded, "{len} -> {logical}");
                    assert_eq!(relabelled.encoding(), encoded.encoding());
                    assert_eq!(relabelled.chunks(), encoded.chunks());
                    assert_eq!(relabelled.actual_len(), encoded.actual_len());
                    assert_eq!(relabelled.logical_len(), encoded.logical_len());
                    assert_eq!(
                        relabelled.encoded_logical_bytes(),
                        encoded.encoded_logical_bytes(),
                        "{len} -> {logical}"
                    );
                    assert_eq!(
                        Fingerprinter::digest(&Value::Encoded(relabelled.clone())),
                        Fingerprinter::digest(&Value::Encoded(encoded))
                    );
                    assert!(Arc::ptr_eq(&relabelled.chunks, &stored.chunks));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "logical length")]
    fn relabelling_below_the_materialized_length_panics() {
        let data = vec![1.0; ENCODED_CHUNK_ELEMS + 1];
        let stored = EncodedVal::from_f64s(Encoding::raw(), &data, 1 << 20);
        let _ = stored.with_logical_len(ENCODED_CHUNK_ELEMS as u64);
    }

    #[test]
    fn codec_less_encodings_keep_their_length_and_gzip_shuffle_compresses_a_patterned_column() {
        // Low-cardinality data with a sentinel every 10th element, the way
        // columnar stores hold it.
        let data: Vec<f64> = (0..1usize << 16)
            .map(|i| {
                if i % 10 == 0 {
                    -1.0
                } else {
                    ((i * 7919) % 50) as f64
                }
            })
            .collect();
        let decoded_bytes = (data.len() * 8) as u64;
        let encoded_bytes = |encoding| {
            EncodedVal::from_f64s(encoding, &data, data.len() as u64).encoded_actual_bytes()
        };
        let shuffled_big_endian = Encoding {
            codec: Codec::None,
            shuffle: true,
            byte_order: ByteOrder::Big,
            fill_value: None,
        };
        let filled = Encoding {
            codec: Codec::None,
            shuffle: false,
            byte_order: ByteOrder::Little,
            fill_value: Some(-1.0),
        };
        assert_eq!(encoded_bytes(shuffled_big_endian), decoded_bytes);
        assert_eq!(encoded_bytes(filled), decoded_bytes);
        assert!(encoded_bytes(Encoding::gzip_shuffled()) * 2 < decoded_bytes);
    }

    #[test]
    fn reassembled_parts_must_decode_to_their_declared_length() {
        let data: Vec<f64> = (0..6000).map(|i| f64::from(i % 97)).collect();
        for encoding in [Encoding::gzip_shuffled(), Encoding::raw()] {
            let e = EncodedVal::from_f64s(encoding, &data, 6000);
            let parts = |chunks: Vec<Vec<u8>>, actual_len| {
                EncodedVal::from_parts(encoding, chunks, actual_len, 6000, 1)
            };
            let chunks = e.chunks().to_vec();
            assert_eq!(
                parts(chunks.clone(), 6000).decode_all().expect("decodes"),
                data
            );
            // A wrong `actual_len` is an error, not a shorter or longer array.
            for wrong in [0, 1904, 4096, 4097, 5999] {
                assert!(
                    parts(chunks.clone(), wrong).decode_all().is_err(),
                    "{wrong}"
                );
            }
            // So are a missing chunk, a surplus chunk, and swapped chunks.
            assert!(parts(chunks[..1].to_vec(), 6000).decode_all().is_err());
            let surplus = [chunks.clone(), vec![chunks[1].clone()]].concat();
            assert!(parts(surplus, 6000).decode_all().is_err());
            let swapped = vec![chunks[1].clone(), chunks[0].clone()];
            assert!(parts(swapped, 6000).decode_all().is_err());
        }
    }

    #[test]
    fn a_chunk_that_inflates_past_its_element_count_is_refused() {
        // A gzip member of zeros far larger than one chunk may hold,
        // declared honestly in its own trailer: over 100x its encoded size.
        let zeros = vec![0.0f64; 64 * ENCODED_CHUNK_ELEMS];
        let plain = Encoding {
            shuffle: false,
            ..Encoding::gzip_shuffled()
        };
        let bomb = plain.encode(&zeros);
        assert!(bomb.len() * 100 < zeros.len() * 8);
        let e = EncodedVal::from_parts(plain, vec![bomb], ENCODED_CHUNK_ELEMS, 4096, 1);
        let err = e.decode_all().expect_err("over the chunk bound");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn display_nonempty_for_all_variants() {
        let vals = [
            Value::Num(1.0),
            Value::Bool(false),
            Value::Str("s".into()),
            Value::from(vec![1.0, 2.0]),
            Value::BoolArray(BoolArrayVal::new(vec![true])),
        ];
        for v in &vals {
            assert!(!format!("{v}").is_empty());
            assert!(!v.type_name().is_empty());
        }
    }
}
