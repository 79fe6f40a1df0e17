//! Dense matrices and compressed-sparse-row (CSR) matrices.
//!
//! MatrixMul, MixedGEMM, PageRank, and SparseMV operate on these. The CSR
//! type matters to the paper specifically: converting a matrix to CSR is
//! the one operation whose output volume ActivePy consistently
//! *over-estimates* (up to 2.41×), because sparsity is hard to see in small
//! samples (§V). Keeping nnz data-dependent here is what lets the
//! reproduction exhibit the same behaviour.

use crate::canonical::CanonicalSink;
use crate::error::{LangError, Result};
use crate::par::ParEngine;
use crate::simd;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The error of a logical dimension below its materialized one.
fn logical_below_materialized() -> LangError {
    LangError::runtime("logical dimensions must be at least the materialized dimensions")
}

/// A dense row-major matrix with logical (paper-scale) dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Arc<Vec<f64>>,
    rows: usize,
    cols: usize,
    logical_rows: u64,
    logical_cols: u64,
}

impl Matrix {
    /// Builds a matrix whose logical size equals its materialized size.
    ///
    /// # Errors
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn new(data: Vec<f64>, rows: usize, cols: usize) -> Result<Self> {
        Self::with_logical(data, rows, cols, rows as u64, cols as u64)
    }

    /// Builds a matrix whose materialized `rows × cols` block stands for a
    /// `logical_rows × logical_cols` paper-scale matrix.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or logical dims smaller than the
    /// materialized ones.
    pub fn with_logical(
        data: Vec<f64>,
        rows: usize,
        cols: usize,
        logical_rows: u64,
        logical_cols: u64,
    ) -> Result<Self> {
        Self::shared(Arc::new(data), rows, cols, logical_rows, logical_cols)
    }

    /// [`Self::with_logical`] over a buffer that stays shared with its
    /// other owners instead of being copied.
    pub(crate) fn shared(
        data: Arc<Vec<f64>>,
        rows: usize,
        cols: usize,
        logical_rows: u64,
        logical_cols: u64,
    ) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LangError::runtime(format!(
                "matrix data length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        if logical_cols < cols as u64 {
            return Err(logical_below_materialized());
        }
        Matrix {
            data,
            rows,
            cols,
            logical_rows: rows as u64,
            logical_cols,
        }
        .with_logical_rows(logical_rows)
    }

    /// The same materialized block standing for `logical_rows` paper-scale
    /// rows: the buffer is shared, not copied.
    ///
    /// # Errors
    ///
    /// Returns an error if `logical_rows` is smaller than the materialized
    /// row count.
    pub fn with_logical_rows(&self, logical_rows: u64) -> Result<Self> {
        if logical_rows < self.rows as u64 {
            return Err(logical_below_materialized());
        }
        Ok(Matrix {
            data: Arc::clone(&self.data),
            rows: self.rows,
            cols: self.cols,
            logical_rows,
            logical_cols: self.logical_cols,
        })
    }

    /// Materialized row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Materialized column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Paper-scale row count.
    #[must_use]
    pub fn logical_rows(&self) -> u64 {
        self.logical_rows
    }

    /// Paper-scale column count.
    #[must_use]
    pub fn logical_cols(&self) -> u64 {
        self.logical_cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// The backing row-major data.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The buffer itself: immutable once shared, so its address is the
    /// identity of the data while any handle to it lives.
    pub(crate) fn buffer(&self) -> &Arc<Vec<f64>> {
        &self.data
    }

    /// The matrix's part of [`crate::Value::canonical`]; the payload needs
    /// no prefix of its own because it is `rows × cols` long.
    pub(crate) fn canonical(&self, sink: &mut impl CanonicalSink) {
        sink.len(self.rows);
        sink.len(self.cols);
        sink.u64(self.logical_rows);
        sink.u64(self.logical_cols);
        sink.f64s(&self.data);
    }

    /// Paper-scale data volume (8 bytes per logical element).
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        self.logical_rows * self.logical_cols * 8
    }

    /// The serial product [`Self::matmul_with`] must equal.
    #[cfg(test)]
    pub(crate) fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_in(rhs, None)
    }

    /// Dense matrix multiply `self × rhs`, computed on the materialized
    /// blocks; logical dimensions compose accordingly. Output rows are
    /// chunked through the data-parallel engine (each is written by exactly
    /// one worker), so the result is bit-identical to the serial product at
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn matmul_with(&self, rhs: &Matrix, par: &ParEngine) -> Result<Matrix> {
        self.matmul_in(rhs, Some(par))
    }

    fn matmul_in(&self, rhs: &Matrix, par: Option<&ParEngine>) -> Result<Matrix> {
        self.check_matmul(rhs)?;
        // A rhs of at most four columns fills 4-lane panels: 8-lane ones
        // would compute four lanes nobody reads.
        let data = if rhs.cols <= 4 {
            self.matmul_panels::<4>(rhs, par)
        } else {
            self.matmul_panels::<{ simd::LANES }>(rhs, par)
        };
        Matrix::with_logical(
            data,
            self.rows,
            rhs.cols,
            self.logical_rows,
            rhs.logical_cols,
        )
    }

    /// The shape check of `self × rhs`: inner dimensions agree.
    pub(crate) fn check_matmul(&self, rhs: &Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LangError::runtime(format!(
                "matmul shape mismatch: {}x{} times {}x{}",
                self.rows, self.cols, rhs.rows, rhs.cols
            )));
        }
        Ok(())
    }

    /// The row-major data of `self × rhs`, with `rhs` packed in `L`-lane
    /// column panels and, when every rhs entry is finite, output rows
    /// computed two at a time.
    fn matmul_panels<const L: usize>(&self, rhs: &Matrix, par: Option<&ParEngine>) -> Vec<f64> {
        let panels = simd::column_panels::<L>(&rhs.data, rhs.rows, rhs.cols);
        let paired = rhs.data.iter().all(|b| b.is_finite());
        let rows = |rows: Range<usize>| {
            if paired {
                self.matmul_row_pairs::<L>(&panels, rhs.cols, rows)
            } else {
                self.matmul_rows::<L>(&panels, rhs.cols, rows)
            }
        };
        // Per output row: one madd per (k, j) pair.
        let per_row = self.cols.max(1);
        par.map_or_else(
            || rows(0..self.rows),
            |par| par.concat_chunks(self.rows, per_row, rows),
        )
    }

    /// Output rows `rows` of `self × rhs`, row-major, for a `width`-column
    /// `rhs` packed as [`simd::column_panels`] of `L` lanes. `L` output
    /// columns at a time accumulate `a[i][k] · rhs[k][..]` in registers for
    /// `k` ascending, skipping every `k` whose `a[i][k]` is zero.
    fn matmul_rows<const L: usize>(
        &self,
        panels: &[f64],
        width: usize,
        rows: Range<usize>,
    ) -> Vec<f64> {
        let inner = self.cols;
        let mut block = vec![0.0; rows.len() * width];
        if inner == 0 || width == 0 {
            return block;
        }
        let lhs = &self.data[rows.start * inner..rows.end * inner];
        for (a_row, out_row) in lhs.chunks_exact(inner).zip(block.chunks_exact_mut(width)) {
            let panels = panels.chunks_exact(inner * L);
            for (panel, out) in panels.zip(out_row.chunks_mut(L)) {
                let mut acc = [0.0; L];
                for (a, b_row) in a_row.iter().zip(panel.as_chunks::<L>().0) {
                    if *a == 0.0 {
                        continue;
                    }
                    for (o, b) in acc.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
                out.copy_from_slice(&acc[..out.len()]);
            }
        }
        block
    }

    /// [`Self::matmul_rows`] for a `rhs` whose entries are all finite, two
    /// rows at a time: each row's `k` loop is bound by add latency, so a
    /// second independent chain fills the pipeline. The zero test goes: a
    /// zero `a[i][k]` times a finite entry is `±0`, and an accumulator that
    /// starts at `+0` never becomes `-0`, so adding it is skipping it.
    /// Every output element sees the additions of [`Self::matmul_rows`]
    /// in the same order; an odd last row takes that loop.
    fn matmul_row_pairs<const L: usize>(
        &self,
        panels: &[f64],
        width: usize,
        rows: Range<usize>,
    ) -> Vec<f64> {
        let inner = self.cols;
        if inner == 0 || width == 0 {
            return vec![0.0; rows.len() * width];
        }
        let paired = rows.start + rows.len() / 2 * 2;
        let mut block = vec![0.0; rows.len() * width];
        let (pairs, last) = block.split_at_mut((paired - rows.start) * width);
        last.copy_from_slice(&self.matmul_rows::<L>(panels, width, paired..rows.end));
        let lhs = &self.data[rows.start * inner..paired * inner];
        for (a_rows, out_rows) in lhs
            .chunks_exact(2 * inner)
            .zip(pairs.chunks_exact_mut(2 * width))
        {
            let (a0, a1) = a_rows.split_at(inner);
            let (out0, out1) = out_rows.split_at_mut(width);
            let panels = panels.chunks_exact(inner * L);
            for ((panel, out0), out1) in panels.zip(out0.chunks_mut(L)).zip(out1.chunks_mut(L)) {
                let (mut acc0, mut acc1) = ([0.0; L], [0.0; L]);
                for ((x0, x1), b_row) in a0.iter().zip(a1).zip(panel.as_chunks::<L>().0) {
                    for ((o0, o1), b) in acc0.iter_mut().zip(&mut acc1).zip(b_row) {
                        *o0 += x0 * b;
                        *o1 += x1 * b;
                    }
                }
                out0.copy_from_slice(&acc0[..out0.len()]);
                out1.copy_from_slice(&acc1[..out1.len()]);
            }
        }
        block
    }

    /// Fraction of materialized entries that are non-zero.
    #[must_use]
    pub fn density(&self) -> f64 {
        let nnz = self.data.iter().filter(|x| **x != 0.0).count();
        self.density_of(nnz)
    }

    /// [`Self::density`] from an already counted number of non-zeros.
    fn density_of(&self, nnz: usize) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        nnz as f64 / self.data.len() as f64
    }

    /// Converts to CSR. The logical nnz is scaled from the *measured*
    /// density of the materialized block.
    #[must_use]
    pub fn to_csr(&self) -> Csr {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0u32);
        // Returns the non-zeros stored so far: the next row pointer.
        let mut push_nonzeros = |cells: &[f64], first_col: usize| {
            for (j, v) in cells.iter().enumerate() {
                if *v != 0.0 {
                    col_idx.push((first_col + j) as u32);
                    values.push(*v);
                }
            }
            col_idx.len() as u32
        };
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            // Eight entries a step: a group with no non-zero, most groups
            // of a sparse row, costs one branch.
            let mut groups = row.chunks_exact(8);
            let mut c = 0;
            for group in &mut groups {
                if group.iter().fold(false, |any, v| any | (*v != 0.0)) {
                    push_nonzeros(group, c);
                }
                c += 8;
            }
            row_ptr.push(push_nonzeros(groups.remainder(), c));
        }
        let logical_elems = self.logical_rows * self.logical_cols;
        let logical_nnz = ((logical_elems as f64 * self.density_of(values.len())).round() as u64)
            .max(values.len() as u64);
        Csr {
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
            rows: self.rows,
            cols: self.cols,
            logical_rows: self.logical_rows,
            logical_cols: self.logical_cols,
            logical_nnz,
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix[{}x{} (logical {}x{})]",
            self.rows, self.cols, self.logical_rows, self.logical_cols
        )
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    row_ptr: Arc<Vec<u32>>,
    col_idx: Arc<Vec<u32>>,
    values: Arc<Vec<f64>>,
    rows: usize,
    cols: usize,
    logical_rows: u64,
    logical_cols: u64,
    logical_nnz: u64,
}

impl Csr {
    /// Rebuilds a CSR matrix from its raw arrays (the inverse of reading
    /// them back via [`Csr::row_ptr`] / [`Csr::col_idx`] / [`Csr::values`]);
    /// it has one row per `row_ptr` entry after the leading zero.
    ///
    /// # Errors
    ///
    /// Returns an error when the arrays are not a well-formed CSR
    /// structure (`row_ptr` empty, not starting at zero, non-monotonic, or
    /// disagreeing with `values.len()`; column indices out of range) or the
    /// logical dimensions are smaller than the materialized ones.
    pub fn from_parts(
        row_ptr: Vec<u32>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
        cols: usize,
        logical_rows: u64,
        logical_cols: u64,
        logical_nnz: u64,
    ) -> Result<Self> {
        if row_ptr.first() != Some(&0) {
            return Err(LangError::runtime("csr row_ptr must start at 0"));
        }
        let rows = row_ptr.len() - 1;
        if row_ptr.windows(2).any(|w| w[0] > w[1])
            || row_ptr.last().copied().unwrap_or(0) as usize != values.len()
        {
            return Err(LangError::runtime("csr row_ptr is not a valid prefix sum"));
        }
        if col_idx.len() != values.len() || col_idx.iter().any(|&c| c as usize >= cols.max(1)) {
            return Err(LangError::runtime("csr col_idx out of range"));
        }
        if logical_rows < rows as u64
            || logical_cols < cols as u64
            || logical_nnz < values.len() as u64
        {
            return Err(LangError::runtime(
                "csr logical dimensions must be at least the materialized ones",
            ));
        }
        Ok(Csr {
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
            rows,
            cols,
            logical_rows,
            logical_cols,
            logical_nnz,
        })
    }

    /// The row-pointer prefix-sum array (`rows + 1` entries).
    #[must_use]
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column index of each stored non-zero.
    #[must_use]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Value of each stored non-zero.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Paper-scale column count.
    #[must_use]
    pub fn logical_cols(&self) -> u64 {
        self.logical_cols
    }

    /// Materialized row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Materialized column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Materialized non-zero count.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Paper-scale row count.
    #[must_use]
    pub fn logical_rows(&self) -> u64 {
        self.logical_rows
    }

    /// Paper-scale non-zero count.
    #[must_use]
    pub fn logical_nnz(&self) -> u64 {
        self.logical_nnz
    }

    /// The CSR matrix's part of [`crate::Value::canonical`]. Non-zeros
    /// travel as `(column, value)` pairs.
    pub(crate) fn canonical(&self, sink: &mut impl CanonicalSink) {
        sink.len(self.rows);
        sink.len(self.cols);
        sink.u64(self.logical_rows);
        sink.u64(self.logical_cols);
        sink.u64(self.logical_nnz);
        sink.len(self.row_ptr.len());
        sink.u32s(&self.row_ptr);
        sink.len(self.values.len());
        for (col, value) in self.col_idx.iter().zip(self.values.iter()) {
            sink.u32(*col);
            sink.f64(*value);
        }
    }

    /// Paper-scale data volume: 12 bytes per stored non-zero (8 value + 4
    /// column index) plus 4 bytes per row pointer.
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        self.logical_nnz * 12 + (self.logical_rows + 1) * 4
    }

    /// The serial product [`Self::spmv_with`] must equal.
    #[cfg(test)]
    fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        self.spmv_in(x, None)
    }

    /// Sparse matrix–vector product on the materialized block. Rows are
    /// chunked through the data-parallel engine and each output element is
    /// row-local, so the result is bit-identical to the serial product at
    /// any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.len() != cols`.
    pub fn spmv_with(&self, x: &[f64], par: &ParEngine) -> Result<Vec<f64>> {
        self.spmv_in(x, Some(par))
    }

    /// The shape check of `self × x` for an `x` of `len` entries.
    pub(crate) fn check_spmv(&self, len: usize) -> Result<()> {
        if len != self.cols {
            return Err(LangError::runtime(format!(
                "spmv shape mismatch: {} cols vs vector of {len}",
                self.cols
            )));
        }
        Ok(())
    }

    fn spmv_in(&self, x: &[f64], par: Option<&ParEngine>) -> Result<Vec<f64>> {
        self.check_spmv(x.len())?;
        let per_row = (self.nnz() / self.rows.max(1)).max(1);
        let rows = |rows| self.spmv_rows(x, rows);
        Ok(par.map_or_else(
            || rows(0..self.rows),
            |par| par.concat_chunks(self.rows, per_row, rows),
        ))
    }

    /// Entries `rows` of `self × x`, each row's products summed in column
    /// order.
    fn spmv_rows(&self, x: &[f64], rows: Range<usize>) -> Vec<f64> {
        rows.map(|r| {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            acc
        })
        .collect()
    }

    /// The shape checks of a PageRank step over `ranks` ranks: a square
    /// adjacency matrix and one rank per node.
    pub(crate) fn check_pagerank(&self, ranks: usize) -> Result<()> {
        if self.rows != self.cols {
            return Err(LangError::runtime(
                "pagerank needs a square adjacency matrix",
            ));
        }
        if ranks != self.rows {
            return Err(LangError::runtime(format!(
                "rank vector length {ranks} does not match {} nodes",
                self.rows
            )));
        }
        Ok(())
    }

    /// One damped PageRank iteration by the serial scatter: the path
    /// below the engagement threshold, so its float order is the one
    /// sampling measures.
    fn pagerank_step(&self, ranks: &[f64], damping: f64) -> Result<Vec<f64>> {
        self.check_pagerank(ranks.len())?;
        let n = self.rows as f64;
        Ok(self.scatter_ranks(ranks, damping, 0..self.rows, (1.0 - damping) / n))
    }

    /// Every entry starts at `base`; each source row of `rows`, in order,
    /// adds its damped share to the entries it links to, or to every entry
    /// when it is dangling (no out-edge).
    ///
    /// Done literally that is a full pass per dangling row. Instead, the
    /// entries no edge has reached yet share one running value: an entry
    /// takes its own copy at its first edge, and a dangling share is added
    /// to the running value and to each copy. Every entry so sees exactly
    /// the additions of the literal scatter, in its order, in time linear
    /// in the edges plus the dangling rows times the entries reached.
    fn scatter_ranks(
        &self,
        ranks: &[f64],
        damping: f64,
        rows: Range<usize>,
        base: f64,
    ) -> Vec<f64> {
        let n = self.rows as f64;
        let mut untouched = base;
        // Per node, its copy's index in `reached` (`u32::MAX` for none).
        let mut copy_of = vec![u32::MAX; self.rows];
        let mut reached: Vec<(u32, f64)> = Vec::new();
        for r in rows {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            if lo == hi {
                let share = damping * ranks[r] / n;
                untouched += share;
                for (_, v) in &mut reached {
                    *v += share;
                }
                continue;
            }
            let share = damping * ranks[r] / (hi - lo) as f64;
            for &c in &self.col_idx[lo..hi] {
                let copy = &mut copy_of[c as usize];
                if *copy == u32::MAX {
                    *copy = reached.len() as u32;
                    reached.push((c, untouched));
                }
                reached[*copy as usize].1 += share;
            }
        }
        let mut next = vec![untouched; self.rows];
        for (c, v) in reached {
            next[c as usize] = v;
        }
        next
    }

    /// One damped PageRank iteration over this adjacency structure
    /// (column-normalized on the fly), returning the next rank vector.
    ///
    /// Below the engagement threshold this is the serial scatter. Above it,
    /// source rows are chunked; each chunk scatters its contributions into
    /// a private dense partial vector, and partials are combined **in chunk
    /// order** onto the `(1 - damping) / n` base. Chunk boundaries depend
    /// only on the graph shape, so the reassociated sums are identical at
    /// any thread count (though they may differ from the serial scatter
    /// order in the last ulp, deterministically so).
    ///
    /// # Errors
    ///
    /// Returns an error if `ranks.len() != rows` or the matrix is not
    /// square.
    pub fn pagerank_step_with(
        &self,
        ranks: &[f64],
        damping: f64,
        par: &ParEngine,
    ) -> Result<Vec<f64>> {
        self.check_pagerank(ranks.len())?;
        let n = self.rows as f64;
        let per_row = (self.nnz() / self.rows.max(1)).max(1) + 1;
        let Some(parts) = par.map_chunks(self.rows, per_row, |_, rows| {
            self.scatter_ranks(ranks, damping, rows, 0.0)
        }) else {
            return self.pagerank_step(ranks, damping);
        };
        let mut next = vec![(1.0 - damping) / n; self.rows];
        for partial in parts {
            for (o, v) in next.iter_mut().zip(&partial) {
                *o += v;
            }
        }
        Ok(next)
    }
}

impl fmt::Display for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "csr[{}x{}, nnz {} (logical nnz {})]",
            self.rows,
            self.cols,
            self.nnz(),
            self.logical_nnz
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense() -> Matrix {
        // 2x3 with two zeros.
        Matrix::new(vec![1.0, 0.0, 2.0, 0.0, 3.0, 4.0], 2, 3).expect("matrix")
    }

    #[test]
    fn construction_validates_shape() {
        assert!(Matrix::new(vec![1.0; 5], 2, 3).is_err());
        assert!(Matrix::with_logical(vec![1.0; 6], 2, 3, 1, 3).is_err());
    }

    #[test]
    fn a_relabelled_matrix_is_the_matrix_built_at_that_length() {
        use crate::canonical::Fingerprinter;
        use crate::Value;
        let data: Vec<f64> = (0..24).map(|i| f64::from(i % 7) * 0.5).collect();
        let stored = Matrix::with_logical(data.clone(), 6, 4, 6, 9).expect("stored");
        for logical in [6, 7, 6_000_000_000] {
            let relabelled = stored.with_logical_rows(logical).expect("relabelled");
            let built = Matrix::with_logical(data.clone(), 6, 4, logical, 9).expect("built");
            assert_eq!(relabelled, built, "6 -> {logical}");
            assert_eq!(relabelled.virtual_bytes(), built.virtual_bytes());
            assert_eq!(
                Fingerprinter::digest(&Value::Matrix(relabelled.clone())),
                Fingerprinter::digest(&Value::Matrix(built))
            );
            assert!(Arc::ptr_eq(&relabelled.data, &stored.data));
        }
        let below = stored
            .with_logical_rows(5)
            .expect_err("below the materialized rows");
        let built = Matrix::with_logical(data, 6, 4, 5, 9).expect_err("below");
        assert_eq!(below.to_string(), built.to_string());
    }

    #[test]
    fn matmul_small_case() {
        let a = Matrix::new(vec![1.0, 2.0, 3.0, 4.0], 2, 2).expect("a");
        let b = Matrix::new(vec![5.0, 6.0, 7.0, 8.0], 2, 2).expect("b");
        let c = a.matmul(&b).expect("c");
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_composes_logical_dims() {
        let a = Matrix::with_logical(vec![1.0; 4], 2, 2, 2000, 2000).expect("a");
        let b = Matrix::with_logical(vec![1.0; 4], 2, 2, 2000, 2000).expect("b");
        let c = a.matmul(&b).expect("c");
        assert_eq!(c.logical_rows(), 2000);
        assert_eq!(c.logical_cols(), 2000);
    }

    #[test]
    fn matmul_shape_mismatch_rejected() {
        let a = Matrix::new(vec![1.0; 6], 2, 3).expect("a");
        let b = Matrix::new(vec![1.0; 4], 2, 2).expect("b");
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn density_measures_nonzeros() {
        assert!((dense().density() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn csr_round_trip_spmv_matches_dense() {
        let m = dense();
        let csr = m.to_csr();
        assert_eq!(csr.nnz(), 4);
        let y = csr.spmv(&[1.0, 1.0, 1.0]).expect("spmv");
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn csr_logical_nnz_scales_with_density() {
        let m =
            Matrix::with_logical(vec![1.0, 0.0, 2.0, 0.0, 3.0, 4.0], 2, 3, 2000, 3000).expect("m");
        let csr = m.to_csr();
        let expected = (2000u64 * 3000) as f64 * (4.0 / 6.0);
        assert!((csr.logical_nnz() as f64 - expected).abs() < 1.0);
        // CSR volume is smaller than dense volume for sparse data.
        assert!(csr.virtual_bytes() < m.virtual_bytes() * 2);
    }

    #[test]
    fn spmv_shape_mismatch_rejected() {
        assert!(dense().to_csr().spmv(&[1.0]).is_err());
    }

    #[test]
    fn pagerank_conserves_mass() {
        // Ring graph 0->1->2->0.
        let m = Matrix::new(vec![0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0], 3, 3).expect("m");
        let csr = m.to_csr();
        let r0 = vec![1.0 / 3.0; 3];
        let r1 = csr.pagerank_step(&r0, 0.85).expect("step");
        let total: f64 = r1.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        // Symmetric ring: stationary distribution stays uniform.
        for v in &r1 {
            assert!((v - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_handles_dangling_nodes() {
        // Node 1 has no out-edges.
        let m = Matrix::new(vec![0.0, 1.0, 0.0, 0.0], 2, 2).expect("m");
        let csr = m.to_csr();
        let r1 = csr.pagerank_step(&[0.5, 0.5], 0.85).expect("step");
        let total: f64 = r1.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pagerank_rejects_non_square() {
        let csr = dense().to_csr();
        assert!(csr.pagerank_step(&[0.5, 0.5], 0.85).is_err());
    }

    /// A fresh engine of `threads` workers, run through `f`, which must
    /// take the chunked path.
    fn chunked<R>(threads: usize, f: impl FnOnce(&ParEngine) -> R) -> R {
        let engine = ParEngine::new(crate::par::ParallelPolicy::with_threads(threads));
        let out = f(&engine);
        assert!(engine.stats().par_calls > 0, "threads={threads}: chunked");
        out
    }

    /// Large enough that matmul, spmv and the PageRank step all engage
    /// the chunked path.
    const BIG: usize = 128;

    fn big() -> Matrix {
        let data: Vec<f64> = (0..BIG * BIG)
            .map(|i| {
                if i % 7 == 0 {
                    0.0
                } else {
                    ((i * 31) % 17) as f64 - 8.0
                }
            })
            .collect();
        Matrix::new(data, BIG, BIG).expect("matrix")
    }

    #[test]
    fn parallel_matmul_is_bitwise_equal_to_serial() {
        let m = big();
        let serial = m.matmul(&m).expect("serial");
        for threads in [1, 2, 8] {
            let par = chunked(threads, |e| m.matmul_with(&m, e)).expect("par");
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_spmv_is_bitwise_equal_to_serial() {
        let csr = big().to_csr();
        let x: Vec<f64> = (0..BIG).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let serial = csr.spmv(&x).expect("serial");
        for threads in [1, 2, 8] {
            let par = chunked(threads, |e| csr.spmv_with(&x, e)).expect("par");
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_pagerank_is_identical_across_thread_counts() {
        let csr = big().to_csr();
        let ranks = vec![1.0 / BIG as f64; BIG];
        let reference = chunked(1, |e| csr.pagerank_step_with(&ranks, 0.85, e)).expect("t1");
        // Bit-identical across thread counts (and mass-conserving).
        for threads in [2, 8] {
            let par = chunked(threads, |e| csr.pagerank_step_with(&ranks, 0.85, e)).expect("par");
            assert_eq!(par, reference, "threads={threads}");
        }
        let total: f64 = reference.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
    }

    #[test]
    fn below_threshold_parallel_paths_delegate_to_serial() {
        // Small shapes stay on the untouched serial paths (errors included).
        let m = dense();
        let e = ParEngine::serial();
        assert!(m.matmul_with(&m, &e).is_err(), "2x3 × 2x3 still rejected");
        let y = m.to_csr().spmv_with(&[1.0, 1.0, 1.0], &e).expect("spmv");
        assert_eq!(y, m.to_csr().spmv(&[1.0, 1.0, 1.0]).expect("serial"));
        assert_eq!(e.stats().par_calls, 0);
    }
}
