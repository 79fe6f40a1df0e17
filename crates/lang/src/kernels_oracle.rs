//! Reference forms of the row-loop kernels, and the differential test
//! that holds the production loops to them bit for bit.
//!
//! Each `*_ref` function is the plain loop — one element, one map entry,
//! one `match op` at a time — written against the public accessors of
//! [`Table`], [`Matrix`] and [`Value`]. The production kernels in
//! `builtins`, `table`, `matrix` and `interp` reorder the *work* (an index
//! built once, centroids packed into lanes, the operator chosen before the
//! loop) but never the floating-point evaluation order, so every output
//! must equal its oracle's byte for byte, at every thread count, with the
//! same chunk counters.

use crate::ast::BinOp;
use crate::builtins::{call_in, weights, BuiltinOutput, KernelCtx, Storage};
use crate::error::{LangError, Result};
use crate::forest::{Forest, Tree, TreeNode};
use crate::interp::apply_binary;
use crate::matrix::{Csr, Matrix};
use crate::par::{ParEngine, ParallelPolicy, MIN_PARALLEL_LEN};
use crate::table::{Column, Table};
use crate::value::{ArrayVal, BoolArrayVal, Value};
use isp_obs::wal::ByteWriter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------- oracles

fn group_sum_ref(args: &[Value], _ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let [k, v] = args else {
        panic!("group_sum_ref takes two arguments")
    };
    let keys = k.as_array()?;
    let vals = v.as_array()?;
    if keys.len() != vals.len() {
        return Err(LangError::runtime("group_sum: length mismatch"));
    }
    let mut groups: BTreeMap<i64, (f64, u64)> = BTreeMap::new();
    for (key, val) in keys.data().iter().zip(vals.data()) {
        // A key names a group when it rounds to an i64.
        let rounded = key.round();
        if !(-(2f64.powi(63))..2f64.powi(63)).contains(&rounded) {
            return Err(LangError::runtime(if key.is_finite() {
                format!("group_sum: key {key:e} rounds outside the i64 range")
            } else {
                format!("group_sum: key {key} is not a finite number")
            }));
        }
        let entry = groups.entry(rounded as i64).or_insert((0.0, 0));
        entry.0 += *val;
        entry.1 += 1;
    }
    let ratio = keys.scale_ratio();
    let mut gk = Vec::with_capacity(groups.len());
    let mut gs = Vec::with_capacity(groups.len());
    let mut gc = Vec::with_capacity(groups.len());
    for (key, (sum, count)) in &groups {
        gk.push(*key as f64);
        gs.push(sum * ratio);
        gc.push((*count as f64 * ratio).round());
    }
    let table = Table::new(vec![
        ("key".into(), Column::F64(Arc::new(gk))),
        ("sum".into(), Column::F64(Arc::new(gs))),
        ("count".into(), Column::F64(Arc::new(gc))),
    ])?;
    Ok(BuiltinOutput {
        value: Value::Table(table),
        ops: keys.logical_len() * weights::GROUP,
        storage_bytes: 0,
    })
}

fn gather_ref(column: &Column, keep: &[bool]) -> Column {
    match column {
        Column::F64(v) => Column::F64(Arc::new(
            v.iter()
                .zip(keep)
                .filter(|(_, k)| **k)
                .map(|(x, _)| *x)
                .collect(),
        )),
        Column::Dict { codes, dict } => Column::Dict {
            codes: Arc::new(
                codes
                    .iter()
                    .zip(keep)
                    .filter(|(_, k)| **k)
                    .map(|(c, _)| *c)
                    .collect(),
            ),
            dict: Arc::clone(dict),
        },
    }
}

fn gather_with_ref(column: &Column, keep: &[bool], par: &ParEngine) -> Column {
    fn chunked<T: Copy + Send + Sync>(
        rows: &[T],
        keep: &[bool],
        par: &ParEngine,
    ) -> Option<Vec<T>> {
        par.map_chunks(rows.len(), 1, |_, r| {
            rows[r.clone()]
                .iter()
                .zip(&keep[r])
                .filter(|(_, k)| **k)
                .map(|(x, _)| *x)
                .collect::<Vec<T>>()
        })
        .map(|parts| parts.concat())
    }
    match column {
        Column::F64(v) => match chunked(v, keep, par) {
            Some(out) => Column::F64(Arc::new(out)),
            None => gather_ref(column, keep),
        },
        Column::Dict { codes, dict } => match chunked(codes, keep, par) {
            Some(out) => Column::Dict {
                codes: Arc::new(out),
                dict: Arc::clone(dict),
            },
            None => gather_ref(column, keep),
        },
    }
}

/// `Table::filter` (no engine) and `Table::filter_reading` over the gathers
/// above.
fn filter_ref(table: &Table, keep: &[bool], par: Option<&ParEngine>) -> Result<Table> {
    if keep.len() != table.rows() {
        return Err(LangError::runtime(format!(
            "mask length {} does not match table rows {}",
            keep.len(),
            table.rows()
        )));
    }
    let kept = keep.iter().filter(|k| **k).count();
    let selectivity = if table.rows() == 0 {
        0.0
    } else {
        kept as f64 / table.rows() as f64
    };
    let logical = (table.logical_rows() as f64 * selectivity)
        .round()
        .max(kept as f64) as u64;
    let columns: Vec<(String, Column)> = table
        .column_names()
        .map(|n| {
            let c = table.column(n).expect("a listed column");
            let gathered = match par {
                Some(par) => gather_with_ref(c, keep, par),
                None => gather_ref(c, keep),
            };
            (n.to_owned(), gathered)
        })
        .collect();
    Table::with_logical_rows(columns, logical)
}

/// `col` with every column, `F64` included, converted into a fresh buffer.
fn col_ref(args: &[Value], _ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let [t, c] = args else {
        panic!("col_ref takes two arguments")
    };
    let table = t.as_table()?;
    let column = table.column(c.as_str()?)?;
    let data: Vec<f64> = match column {
        Column::F64(v) => v.to_vec(),
        Column::Dict { codes, .. } => codes.iter().map(|c| f64::from(*c)).collect(),
    };
    Ok(BuiltinOutput {
        value: Value::Array(ArrayVal::with_logical(data, table.logical_rows())),
        ops: table.logical_rows() * weights::VIEW,
        storage_bytes: 0,
    })
}

fn select_ref(args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let [a, m] = args else {
        panic!("select_ref takes two arguments")
    };
    let arr = a.as_array()?;
    let mask = m.as_bool_array()?;
    if arr.len() != mask.len() {
        return Err(LangError::runtime(format!(
            "select: array has {} elements, mask has {}",
            arr.len(),
            mask.len()
        )));
    }
    let xs = arr.data();
    let keep = mask.data();
    let data: Vec<f64> = match ctx.par.map_chunks(xs.len(), 1, |_, r| {
        xs[r.clone()]
            .iter()
            .zip(&keep[r])
            .filter(|(_, k)| **k)
            .map(|(x, _)| *x)
            .collect::<Vec<f64>>()
    }) {
        Some(parts) => parts.concat(),
        None => xs
            .iter()
            .zip(keep)
            .filter(|(_, k)| **k)
            .map(|(x, _)| *x)
            .collect(),
    };
    let logical =
        ((arr.logical_len() as f64 * mask.selectivity()).round() as u64).max(data.len() as u64);
    Ok(BuiltinOutput {
        value: Value::Array(ArrayVal::with_logical(data, logical)),
        ops: arr.logical_len() * weights::SELECT,
        storage_bytes: 0,
    })
}

fn kmeans_assign_ref(args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let [p, c] = args else {
        panic!("kmeans_assign_ref takes two arguments")
    };
    let points = p.as_matrix()?;
    let centroids = c.as_matrix()?;
    if points.cols() != centroids.cols() {
        return Err(LangError::runtime("kmeans_assign: dimension mismatch"));
    }
    let nearest = |i: usize| -> f64 {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for kc in 0..centroids.rows() {
            let mut d = 0.0;
            for j in 0..points.cols() {
                let diff = points.get(i, j) - centroids.get(kc, j);
                d += diff * diff;
            }
            if d < best_d {
                best_d = d;
                best = kc;
            }
        }
        best as f64
    };
    let per_row = centroids.rows().saturating_mul(points.cols()).max(1);
    let assign: Vec<f64> = match ctx.par.map_chunks(points.rows(), per_row, |_, rows| {
        rows.map(nearest).collect::<Vec<f64>>()
    }) {
        Some(parts) => parts.concat(),
        None => (0..points.rows()).map(nearest).collect(),
    };
    let ops =
        weights::KMEANS * points.logical_rows() * centroids.rows() as u64 * points.cols() as u64;
    Ok(BuiltinOutput {
        value: Value::Array(ArrayVal::with_logical(assign, points.logical_rows())),
        ops,
        storage_bytes: 0,
    })
}

fn kmeans_update_ref(args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let [p, a, k] = args else {
        panic!("kmeans_update_ref takes three arguments")
    };
    let points = p.as_matrix()?;
    let assign = a.as_array()?;
    let k = k.as_num()? as usize;
    if assign.len() != points.rows() {
        return Err(LangError::runtime(
            "kmeans_update: assignment length mismatch",
        ));
    }
    if k == 0 {
        return Err(LangError::runtime("kmeans_update: k must be positive"));
    }
    // A cluster no point names has no mean.
    if let Some(c) = (0..k).find(|c| !assign.data().iter().any(|a| *a as usize == *c)) {
        return Err(LangError::runtime(format!(
            "kmeans_update: cluster {c} has no point assigned"
        )));
    }
    let d = points.cols();
    let accumulate = |rows: std::ops::Range<usize>| -> Result<(Vec<f64>, Vec<u64>)> {
        let mut sums = vec![0.0; k * d];
        let mut counts = vec![0u64; k];
        for i in rows {
            let c = assign.data()[i] as usize;
            if c >= k {
                return Err(LangError::runtime(format!(
                    "kmeans_update: assignment {c} out of range for k={k}"
                )));
            }
            counts[c] += 1;
            for j in 0..d {
                sums[c * d + j] += points.get(i, j);
            }
        }
        Ok((sums, counts))
    };
    let (mut sums, counts) = match ctx
        .par
        .map_chunks(points.rows(), d.max(1), |_, rows| accumulate(rows))
    {
        Some(parts) => {
            let mut sums = vec![0.0; k * d];
            let mut counts = vec![0u64; k];
            for part in parts {
                let (ps, pc) = part?;
                for (o, v) in sums.iter_mut().zip(&ps) {
                    *o += v;
                }
                for (o, v) in counts.iter_mut().zip(&pc) {
                    *o += v;
                }
            }
            (sums, counts)
        }
        None => accumulate(0..points.rows())?,
    };
    for c in 0..k {
        for j in 0..d {
            sums[c * d + j] /= counts[c] as f64;
        }
    }
    Ok(BuiltinOutput {
        value: Value::Matrix(Matrix::new(sums, k, d)?),
        ops: weights::REDUCE * points.logical_rows() * d as u64,
        storage_bytes: 0,
    })
}

fn forest_score_ref(args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let [f, x] = args else {
        panic!("forest_score_ref takes two arguments")
    };
    let forest = f.as_forest()?;
    let feats = x.as_matrix()?;
    let cols = feats.cols();
    let score_range = |rows: std::ops::Range<usize>| -> (Vec<f64>, u64) {
        let mut scores = Vec::with_capacity(rows.len());
        let mut visited: u64 = 0;
        let mut row = vec![0.0; cols];
        for i in rows {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = feats.get(i, j);
            }
            let (s, v) = forest.score(&row);
            scores.push(s);
            visited += u64::from(v);
        }
        (scores, visited)
    };
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
    let mean_visited = if feats.rows() == 0 {
        0.0
    } else {
        visited_total as f64 / feats.rows() as f64
    };
    let ops =
        (weights::TREE_NODE as f64 * mean_visited * feats.logical_rows() as f64).round() as u64;
    Ok(BuiltinOutput {
        value: Value::Array(ArrayVal::with_logical(scores, feats.logical_rows())),
        ops,
        storage_bytes: 0,
    })
}

fn gram_ref(args: &[Value], ctx: &KernelCtx<'_>) -> Result<BuiltinOutput> {
    let [a] = args else {
        panic!("gram_ref takes one argument")
    };
    let m = a.as_matrix()?;
    let (n, d) = (m.rows(), m.cols());
    let accumulate = |acc: &mut Vec<f64>, rows: std::ops::Range<usize>| {
        for r in rows {
            for i in 0..d {
                let x = m.get(r, i);
                if x == 0.0 {
                    continue;
                }
                for j in 0..d {
                    acc[i * d + j] += x * m.get(r, j);
                }
            }
        }
    };
    let mut out = match ctx.par.map_chunks(n, d, |_, rows| {
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
    let ratio = m.logical_rows() as f64 / n.max(1) as f64;
    for v in &mut out {
        *v *= ratio;
    }
    Ok(BuiltinOutput {
        value: Value::Matrix(Matrix::new(out, d, d)?),
        ops: weights::MADD * m.logical_rows() * (d as u64) * (d as u64),
        storage_bytes: 0,
    })
}

fn matmul_ref(lhs: &Matrix, rhs: &Matrix) -> Result<Matrix> {
    if lhs.cols() != rhs.rows() {
        return Err(LangError::runtime(format!(
            "matmul shape mismatch: {}x{} times {}x{}",
            lhs.rows(),
            lhs.cols(),
            rhs.rows(),
            rhs.cols()
        )));
    }
    let mut out = vec![0.0; lhs.rows() * rhs.cols()];
    for i in 0..lhs.rows() {
        for k in 0..lhs.cols() {
            let a = lhs.data()[i * lhs.cols() + k];
            if a == 0.0 {
                continue;
            }
            for j in 0..rhs.cols() {
                out[i * rhs.cols() + j] += a * rhs.data()[k * rhs.cols() + j];
            }
        }
    }
    Matrix::with_logical(
        out,
        lhs.rows(),
        rhs.cols(),
        lhs.logical_rows(),
        rhs.logical_cols(),
    )
}

fn matmul_with_ref(lhs: &Matrix, rhs: &Matrix, par: &ParEngine) -> Result<Matrix> {
    if lhs.cols() != rhs.rows() {
        return Err(LangError::runtime(format!(
            "matmul shape mismatch: {}x{} times {}x{}",
            lhs.rows(),
            lhs.cols(),
            rhs.rows(),
            rhs.cols()
        )));
    }
    let per_row = lhs.cols().max(1);
    let Some(blocks) = par.map_chunks(lhs.rows(), per_row, |_, rows| {
        let mut block = vec![0.0; rows.len() * rhs.cols()];
        for (bi, i) in rows.enumerate() {
            for k in 0..lhs.cols() {
                let a = lhs.data()[i * lhs.cols() + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols() {
                    block[bi * rhs.cols() + j] += a * rhs.data()[k * rhs.cols() + j];
                }
            }
        }
        block
    }) else {
        return matmul_ref(lhs, rhs);
    };
    let mut out = Vec::with_capacity(lhs.rows() * rhs.cols());
    for block in blocks {
        out.extend_from_slice(&block);
    }
    Matrix::with_logical(
        out,
        lhs.rows(),
        rhs.cols(),
        lhs.logical_rows(),
        rhs.logical_cols(),
    )
}

fn density_ref(m: &Matrix) -> f64 {
    if m.data().is_empty() {
        return 0.0;
    }
    let nnz = m.data().iter().filter(|x| **x != 0.0).count();
    nnz as f64 / m.data().len() as f64
}

fn to_csr_ref(m: &Matrix) -> Csr {
    let mut row_ptr = Vec::with_capacity(m.rows() + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0u32);
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            let v = m.data()[r * m.cols() + c];
            if v != 0.0 {
                col_idx.push(c as u32);
                values.push(v);
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    let logical_elems = m.logical_rows() * m.logical_cols();
    let logical_nnz =
        ((logical_elems as f64 * density_ref(m)).round() as u64).max(values.len() as u64);
    Csr::from_parts(
        row_ptr,
        col_idx,
        values,
        m.cols(),
        m.logical_rows(),
        m.logical_cols(),
        logical_nnz,
    )
    .expect("a scan of a dense matrix is a well-formed CSR")
}

/// Source rows `rows` of one damped PageRank step scattered onto `base`
/// literally: each dangling row adds its share to all `n` entries.
fn pagerank_rows_ref(
    csr: &Csr,
    ranks: &[f64],
    damping: f64,
    rows: std::ops::Range<usize>,
    base: f64,
) -> Vec<f64> {
    let n = csr.rows() as f64;
    let (row_ptr, col_idx) = (csr.row_ptr(), csr.col_idx());
    let mut next = vec![base; csr.rows()];
    for r in rows {
        let (lo, hi) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
        if lo == hi {
            let share = damping * ranks[r] / n;
            for v in &mut next {
                *v += share;
            }
            continue;
        }
        let share = damping * ranks[r] / (hi - lo) as f64;
        for k in lo..hi {
            next[col_idx[k] as usize] += share;
        }
    }
    next
}

fn pagerank_step_with_ref(
    csr: &Csr,
    ranks: &[f64],
    damping: f64,
    par: &ParEngine,
) -> Result<Vec<f64>> {
    if csr.rows() != csr.cols() {
        return Err(LangError::runtime(
            "pagerank needs a square adjacency matrix",
        ));
    }
    if ranks.len() != csr.rows() {
        return Err(LangError::runtime(format!(
            "rank vector length {} does not match {} nodes",
            ranks.len(),
            csr.rows()
        )));
    }
    let n = csr.rows() as f64;
    let per_row = (csr.nnz() / csr.rows().max(1)).max(1) + 1;
    let Some(parts) = par.map_chunks(csr.rows(), per_row, |_, rows| {
        pagerank_rows_ref(csr, ranks, damping, rows, 0.0)
    }) else {
        let base = (1.0 - damping) / n;
        return Ok(pagerank_rows_ref(csr, ranks, damping, 0..csr.rows(), base));
    };
    let mut next = vec![(1.0 - damping) / n; csr.rows()];
    for partial in parts {
        for (o, v) in next.iter_mut().zip(&partial) {
            *o += v;
        }
    }
    Ok(next)
}

fn arith_ref(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => unreachable!("arith called with {op:?}"),
    }
}

fn cmp_ref(op: BinOp, a: f64, b: f64) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => unreachable!("cmp called with {op:?}"),
    }
}

/// `interp::apply_binary` with the operator matched once per element.
fn apply_binary_ref(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => match (l, r) {
            (Value::Num(a), Value::Num(b)) => Ok(Value::Num(arith_ref(op, *a, *b))),
            (Value::Array(a), Value::Num(b)) => Ok(Value::Array(ArrayVal::with_logical(
                a.data().iter().map(|x| arith_ref(op, *x, *b)).collect(),
                a.logical_len(),
            ))),
            (Value::Num(a), Value::Array(b)) => Ok(Value::Array(ArrayVal::with_logical(
                b.data().iter().map(|x| arith_ref(op, *a, *x)).collect(),
                b.logical_len(),
            ))),
            (Value::Array(a), Value::Array(b)) => {
                if a.len() != b.len() {
                    return Err(LangError::runtime(format!(
                        "elementwise {} on arrays of length {} and {}",
                        op.symbol(),
                        a.len(),
                        b.len()
                    )));
                }
                Ok(Value::Array(ArrayVal::with_logical(
                    a.data()
                        .iter()
                        .zip(b.data())
                        .map(|(x, y)| arith_ref(op, *x, *y))
                        .collect(),
                    a.logical_len().max(b.logical_len()),
                )))
            }
            (l, r) => Err(LangError::type_error(format!(
                "cannot apply {} to {} and {}",
                op.symbol(),
                l.type_name(),
                r.type_name()
            ))),
        },
        Lt | Le | Gt | Ge | Eq | Ne => match (l, r) {
            (Value::Num(a), Value::Num(b)) => Ok(Value::Bool(cmp_ref(op, *a, *b))),
            (Value::Array(a), Value::Num(b)) => Ok(Value::BoolArray(BoolArrayVal::with_logical(
                a.data().iter().map(|x| cmp_ref(op, *x, *b)).collect(),
                a.logical_len(),
            ))),
            (Value::Num(a), Value::Array(b)) => Ok(Value::BoolArray(BoolArrayVal::with_logical(
                b.data().iter().map(|x| cmp_ref(op, *a, *x)).collect(),
                b.logical_len(),
            ))),
            (Value::Array(a), Value::Array(b)) => {
                if a.len() != b.len() {
                    return Err(LangError::runtime(format!(
                        "comparison {} on arrays of length {} and {}",
                        op.symbol(),
                        a.len(),
                        b.len()
                    )));
                }
                Ok(Value::BoolArray(BoolArrayVal::with_logical(
                    a.data()
                        .iter()
                        .zip(b.data())
                        .map(|(x, y)| cmp_ref(op, *x, *y))
                        .collect(),
                    a.logical_len().max(b.logical_len()),
                )))
            }
            (l, r) => Err(LangError::type_error(format!(
                "cannot compare {} and {}",
                l.type_name(),
                r.type_name()
            ))),
        },
        And | Or => {
            let f = |a: bool, b: bool| match op {
                BinOp::And => a && b,
                BinOp::Or => a || b,
                _ => unreachable!("logical called with {op:?}"),
            };
            match (l, r) {
                (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(f(*a, *b))),
                (Value::BoolArray(a), Value::BoolArray(b)) => {
                    if a.len() != b.len() {
                        return Err(LangError::runtime(format!(
                            "logical {} on masks of length {} and {}",
                            op.symbol(),
                            a.len(),
                            b.len()
                        )));
                    }
                    Ok(Value::BoolArray(BoolArrayVal::with_logical(
                        a.data()
                            .iter()
                            .zip(b.data())
                            .map(|(x, y)| f(*x, *y))
                            .collect(),
                        a.logical_len().max(b.logical_len()),
                    )))
                }
                (Value::BoolArray(a), Value::Bool(b)) => {
                    Ok(Value::BoolArray(BoolArrayVal::with_logical(
                        a.data().iter().map(|x| f(*x, *b)).collect(),
                        a.logical_len(),
                    )))
                }
                (Value::Bool(a), Value::BoolArray(b)) => {
                    Ok(Value::BoolArray(BoolArrayVal::with_logical(
                        b.data().iter().map(|x| f(*a, *x)).collect(),
                        b.logical_len(),
                    )))
                }
                (l, r) => Err(LangError::type_error(format!(
                    "cannot apply {} to {} and {}",
                    op.symbol(),
                    l.type_name(),
                    r.type_name()
                ))),
            }
        }
    }
}

// ------------------------------------------------------------- the harness

/// Thread counts every engine-taking kernel is compared at.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Seeded cases per kernel family; the test asserts it ran this many, and
/// each engine-taking family pins how many of them took the chunked path.
const CASES: usize = 96;

/// What a case's floats may contain. NaNs that meet in one addition must
/// share a payload for "bit for bit" to be well defined (x86 keeps the
/// first operand's payload, and operand order is the compiler's choice),
/// so a case holds the literal `f64::NAN` or the operands that make the
/// hardware's default NaN (`inf - inf`, `0 * inf`), never both.
#[derive(Clone, Copy, PartialEq)]
enum Flavour {
    Finite,
    WithNan,
    WithInf,
}

fn flavour(case: usize) -> Flavour {
    [Flavour::Finite, Flavour::WithNan, Flavour::WithInf][case % 3]
}

fn float(rng: &mut StdRng, flavour: Flavour) -> f64 {
    match rng.gen_range(0..16u32) {
        0 => -0.0,
        1 => 0.0,
        2 if flavour == Flavour::WithNan => f64::NAN,
        2 | 3 if flavour == Flavour::WithInf => {
            [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)]
        }
        4 => rng.gen_range(-4..5i64) as f64,
        _ => rng.gen_range(-1.0e3..1.0e3),
    }
}

fn floats(rng: &mut StdRng, n: usize, flavour: Flavour) -> Vec<f64> {
    (0..n).map(|_| float(rng, flavour)).collect()
}

/// Row counts around the chunk grid and the lane width: empty, one row,
/// not a multiple of 8, straddling one and several 4096-element chunks.
fn rows(rng: &mut StdRng, case: usize) -> usize {
    const EDGES: [usize; 12] = [0, 1, 2, 7, 8, 9, 63, 2047, 2048, 4097, 8191, 9001];
    match EDGES.get(case) {
        Some(n) => *n,
        None => rng.gen_range(0..12_000usize),
    }
}

/// Row counts for the families that take an engine: empty, one row, not
/// a multiple of 8, either side of the engagement threshold
/// ([`MIN_PARALLEL_LEN`]), straddling three and several 4096-element
/// chunks; then seeded ones, one in sixteen below the threshold and the
/// others past it.
fn engine_rows(rng: &mut StdRng, case: usize) -> usize {
    const EDGES: [usize; 12] = [0, 1, 2, 7, 8, 9, 63, 8191, 8192, 8193, 12_289, 36_001];
    match EDGES.get(case) {
        Some(n) => *n,
        None if case.is_multiple_of(16) => rng.gen_range(0..MIN_PARALLEL_LEN),
        None => rng.gen_range(MIN_PARALLEL_LEN..32_768),
    }
}

/// Masks: all false, all true, then seeded selectivities.
fn mask(rng: &mut StdRng, case: usize, n: usize) -> Vec<bool> {
    match case % 8 {
        0 => vec![false; n],
        1 => vec![true; n],
        _ => {
            let p = rng.gen_range(0.0..1.0);
            (0..n).map(|_| rng.gen_bool(p)).collect()
        }
    }
}

/// A row cap for items of `width` elements: `floor` rows, or more where
/// that many narrow rows would not reach twice the engagement threshold.
fn wide_enough(width: usize, floor: usize) -> usize {
    (2 * MIN_PARALLEL_LEN / width.max(1)).max(floor)
}

fn engine(threads: usize) -> ParEngine {
    ParEngine::new(ParallelPolicy::with_threads(threads))
}

/// The canonical bytes of a value: floats as bit patterns, so `-0.0`,
/// `0.0` and every NaN payload stay apart.
fn bytes(value: &Value) -> Vec<u8> {
    let mut w = ByteWriter::default();
    value.canonical(&mut w);
    w.into_bytes()
}

fn assert_same_value(new: &Result<Value>, old: &Result<Value>, what: &str) {
    match (new, old) {
        (Ok(new), Ok(old)) => assert!(bytes(new) == bytes(old), "{what}: values differ"),
        (Err(new), Err(old)) => assert_eq!(new.to_string(), old.to_string(), "{what}"),
        (new, old) => panic!("{what}: new {new:?}, oracle {old:?}"),
    }
}

fn assert_same_output(new: Result<BuiltinOutput>, old: Result<BuiltinOutput>, what: &str) {
    if let (Ok(new), Ok(old)) = (&new, &old) {
        assert_eq!(new.ops, old.ops, "{what}: ops");
        assert_eq!(
            new.storage_bytes, old.storage_bytes,
            "{what}: storage bytes"
        );
    }
    assert_same_value(&new.map(|o| o.value), &old.map(|o| o.value), what);
}

/// Whether a kernel call through `par` took the chunked path.
fn chunked(par: &ParEngine) -> bool {
    par.stats().par_calls > 0
}

/// Runs builtin `name` and `oracle` on `args` at every thread count, each
/// on a fresh engine, and holds values, costs and chunk counters equal.
/// Returns whether the call took the chunked path (at every thread count
/// alike: the grid is the data's).
fn check_kernel(
    name: &str,
    oracle: fn(&[Value], &KernelCtx<'_>) -> Result<BuiltinOutput>,
    args: &[Value],
    what: &str,
) -> bool {
    let storage = Storage::new();
    let mut took = false;
    for threads in THREADS {
        let (new_par, old_par) = (engine(threads), engine(threads));
        let new = call_in(
            name,
            args,
            &KernelCtx {
                storage: &storage,
                par: &new_par,
                groups: None,
                memo: None,
                columns: None,
            },
        );
        let old = oracle(
            args,
            &KernelCtx {
                storage: &storage,
                par: &old_par,
                groups: None,
                memo: None,
                columns: None,
            },
        );
        let what = format!("{name} {what} @ {threads} threads");
        assert_same_output(new, old, &what);
        assert_eq!(new_par.stats(), old_par.stats(), "{what}: chunk counters");
        took = chunked(&new_par);
    }
    took
}

fn array(data: Vec<f64>, scale: u64) -> Value {
    let logical = data.len() as u64 * scale;
    Value::Array(ArrayVal::with_logical(data, logical))
}

fn matrix(rng: &mut StdRng, rows: usize, cols: usize, flavour: Flavour, zeros: f64) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(zeros) {
                0.0
            } else {
                float(rng, flavour)
            }
        })
        .collect();
    Matrix::with_logical(data, rows, cols, rows as u64 * 3, cols as u64 * 2).expect("matrix")
}

// ------------------------------------------------------------------ tests

#[test]
fn round_to_i64_is_round_then_cast() {
    let mut rng = StdRng::seed_from_u64(0x0607);
    let two52 = 4_503_599_627_370_496.0_f64;
    let mut probes = vec![
        0.0,
        -0.0,
        0.5,
        -0.5,
        0.499_999_999_999_999_94,
        -0.499_999_999_999_999_94,
        1.5,
        2.5,
        -2.5,
        two52 - 0.5,
        two52 - 1.0,
        two52,
        two52 + 1.0,
        -(two52 - 0.5),
        two52 * 2.0 + 2.0,
        9.3e18,
        -9.3e18,
        i64::MAX as f64,
        i64::MIN as f64,
        1.0e19,
        -1.0e19,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for _ in 0..20_000 {
        // Every exponent, so halves, wholes and huge values all occur.
        let magnitude = f64::from_bits(rng.gen_range(0..0x7FF0_0000_0000_0000u64));
        probes.push(if rng.gen_bool(0.5) {
            magnitude
        } else {
            -magnitude
        });
        let whole = rng.gen_range(-1_000_000..1_000_000i64) as f64;
        probes.push(whole + [0.0, 0.25, 0.5, 0.75][rng.gen_range(0..4usize)]);
    }
    for x in probes {
        assert_eq!(
            crate::builtins::round_to_i64(x),
            x.round() as i64,
            "x = {x:e} ({:#x})",
            x.to_bits()
        );
    }
}

#[test]
fn group_sum_matches_the_ordered_map() {
    let mut rng = StdRng::seed_from_u64(0x6507);
    let mut ran = 0;
    for case in 0..CASES {
        let n = rows(&mut rng, case);
        let flavour = flavour(case);
        // Key shapes: a handful of groups (Q1), runs of one key, more than
        // 1024 distinct keys (the index grows seven times), negative and
        // beyond-2^32 keys, halves that round away from zero, negative
        // zero and the ends of the i64 range.
        let keys: Vec<f64> = (0..n)
            .map(|i| match case % 6 {
                0 => rng.gen_range(0..6i64) as f64,
                1 => (i / 37) as f64 - 20.0,
                2 => rng.gen_range(-3000..3000i64) as f64,
                3 => rng.gen_range(-8..8i64) as f64 * 4_294_967_296.5,
                4 => rng.gen_range(-9..9i64) as f64 * 0.5,
                _ => match rng.gen_range(0..8u32) {
                    0 => -(2f64.powi(63)),
                    1 => 2f64.powi(63) - 1024.0,
                    2 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                },
            })
            .collect();
        let vals = floats(&mut rng, n, flavour);
        let args = [array(keys, 1 + case as u64 % 5), array(vals, 1)];
        check_kernel("group_sum", group_sum_ref, &args, &format!("case {case}"));
        ran += 1;
    }
    // A NaN, infinite or past-i64 key names no group: one at a seeded row
    // of an otherwise finite run is refused, by both, with the same message.
    for (case, bad) in REFUSED_KEYS.into_iter().cycle().take(12).enumerate() {
        let n = rng.gen_range(1..3000usize);
        let mut keys: Vec<f64> = (0..n).map(|_| rng.gen_range(0..6i64) as f64).collect();
        let row = rng.gen_range(0..n);
        keys[row] = bad;
        let vals = floats(&mut rng, n, flavour(case));
        let args = [array(keys, 1), array(vals, 1)];
        let what = format!("refused case {case}: {bad} at row {row} of {n}");
        check_kernel("group_sum", group_sum_ref, &args, &what);
    }
    // A column of whole keys in 0..=255 (`-0.0` among them) takes the
    // direct table; one key outside it anywhere (past 255, negative, a
    // half, a fraction that rounds into 0..=255) sends the whole column to
    // the hashed index.
    let mut small_columns = 0;
    for case in 0..24 {
        let n = rng.gen_range(1..3000usize);
        let mut keys: Vec<f64> = (0..n).map(|_| rng.gen_range(0..256i64) as f64).collect();
        keys[rng.gen_range(0..n)] = -0.0;
        if case % 4 != 0 {
            for _ in 0..rng.gen_range(1..5) {
                let outside = [256.0, -1.0, 255.5, 255.4, 2.5, -0.4, 1.0e6, 4_294_967_296.0];
                keys[rng.gen_range(0..n)] = outside[rng.gen_range(0..outside.len())];
            }
        }
        small_columns += usize::from(
            keys.iter()
                .all(|k| (0.0..256.0).contains(k) && k.fract() == 0.0),
        );
        let vals = floats(&mut rng, n, flavour(case));
        let args = [array(keys, 1 + case as u64 % 3), array(vals, 1)];
        check_kernel(
            "group_sum",
            group_sum_ref,
            &args,
            &format!("mixed case {case}"),
        );
    }
    assert_eq!(small_columns, 6, "direct-table columns");
    let short = [array(vec![1.0, 2.0], 1), array(vec![1.0], 1)];
    check_kernel("group_sum", group_sum_ref, &short, "length mismatch");
    assert_eq!(ran, CASES);
}

/// Keys `group_sum` refuses: NaN, both infinities, and finite keys whose
/// rounded value is outside [-2^63, 2^63).
const REFUSED_KEYS: [f64; 6] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0e300,
    9_223_372_036_854_775_808.0,
    -1.0e19,
];

/// Keys for the sequence test, by `shape`: a handful of groups, runs of
/// one key, thousands of distinct keys, and the values rounding treats
/// specially (both zeros, halves, 2^53 and its neighbour, the ends of the
/// i64 range).
fn sequence_keys(rng: &mut StdRng, shape: usize, n: usize) -> Vec<f64> {
    const SPECIAL: [f64; 9] = [
        0.0,
        -0.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        -9_007_199_254_740_992.0,
        0.5,
        -0.5,
        -9_223_372_036_854_775_808.0,
        9_223_372_036_854_774_784.0,
    ];
    (0..n)
        .map(|i| match shape % 4 {
            0 => rng.gen_range(0..6i64) as f64,
            1 => (i / 37) as f64 - 20.0,
            2 => rng.gen_range(-3000..3000i64) as f64,
            _ => SPECIAL[rng.gen_range(0..SPECIAL.len())],
        })
        .collect()
}

/// The evaluators keep the index of the last key buffer `group_sum` read
/// and lend it to the next call. Whatever a sequence of calls hits, misses
/// or evicts, every call through one `Vm` and one `Interpreter` must equal
/// the ordered map's answer for its two arguments alone.
#[test]
fn group_sum_sequences_match_the_ordered_map_call_by_call() {
    const SEED: u64 = 0x6508;
    // Reads of one line: `None` for a line that calls no `group_sum`.
    type Step = (String, Option<(&'static str, &'static str)>);
    let call = |k: &'static str, v: &'static str| -> Step {
        (format!("r = group_sum({k}, {v})\n"), Some((k, v)))
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut ran = 0;
    for case in 0..CASES {
        let what = format!("seed {SEED:#x} case {case}");
        let n = rows(&mut rng, case).min(3000);
        let scale = 1 + case as u64 % 5;
        let keys = sequence_keys(&mut rng, case, n);
        let mut storage = Storage::new();
        // `k0` and `k1` hold equal contents in two buffers; `k2` differs;
        // `kn` is `k0` with a refused key at one seeded row.
        let mut refused = keys.clone();
        if n > 0 {
            refused[rng.gen_range(0..n)] = REFUSED_KEYS[case % REFUSED_KEYS.len()];
        }
        storage.insert("k0", array(keys.clone(), scale));
        storage.insert("k1", array(keys, scale));
        storage.insert("kn", array(refused, scale));
        storage.insert("k2", array(sequence_keys(&mut rng, case + 1, n), 1));
        storage.insert("v0", array(floats(&mut rng, n, flavour(case)), 1));
        storage.insert("v1", array(floats(&mut rng, n, flavour(case)), 1));
        storage.insert("short", array(floats(&mut rng, n + 1, Flavour::Finite), 1));
        storage.insert("e", array(Vec::new(), 1));
        let mut steps: Vec<Step> = ["k0", "k1", "k2", "kn", "v0", "v1", "short", "e"]
            .iter()
            .map(|name| (format!("{name} = scan('{name}')\n"), None))
            .collect();
        steps.extend([
            // One buffer five times.
            call("k0", "v0"),
            call("k0", "v1"),
            call("k0", "k0"),
            call("k0", "v0"),
            call("k0", "v1"),
            // Equal contents in another buffer, and back.
            call("k1", "v0"),
            call("k0", "v0"),
            // Two keys alternating: the one entry is evicted every call.
            call("k2", "v0"),
            call("k0", "v1"),
            call("k2", "v1"),
            call("k0", "v0"),
            // A refused key between two uses of the kept one.
            call("kn", "v0"),
            call("k0", "v0"),
            call("kn", "v1"),
            // A hit with values of the wrong length is still refused.
            call("k0", "short"),
            call("k0", "v1"),
            // A reassigned key is a new buffer.
            ("k0 = k0 + 0\n".to_owned(), None),
            call("k0", "v1"),
            call("k0", "v0"),
            // The empty key between two uses of a long one.
            call("e", "e"),
            call("k0", "v0"),
            call("e", "short"),
        ]);
        for _ in 0..6 {
            let key = ["k0", "k1", "k2", "kn", "e"][rng.gen_range(0..5usize)];
            let val = ["v0", "v1", "short", "e", "k0"][rng.gen_range(0..5usize)];
            steps.push(call(key, val));
        }
        let source: String = steps.iter().map(|(line, _)| line.as_str()).collect();
        let program = crate::parser::parse(&source).expect("parses");
        let lowered = crate::lower::lower(&program).expect("lowers");
        let mut vm = crate::Vm::new(&lowered, &storage);
        let mut interp = crate::Interpreter::new(&storage);
        for (line, (text, reads)) in program.lines().iter().zip(&steps) {
            let what = format!("{what}, line {} `{}`", line.index, text.trim_end());
            let oracle = reads.map(|(k, v)| {
                let args = [k, v].map(|name| interp.var(name).expect("scanned").clone());
                group_sum_ref(&args, &KernelCtx::serial(&storage))
            });
            let from_vm = vm.exec_line(line.index);
            let from_interp = interp.exec_line(line, false);
            let value = |cost: &Result<_>, var: Option<&Value>| {
                cost.clone().map(|_| var.expect("assigned").clone())
            };
            let vm_value = value(&from_vm, vm.var(&line.target));
            let interp_value = value(&from_interp, interp.var(&line.target));
            assert_same_value(&vm_value, &interp_value, &what);
            if let (Ok(vm_cost), Ok(interp_cost)) = (&from_vm, &from_interp) {
                assert_eq!(vm_cost, interp_cost, "{what}: costs");
            }
            if let Some(oracle) = oracle {
                if let (Ok(cost), Ok(oracle)) = (&from_vm, &oracle) {
                    assert_eq!(cost.compute_ops, oracle.ops, "{what}: ops");
                }
                assert_same_value(&vm_value, &oracle.map(|o| o.value), &what);
            }
        }
        ran += 1;
    }
    assert_eq!(ran, CASES);
}

fn table(rng: &mut StdRng, n: usize, flavour: Flavour) -> Table {
    let columns = vec![
        (
            "a".to_owned(),
            Column::F64(Arc::new(floats(rng, n, flavour))),
        ),
        (
            "c".to_owned(),
            Column::Dict {
                codes: Arc::new((0..n).map(|_| rng.gen_range(0..3u32)).collect()),
                dict: Arc::new(vec!["x".into(), "y".into(), "z".into()]),
            },
        ),
        (
            "d".to_owned(),
            Column::F64(Arc::new(floats(rng, n, flavour))),
        ),
    ];
    Table::with_logical_rows(columns, n as u64 * 1000 + 17).expect("table")
}

#[test]
fn filter_and_select_match_the_zip_gather() {
    let mut rng = StdRng::seed_from_u64(0xF117);
    let (mut ran, mut filter_chunked, mut select_chunked) = (0, 0, 0);
    for case in 0..CASES {
        let n = engine_rows(&mut rng, case);
        let flavour = flavour(case);
        let keep = mask(&mut rng, case, n);
        let t = table(&mut rng, n, flavour);
        let what = format!("case {case} ({n} rows)");

        let serial = t.filter(&keep).map(Value::Table);
        let serial_ref = filter_ref(&t, &keep, None).map(Value::Table);
        assert_same_value(&serial, &serial_ref, &format!("filter {what}"));
        for threads in THREADS {
            let (new_par, old_par) = (engine(threads), engine(threads));
            let new = t.filter_reading(&keep, &new_par, None).map(Value::Table);
            let old = filter_ref(&t, &keep, Some(&old_par)).map(Value::Table);
            let what = format!("filter_reading {what} @ {threads} threads");
            assert_same_value(&new, &old, &what);
            // The serial filter is the same rows again.
            assert_same_value(&new, &serial, &what);
            assert_eq!(new_par.stats(), old_par.stats(), "{what}: chunk counters");
            if threads == 1 {
                filter_chunked += usize::from(chunked(&new_par));
            }
        }

        let args = [
            array(floats(&mut rng, n, flavour), 3),
            Value::BoolArray(BoolArrayVal::with_logical(keep, n as u64 * 3)),
        ];
        select_chunked += usize::from(check_kernel("select", select_ref, &args, &what));
        ran += 1;
    }
    // Wrong-length masks are refused, as before.
    let t = table(&mut rng, 5, Flavour::Finite);
    let new = t.filter(&[true; 4]).map(Value::Table);
    let old = filter_ref(&t, &[true; 4], None).map(Value::Table);
    assert!(new.is_err());
    assert_same_value(&new, &old, "filter, short mask");
    let par = engine(2);
    let new = t.filter_reading(&[true; 6], &par, None).map(Value::Table);
    let old = filter_ref(&t, &[true; 6], Some(&par)).map(Value::Table);
    assert_same_value(&new, &old, "filter_reading, long mask");
    let args = [
        array(vec![1.0, 2.0], 1),
        Value::BoolArray(BoolArrayVal::new(vec![true])),
    ];
    check_kernel("select", select_ref, &args, "length mismatch");
    assert_eq!(ran, CASES);
    assert_eq!((filter_chunked, select_chunked), (83, 83), "chunked cases");
}

#[test]
fn kmeans_matches_the_per_element_loops() {
    let mut rng = StdRng::seed_from_u64(0x4D3A);
    let (mut ran, mut assign_chunked, mut update_chunked) = (0, 0, 0);
    for case in 0..CASES {
        let flavour = flavour(case);
        // k and d around the eight-lane panel width, down to one cluster,
        // one dimension and no dimension at all.
        let k = [1, 2, 7, 8, 9, 16, 17, 3][case % 8];
        let d = [8, 1, 3, 0, 5, 2, 9, 16][(case / 2) % 8];
        let n = engine_rows(&mut rng, case).min(wide_enough(d, 3000));
        let points = matrix(&mut rng, n, d, flavour, 0.05);
        let centroids = matrix(&mut rng, k, d, flavour, 0.05);
        let what = format!("case {case} ({n} points, k={k}, d={d})");
        let assign_args = [Value::Matrix(points.clone()), Value::Matrix(centroids)];
        assign_chunked += usize::from(check_kernel(
            "kmeans_assign",
            kmeans_assign_ref,
            &assign_args,
            &what,
        ));

        // Valid assignments (fractions truncate, as before), sometimes a
        // value past the last cluster.
        let assign: Vec<f64> = (0..n)
            .map(|_| {
                let c = rng.gen_range(0..k) as f64;
                match rng.gen_range(0..400u32) {
                    0 if case % 4 == 3 => k as f64 + 2.0,
                    1..=40 => c + 0.75,
                    _ => c,
                }
            })
            .collect();
        let out_of_range = assign.iter().any(|a| *a >= k as f64);
        let update_args = [
            Value::Matrix(points),
            array(assign, 1),
            Value::Num(k as f64),
        ];
        if out_of_range {
            // Both refuse; the wording of the value differs (`10` / `10.75`).
            let storage = Storage::new();
            let ctx = KernelCtx::serial(&storage);
            assert!(call_in("kmeans_update", &update_args, &ctx).is_err());
            assert!(kmeans_update_ref(&update_args, &ctx).is_err());
        } else {
            update_chunked += usize::from(check_kernel(
                "kmeans_update",
                kmeans_update_ref,
                &update_args,
                &what,
            ));
        }
        ran += 1;
    }
    let mismatch = [
        Value::Matrix(matrix(&mut rng, 4, 3, Flavour::Finite, 0.0)),
        Value::Matrix(matrix(&mut rng, 2, 2, Flavour::Finite, 0.0)),
    ];
    check_kernel(
        "kmeans_assign",
        kmeans_assign_ref,
        &mismatch,
        "dimension mismatch",
    );
    assert_eq!(ran, CASES);
    assert_eq!((assign_chunked, update_chunked), (88, 66), "chunked cases");
}

#[test]
fn matmul_and_to_csr_match_the_indexed_loops() {
    let mut rng = StdRng::seed_from_u64(0x6E44);
    let (mut ran, mut matmul_chunked, mut paired) = (0, 0, (0, 0));
    for case in 0..CASES {
        let flavour = flavour(case);
        // Output widths around the eight-lane panel, a 0-column product
        // and a 0-length inner dimension.
        let inner = [64, 1, 5, 0, 9, 16, 3, 33][case % 8];
        let width = [4, 8, 1, 5, 0, 9, 17, 2][(case / 3) % 8];
        let n = engine_rows(&mut rng, case).min(wide_enough(inner, 700));
        let zeros = [0.0, 0.3, 0.9][case % 3];
        let lhs = matrix(&mut rng, n, inner, flavour, zeros);
        let rhs = matrix(&mut rng, inner, width, flavour, 0.1);
        // A rhs of finite entries takes the row-pair loop; an odd row
        // count leaves it a last single row.
        if rhs.data().iter().all(|x| x.is_finite()) {
            paired.0 += 1;
            paired.1 += usize::from(n % 2 == 1);
        }
        let what = format!("case {case} ({n}x{inner} times {inner}x{width})");

        let serial = lhs.matmul(&rhs).map(Value::Matrix);
        let serial_ref = matmul_ref(&lhs, &rhs).map(Value::Matrix);
        assert_same_value(&serial, &serial_ref, &format!("matmul {what}"));
        for threads in THREADS {
            let (new_par, old_par) = (engine(threads), engine(threads));
            let new = lhs.matmul_with(&rhs, &new_par).map(Value::Matrix);
            let old = matmul_with_ref(&lhs, &rhs, &old_par).map(Value::Matrix);
            let what = format!("matmul_with {what} @ {threads} threads");
            assert_same_value(&new, &old, &what);
            assert_eq!(new_par.stats(), old_par.stats(), "{what}: chunk counters");
            if threads == 1 {
                matmul_chunked += usize::from(chunked(&new_par));
            }
        }

        // Row widths that are not a multiple of the eight-entry scan step,
        // from dense to nearly empty.
        let cols = [0, 1, 7, 8, 9, 24, 31, 100][case % 8];
        let density = [1.0, 0.5, 0.97, 0.999][(case / 8) % 4];
        let m = matrix(&mut rng, n, cols, flavour, density);
        let what = format!("case {case} ({n}x{cols})");
        let new = Value::Csr(m.to_csr());
        let old = Value::Csr(to_csr_ref(&m));
        assert!(bytes(&new) == bytes(&old), "to_csr {what}");
        assert_eq!(
            m.density().to_bits(),
            density_ref(&m).to_bits(),
            "density {what}"
        );
        ran += 1;
    }
    let (a, b) = (
        matrix(&mut rng, 2, 3, Flavour::Finite, 0.0),
        matrix(&mut rng, 2, 3, Flavour::Finite, 0.0),
    );
    let new = a.matmul_with(&b, &engine(2)).map(Value::Matrix);
    let old = matmul_with_ref(&a, &b, &engine(2)).map(Value::Matrix);
    assert!(new.is_err());
    assert_same_value(&new, &old, "matmul shape mismatch");
    assert_eq!(ran, CASES);
    assert_eq!(matmul_chunked, 89, "chunked cases");
    assert_eq!(paired, (58, 14), "row-pair cases, odd-row ones");

    // The registered MatrixMul projection: what its `y = matmul(a, w)`
    // computes, a 4-column rhs in 4-lane panels.
    let w = isp_workloads::by_name("MatrixMul").expect("registered");
    let lhs = registered_matrix(&w, "features64");
    let rhs = registered_matrix(&w, "proj_weights");
    assert_eq!((lhs.rows(), lhs.cols(), rhs.cols()), (2048, 64, 4));
    let serial = lhs.matmul(&rhs).map(Value::Matrix);
    assert_same_value(
        &serial,
        &matmul_ref(&lhs, &rhs).map(Value::Matrix),
        "MatrixMul",
    );
    for threads in THREADS {
        let (new_par, old_par) = (engine(threads), engine(threads));
        let new = lhs.matmul_with(&rhs, &new_par).map(Value::Matrix);
        let old = matmul_with_ref(&lhs, &rhs, &old_par).map(Value::Matrix);
        let what = format!("MatrixMul @ {threads} threads");
        assert_same_value(&new, &old, &what);
        assert_eq!(new_par.stats(), old_par.stats(), "{what}: chunk counters");
    }
}

/// A value for a feature, a threshold or a leaf: half the time one of the
/// case's few `pool` values, so features land exactly on thresholds.
fn pooled(rng: &mut StdRng, pool: &[f64], flavour: Flavour) -> f64 {
    if rng.gen_bool(0.5) {
        pool[rng.gen_range(0..pool.len())]
    } else {
        float(rng, flavour)
    }
}

/// A split on a column inside, at or past `cols`, children on either side.
fn split(rng: &mut StdRng, cols: usize, threshold: f64, near: u32, far: u32) -> TreeNode {
    let feature = match rng.gen_range(0..12u32) {
        0 => u32::MAX,
        _ => rng.gen_range(0..cols as u32 + 3),
    };
    if rng.gen_bool(0.5) {
        TreeNode::split(feature, threshold, near, far)
    } else {
        TreeNode::split(feature, threshold, far, near)
    }
}

/// One tree per `shape`: complete with 0–4 split levels (0 is a single
/// leaf), ragged with leaves at mixed depths, or a 40-deep chain.
fn tree(rng: &mut StdRng, shape: usize, cols: usize, pool: &[f64], flavour: Flavour) -> Tree {
    let mut nodes = Vec::new();
    if shape == 6 {
        for link in 0..39u32 {
            let threshold = pooled(rng, pool, flavour);
            nodes.push(split(rng, cols, threshold, 2 * link + 1, 2 * link + 2));
            nodes.push(TreeNode::leaf(pooled(rng, pool, flavour)));
        }
        nodes.push(TreeNode::leaf(pooled(rng, pool, flavour)));
        return Tree::new(nodes).expect("chain");
    }
    let (levels, leaf_odds) = if shape < 5 { (shape, 0.0) } else { (7, 0.3) };
    // Breadth first: a split appends its two children, so they sit forward.
    let mut level_of = vec![0usize];
    nodes.push(TreeNode::leaf(0.0));
    let mut i = 0;
    while i < nodes.len() {
        let value = pooled(rng, pool, flavour);
        nodes[i] = if level_of[i] == levels || rng.gen_bool(leaf_odds) {
            TreeNode::leaf(value)
        } else {
            let child = nodes.len() as u32;
            nodes.extend([TreeNode::leaf(0.0); 2]);
            level_of.extend([level_of[i] + 1; 2]);
            split(rng, cols, value, child, child + 1)
        };
        i += 1;
    }
    Tree::new(nodes).expect("tree")
}

#[test]
fn forest_score_matches_the_row_at_a_time_walk() {
    // Row counts around the eight-row block and the engagement threshold
    // (256 rows of 32 features engage, 255 do not), then seeded ones whose
    // chunks end on a partial block.
    const ROWS: [usize; 9] = [0, 1, 7, 8, 9, 255, 256, 257, 9000];
    let mut rng = StdRng::seed_from_u64(0xF0E5);
    let (mut ran, mut chunked_cases) = (0, 0);
    for case in 0..CASES {
        let flavour = flavour(case);
        let n = match ROWS.get(case % 12) {
            Some(n) => *n,
            None => rng.gen_range(0..20_000usize),
        };
        let cols = [32, 1, 0, 32, 32, 1, 32][case % 7];
        let pool = floats(&mut rng, 6, flavour);
        let trees: Vec<Tree> = (0..1 + case % 12)
            .map(|t| tree(&mut rng, (case + 3 * t) % 7, cols, &pool, flavour))
            .collect();
        let what = format!("case {case} ({n}x{cols}, {} trees)", trees.len());
        // The model's own feature count is not the matrix's, two cases in
        // three; nothing reads it.
        let forest = Forest::new(trees, cols as u32 + case as u32 % 3).expect("forest");
        let data = (0..n * cols)
            .map(|_| pooled(&mut rng, &pool, flavour))
            .collect();
        let feats =
            Matrix::with_logical(data, n, cols, n as u64 * 3 + 2, cols as u64).expect("features");
        let args = [Value::Forest(forest), Value::Matrix(feats)];
        chunked_cases += usize::from(check_kernel("forest_score", forest_score_ref, &args, &what));
        ran += 1;
    }
    assert_eq!(ran, CASES);
    assert_eq!(chunked_cases, 40, "chunked cases");

    // The registered LightGBM inputs. `isp-workloads` links the non-test
    // build of this crate, whose types are not the ones under test, so the
    // model and the matrix are rebuilt here from their public parts.
    let w = isp_workloads::by_name("LightGBM").expect("registered");
    let storage = w.storage_at(1.0);
    let model = storage.get("gbm_model").expect("model");
    let model = model.as_forest().expect("forest");
    let trees = model
        .trees()
        .iter()
        .map(|t| {
            let nodes = t.nodes().iter().map(|n| TreeNode {
                feature: n.feature,
                threshold: n.threshold,
                left: n.left,
                right: n.right,
                value: n.value,
            });
            Tree::new(nodes.collect()).expect("tree")
        })
        .collect();
    let forest = Forest::new(trees, model.feature_count()).expect("forest");
    assert_eq!((forest.tree_count(), forest.node_count()), (10, 310));
    let feats = registered_matrix(&w, "features");
    assert_eq!((feats.rows(), feats.cols()), (2048, 32));
    let args = [Value::Forest(forest), Value::Matrix(feats)];
    check_kernel("forest_score", forest_score_ref, &args, "LightGBM");

    let not_a_model = [args[1].clone(), args[1].clone()];
    check_kernel("forest_score", forest_score_ref, &not_a_model, "no forest");
}

/// Dataset `name` of a registered workload at scale 1.0, as this build's
/// [`Matrix`] (see the note in the forest test).
fn registered_matrix(w: &isp_workloads::Workload, name: &str) -> Matrix {
    let storage = w.storage_at(1.0);
    let m = storage.get(name).expect("dataset");
    let m = m.as_matrix().expect("matrix");
    Matrix::with_logical(
        m.data().to_vec(),
        m.rows(),
        m.cols(),
        m.logical_rows(),
        m.logical_cols(),
    )
    .expect("matrix")
}

#[test]
fn gram_matches_the_indexed_loops() {
    let mut rng = StdRng::seed_from_u64(0x64A3);
    let (mut ran, mut chunked_cases, mut paired) = (0, 0, (0, 0));
    for case in 0..CASES {
        let flavour = flavour(case);
        // Widths around the eight-lane vector width, down to no column at
        // all; zeros (skipped, which shows next to an inf or NaN partner)
        // from none to most of the matrix.
        let d = [8, 0, 1, 7, 9][case % 5];
        let n = match case % 4 {
            0 => [0, 1, 4000][(case / 4) % 3],
            _ => rng.gen_range(0..20_000usize),
        };
        let zeros = [0.0, 0.3, 0.9][(case / 3) % 3];
        let m = matrix(&mut rng, n, d, flavour, zeros);
        // Every entry finite takes the row-pair loop; an odd row count
        // leaves it a last single row.
        if m.data().iter().all(|x| x.is_finite()) {
            paired.0 += 1;
            paired.1 += usize::from(n % 2 == 1);
        }
        let what = format!("case {case} ({n}x{d})");
        chunked_cases += usize::from(check_kernel("gram", gram_ref, &[Value::Matrix(m)], &what));
        ran += 1;
    }
    assert_eq!(ran, CASES);
    assert_eq!(chunked_cases, 63, "chunked cases");
    assert_eq!(paired, (50, 27), "row-pair cases, odd-row ones");

    // The registered MixedGEMM projection: what its `g = gram(y)` reads.
    let w = isp_workloads::by_name("MixedGEMM").expect("registered");
    let x = registered_matrix(&w, "mixed_features");
    let y = x
        .matmul(&registered_matrix(&w, "mixed_proj"))
        .expect("projection");
    assert_eq!((y.rows(), y.cols()), (2048, 8));
    check_kernel("gram", gram_ref, &[Value::Matrix(y)], "MixedGEMM");
}

/// A graph of `n` nodes from per-row out-edge lists, each sorted and
/// without repeats (an empty list is a dangling row).
fn graph(n: usize, edges: &[Vec<u32>]) -> Csr {
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    for row in edges {
        col_idx.extend_from_slice(row);
        row_ptr.push(col_idx.len() as u32);
    }
    let values = vec![1.0; col_idx.len()];
    let nnz = values.len() as u64;
    Csr::from_parts(row_ptr, col_idx, values, n, n as u64, n as u64, nnz).expect("graph")
}

/// Out-edge lists of `n` nodes: each row dangling with probability
/// `dangling`, otherwise one to four distinct targets.
fn random_edges(rng: &mut StdRng, n: usize, dangling: f64) -> Vec<Vec<u32>> {
    (0..n)
        .map(|_| {
            if rng.gen_bool(dangling) {
                return Vec::new();
            }
            let mut row: Vec<u32> = (0..rng.gen_range(1..5))
                .map(|_| rng.gen_range(0..n as u32))
                .collect();
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect()
}

#[test]
fn pagerank_step_matches_the_dense_scatter() {
    let mut rng = StdRng::seed_from_u64(0x9A6E);
    let (mut ran, mut chunked_cases) = (0, 0);
    for case in 0..CASES {
        let flavour = flavour(case);
        // Edge graphs: none, one dangling node, one self-linked node, a
        // ring (no dangling row), all rows dangling (small and past the
        // engagement threshold), and dangling rows before and after the
        // first edges into nodes 3 and 7; then seeded graphs, one in four
        // past the threshold.
        let edges = match case {
            0 => Vec::new(),
            1 => vec![Vec::new()],
            2 => vec![vec![0]],
            3 => (0..64).map(|r| vec![(r + 1) % 64]).collect(),
            4 => vec![Vec::new(); 300],
            5 => vec![Vec::new(); 4200],
            6 => (0..40u32)
                .map(|r| match r {
                    10 => vec![3, 7],
                    20 => vec![3],
                    30 => vec![0, 7, 39],
                    _ => Vec::new(),
                })
                .collect(),
            _ if case % 4 == 0 => {
                let (n, dangling) = (rng.gen_range(4100..6000), rng.gen_range(0.0..0.3));
                random_edges(&mut rng, n, dangling)
            }
            _ => {
                let (n, dangling) = (rng.gen_range(1..600), rng.gen_range(0.0..1.0));
                random_edges(&mut rng, n, dangling)
            }
        };
        let n = edges.len();
        let csr = graph(n, &edges);
        let ranks = floats(&mut rng, n, flavour);
        let damping = [0.85, rng.gen_range(0.0..1.0)][case % 2];
        let what = format!("case {case} ({n} nodes, {} edges)", csr.nnz());
        for threads in THREADS {
            let (new_par, old_par) = (engine(threads), engine(threads));
            let new = csr.pagerank_step_with(&ranks, damping, &new_par);
            let old = pagerank_step_with_ref(&csr, &ranks, damping, &old_par);
            let what = format!("{what} @ {threads} threads");
            let bits = |v: &Result<Vec<f64>>| {
                v.as_ref()
                    .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    .map_err(ToString::to_string)
            };
            assert_eq!(bits(&new), bits(&old), "{what}");
            assert_eq!(new_par.stats(), old_par.stats(), "{what}: chunk counters");
            if threads == 1 {
                chunked_cases += usize::from(chunked(&new_par));
            }
        }
        ran += 1;
    }
    // A rank vector of the wrong length and a non-square matrix are
    // refused alike.
    let square = graph(3, &[vec![1], Vec::new(), vec![0, 2]]);
    let wide = Csr::from_parts(vec![0, 1], vec![2], vec![1.0], 3, 1, 3, 1).expect("1x3");
    for (csr, ranks) in [(&square, vec![0.5; 2]), (&wide, vec![0.5])] {
        let new = csr.pagerank_step_with(&ranks, 0.85, &engine(2));
        let old = pagerank_step_with_ref(csr, &ranks, 0.85, &engine(2));
        assert_eq!(
            new.map_err(|e| e.to_string()),
            old.map_err(|e| e.to_string())
        );
    }
    assert_eq!(ran, CASES);
    assert_eq!(chunked_cases, 23, "chunked cases");
}

#[test]
fn binary_ops_match_the_per_element_match() {
    use BinOp::*;
    let mut rng = StdRng::seed_from_u64(0xB1A0);
    let mut ran = 0;
    for case in 0..CASES {
        let flavour = flavour(case);
        let n = rows(&mut rng, case).min(3000);
        let arrays = [
            array(floats(&mut rng, n, flavour), 2),
            array(floats(&mut rng, n, flavour), 3),
            array(floats(&mut rng, n + 1, flavour), 1),
        ];
        let masks = [
            Value::BoolArray(BoolArrayVal::with_logical(
                mask(&mut rng, case, n),
                n as u64 * 2,
            )),
            Value::BoolArray(BoolArrayVal::with_logical(
                mask(&mut rng, 2, n),
                n as u64 * 5,
            )),
            Value::BoolArray(BoolArrayVal::new(mask(&mut rng, 2, n + 1))),
        ];
        let scalars = [
            Value::Num(float(&mut rng, flavour)),
            Value::Num(0.0),
            Value::Bool(rng.gen_bool(0.5)),
            Value::Str("s".into()),
        ];
        let operands: Vec<&Value> = arrays.iter().chain(&masks).chain(&scalars).collect();
        for op in [Add, Sub, Mul, Div, Lt, Le, Gt, Ge, Eq, Ne, And, Or] {
            for l in &operands {
                for r in &operands {
                    let what = format!(
                        "case {case}: {} {} {}",
                        l.type_name(),
                        op.symbol(),
                        r.type_name()
                    );
                    assert_same_value(&apply_binary(op, l, r), &apply_binary_ref(op, l, r), &what);
                }
            }
        }
        ran += 1;
    }
    assert_eq!(ran, CASES);
}

#[test]
fn col_shares_an_f64_column_and_a_q6_run_cannot_tell() {
    const Q6: &str = "\
t = scan('lineitem')
d = col(t, 'shipdate')
m1 = d >= 8766
m2 = d < 9131
q = col(t, 'quantity')
m3 = q < 24
dc = col(t, 'discount')
m4 = dc >= 0.05
m5 = dc <= 0.07
m = m1 and m2 and m3 and m4 and m5
price = col(t, 'extendedprice')
rev = price * dc
sel = select(rev, m)
total = sum(sel)
rf = col(t, 'returnflag')
";
    let mut rng = StdRng::seed_from_u64(0xC01);
    let n = 3000;
    let mut column =
        |lo: f64, hi: f64| Column::F64(Arc::new((0..n).map(|_| rng.gen_range(lo..hi)).collect()));
    let lineitem = Table::with_logical_rows(
        vec![
            ("shipdate".to_owned(), column(8000.0, 10_000.0)),
            ("quantity".to_owned(), column(1.0, 50.0)),
            ("discount".to_owned(), column(0.0, 0.1)),
            ("extendedprice".to_owned(), column(900.0, 90_000.0)),
            (
                "returnflag".to_owned(),
                Column::F64(Arc::new((0..n).map(|i| (i % 3) as f64).collect())),
            ),
        ],
        3_000_000,
    )
    .expect("lineitem");
    let mut storage = Storage::new();
    storage.insert("lineitem", Value::Table(lineitem.clone()));
    let program = crate::parser::parse(Q6).expect("parse");
    let mut interp = crate::Interpreter::new(&storage);
    let records = interp.run(&program, &[]).expect("run");

    let ctx = KernelCtx::serial(&storage);
    let mut copies = BTreeMap::new();
    for (var, name) in [
        ("d", "shipdate"),
        ("q", "quantity"),
        ("dc", "discount"),
        ("price", "extendedprice"),
        ("rf", "returnflag"),
    ] {
        let shared = interp.var(var).expect("assigned");
        let args = [Value::Table(lineitem.clone()), Value::Str(name.to_owned())];
        let copied = col_ref(&args, &ctx).expect("col").value;
        match lineitem.column(name).expect("column") {
            Column::F64(buffer) => {
                assert!(shared.as_array().expect("array").shares(buffer), "{var}");
                assert!(!copied.as_array().expect("array").shares(buffer), "{var}");
            }
            // A converted column has no buffer to share.
            _ => assert_eq!(name, "returnflag"),
        }
        assert!(bytes(shared) == bytes(&copied), "{var}: values");
        assert_eq!(shared.virtual_bytes(), copied.virtual_bytes(), "{var}");
        assert_eq!(shared.virtual_bytes(), 3_000_000 * 8, "{var}");
        assert_eq!(shared.logical_elems(), 3_000_000, "{var}: logical length");
        copies.insert(var, copied);
    }
    // What the cost model sees of a `col` line is the logical volume.
    for record in records
        .iter()
        .filter(|r| copies.contains_key(r.target.as_str()))
    {
        assert_eq!(record.cost.bytes_out, 3_000_000 * 8, "{}", record.target);
        assert_eq!(record.cost.copy_bytes, 3_000_000 * 8, "{}", record.target);
    }
    // The run's answer fingerprint (every target, first-assignment order)
    // with the shared arrays and with copies in their place.
    let fingerprint = |copied: bool| {
        let mut fp = crate::Fingerprinter::default();
        for target in program.targets() {
            let value = match copies.get(target) {
                Some(copy) if copied => Some(copy),
                _ => interp.var(target),
            };
            fp.var(target, value);
        }
        fp.finish()
    };
    assert_eq!(fingerprint(false), fingerprint(true));
}
