//! Kernel results shared across runs over the same buffers.
//!
//! Two heavy kernels (`kmeans_assign`, `decode`) compute a result that
//! depends only on the materialized data of their arguments, never on the
//! logical size those arguments stand for. When
//! several runs of one program read the same stored buffers at different
//! logical sizes — the sampling phase over a dataset stored once — such a
//! result is the same at every run. A [`KernelMemo`] lent to each run's
//! [`crate::Vm`] computes it once; each call still prices its own line
//! from its own logical sizes, so every [`crate::LineCost`] is the one a
//! run without the memo measures.

use crate::error::Result;
use crate::value::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One line's last result of one kernel and the arguments it was computed
/// from. Holding the arguments keeps their buffers alive, so a buffer's
/// address cannot be reused by another buffer while the entry can match.
#[derive(Debug)]
struct Entry {
    args: Vec<Value>,
    result: Arc<Vec<f64>>,
}

/// Results of label-free kernel computations, at most one per line and
/// kernel, matched by buffer identity: an entry serves a call only when
/// every bulk argument holds the very buffer the entry was computed from
/// (and every scalar argument is equal). A miss replaces the entry.
///
/// Whoever creates one decides how long reuse lasts; the sampling phase
/// keeps one for the four sample runs of a single call.
#[derive(Debug, Default)]
pub struct KernelMemo {
    entries: RefCell<BTreeMap<(usize, &'static str), Entry>>,
    hits: RefCell<BTreeMap<usize, u64>>,
}

impl KernelMemo {
    /// `compute`'s result for `kernel` on line `line` over `args`: the
    /// entry's when it was computed from the same buffers, else computed
    /// and kept in place of the line's previous entry.
    pub(crate) fn get_or_compute(
        &self,
        line: usize,
        kernel: &'static str,
        args: &[Value],
        compute: impl FnOnce() -> Result<Vec<f64>>,
    ) -> Result<Arc<Vec<f64>>> {
        let key = (line, kernel);
        let mut entries = self.entries.borrow_mut();
        if let Some(entry) = entries.get(&key).filter(|e| same_args(&e.args, args)) {
            *self.hits.borrow_mut().entry(line).or_default() += 1;
            return Ok(Arc::clone(&entry.result));
        }
        // The old entry is freed before the new result is computed.
        entries.remove(&key);
        let result = Arc::new(compute()?);
        let entry = Entry {
            args: args.to_vec(),
            result: Arc::clone(&result),
        };
        entries.insert(key, entry);
        Ok(result)
    }

    /// Calls served from an entry so far, per line; lines without a hit
    /// are absent.
    #[must_use]
    pub fn hits(&self) -> BTreeMap<usize, u64> {
        self.hits.borrow().clone()
    }
}

/// Whether two argument lists hold the same materialized data: the same
/// buffers with the same materialized shape, or bit-equal scalars. Logical
/// sizes are not compared. A value kind no memoized kernel takes never
/// matches.
fn same_args(kept: &[Value], args: &[Value]) -> bool {
    kept.len() == args.len()
        && kept.iter().zip(args).all(|pair| match pair {
            (Value::Num(a), Value::Num(b)) => a.to_bits() == b.to_bits(),
            (Value::Array(a), Value::Array(b)) => Arc::ptr_eq(a.buffer(), b.buffer()),
            (Value::Matrix(a), Value::Matrix(b)) => {
                Arc::ptr_eq(a.buffer(), b.buffer()) && (a.rows(), a.cols()) == (b.rows(), b.cols())
            }
            (Value::Encoded(a), Value::Encoded(b)) => a.same_stream(b),
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtins::Storage;
    use crate::bytecode::Vm;
    use crate::lower::lower;
    use crate::matrix::Matrix;
    use crate::parser::parse;
    use crate::value::ArrayVal;

    fn matrix(data: Vec<f64>, rows: usize, logical_rows: u64) -> Value {
        let cols = data.len() / rows;
        Value::Matrix(
            Matrix::with_logical(data, rows, cols, logical_rows, cols as u64).expect("shape"),
        )
    }

    /// `compute` as the memo sees it, counting its calls.
    fn product(memo: &KernelMemo, args: &[Value], calls: &mut u32) -> Arc<Vec<f64>> {
        memo.get_or_compute(0, "kmeans_assign", args, || {
            *calls += 1;
            Ok(vec![f64::from(*calls)])
        })
        .expect("computes")
    }

    #[test]
    fn a_relabelled_buffer_hits_and_an_equal_copy_does_not() {
        let memo = KernelMemo::default();
        let Value::Matrix(m) = matrix(vec![1.0, 2.0, 3.0, 4.0], 2, 2) else {
            unreachable!()
        };
        let mut calls = 0;
        let first = product(&memo, &[Value::Matrix(m.clone())], &mut calls);
        let relabelled = Value::Matrix(m.with_logical_rows(1 << 20).expect("rows"));
        let again = product(&memo, &[relabelled], &mut calls);
        assert!(
            Arc::ptr_eq(&first, &again),
            "same buffer, other label: shared"
        );
        assert_eq!(memo.hits(), BTreeMap::from([(0, 1)]));
        // Equal values in another buffer are another input.
        product(&memo, &[matrix(m.data().to_vec(), 2, 2)], &mut calls);
        assert_eq!((calls, memo.hits()[&0]), (2, 1));
    }

    #[test]
    fn a_freed_buffer_never_matches_the_one_allocated_after_it() {
        let memo = KernelMemo::default();
        let mut calls = 0;
        let arg = |n: usize| Value::Array(ArrayVal::new(vec![0.5; n]));
        let first = arg(1024);
        let address = first.as_array().expect("array").data().as_ptr();
        product(&memo, &[first], &mut calls);
        // The caller's handle is gone; the entry's keeps the buffer, so an
        // equal-length allocation cannot land at its address and hit.
        let second = arg(1024);
        assert_ne!(second.as_array().expect("array").data().as_ptr(), address);
        product(&memo, &[second], &mut calls);
        assert_eq!(calls, 2);
        assert!(memo.hits().is_empty());
    }

    #[test]
    fn a_miss_replaces_the_lines_entry() {
        let memo = KernelMemo::default();
        let mut calls = 0;
        let (a, b) = (matrix(vec![1.0; 4], 2, 2), matrix(vec![1.0; 4], 2, 2));
        let from_a = product(&memo, std::slice::from_ref(&a), &mut calls);
        product(&memo, std::slice::from_ref(&b), &mut calls);
        assert_eq!(
            memo.entries.borrow().len(),
            1,
            "one entry per line and kernel"
        );
        assert_eq!(Arc::strong_count(&from_a), 1, "a's entry is gone");
        // b now hits; a, replaced, misses again.
        product(&memo, &[b], &mut calls);
        product(&memo, &[a], &mut calls);
        assert_eq!((calls, memo.hits()[&0]), (3, 1));
        // Scalars match by bits; another kernel on the line has its own entry.
        let scalar = |x: f64| [Value::Num(x)];
        product(&memo, &scalar(0.0), &mut calls);
        product(&memo, &scalar(-0.0), &mut calls);
        assert_eq!(calls, 5);
        memo.get_or_compute(0, "decode", &scalar(-0.0), || Ok(Vec::new()))
            .expect("computes");
        assert_eq!(memo.entries.borrow().len(), 2);
    }

    #[test]
    fn sample_runs_sharing_a_memo_equal_runs_without_one() {
        let program = parse(
            "x = scan('x')\nw = scan('w')\ny = matmul(x, w)\ng = gram(y)\n\
             a = kmeans_assign(x, w)\ng2 = matmul(g, g)\nn = frob(g2)\n",
        )
        .expect("parses");
        let lowered = lower(&program).expect("lowers");
        let data: Vec<f64> = (0..64).map(|i| f64::from(i % 7) - 3.0).collect();
        let Value::Matrix(x) = matrix(data, 16, 16) else {
            unreachable!()
        };
        let w = matrix((0..16).map(f64::from).collect(), 4, 4);
        let memo = KernelMemo::default();
        for logical_rows in [16, 1 << 10, 1 << 12, 1 << 14] {
            let mut st = Storage::new();
            st.insert(
                "x",
                Value::Matrix(x.with_logical_rows(logical_rows).expect("rows")),
            );
            st.insert("w", w.clone());
            let mut shared = Vm::new(&lowered, &st).with_memo(&memo);
            let mut alone = Vm::new(&lowered, &st);
            assert_eq!(shared.run().expect("runs"), alone.run().expect("runs"));
            for target in program.targets() {
                assert_eq!(shared.var(target), alone.var(target), "{target}");
            }
        }
        // `a` reads the same buffers at every size; `matmul` and `gram`
        // compute every call.
        assert_eq!(memo.hits(), BTreeMap::from([(4, 3)]));
    }
}
