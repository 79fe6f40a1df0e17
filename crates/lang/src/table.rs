//! Columnar tables.
//!
//! The TPC-H workloads operate on columnar relations (`lineitem`, `part`).
//! A [`Table`] owns named [`Column`]s of equal length; string-typed columns
//! are dictionary-encoded (4-byte codes plus a small dictionary), which is
//! both how real columnar engines store them and what keeps the simulated
//! data volumes honest.
//!
//! Like every bulk value in ALang, a table distinguishes its *actual* row
//! count (the rows materialized in memory, kept laptop-small) from its
//! *logical* row count (the paper-scale size used for all cost accounting).

use crate::canonical::CanonicalSink;
use crate::error::{LangError, Result};
use crate::par::ParEngine;
use crate::shape::{ColumnShape, Placeholders};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The kind tags that open a column's part of the canonical walk. Tag 1
/// is retired, not reused, so a stored byte keeps one meaning.
const F64_COLUMN: u8 = 0;
const DICT_COLUMN: u8 = 2;

/// One column of a table.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit floats (8 bytes/row).
    F64(Arc<Vec<f64>>),
    /// Dictionary-encoded strings: 4-byte codes into `dict`.
    Dict {
        /// Per-row dictionary codes.
        codes: Arc<Vec<u32>>,
        /// The dictionary, indexed by code.
        dict: Arc<Vec<String>>,
    },
}

impl Column {
    /// Number of materialized rows.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
        }
    }

    /// Whether the column has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per row of this column's physical encoding.
    #[must_use]
    pub fn bytes_per_row(&self) -> u64 {
        match self {
            Column::F64(_) => 8,
            Column::Dict { .. } => 4,
        }
    }

    /// The rows named by `rows` (ascending row numbers), in that order.
    /// Through an engaged engine each chunk of the row grid gathers the
    /// part of `rows` that falls inside it; concatenated in chunk order
    /// that is the whole gather again.
    fn take(&self, rows: &[usize], par: Option<&ParEngine>) -> Column {
        match self {
            Column::F64(v) => Column::F64(Arc::new(take_rows(v, rows, par))),
            Column::Dict { codes, dict } => Column::Dict {
                codes: Arc::new(take_rows(codes, rows, par)),
                dict: Arc::clone(dict),
            },
        }
    }
}

/// The ascending row numbers `keep` selects. Every row number is stored
/// at the write cursor and the cursor advances by the mask bit, so the
/// pass has no data-dependent branch to mispredict.
pub(crate) fn selected_rows(keep: &[bool]) -> Vec<usize> {
    let mut rows = vec![0usize; keep.len()];
    let mut n = 0;
    for (i, &k) in keep.iter().enumerate() {
        rows[n] = i;
        n += usize::from(k);
    }
    rows.truncate(n);
    rows
}

/// `data[r]` for each `r` of the ascending `rows`, into an exactly-sized
/// vector. With an engine, one `concat_chunks(data.len(), 1)` call whose
/// chunks each take the sub-range of `rows` inside their row range.
pub(crate) fn take_rows<T: Copy + Send + Sync>(
    data: &[T],
    rows: &[usize],
    par: Option<&ParEngine>,
) -> Vec<T> {
    let take = |rows: &[usize]| rows.iter().map(|&r| data[r]).collect::<Vec<T>>();
    par.map_or_else(
        || take(rows),
        |par| {
            par.concat_chunks(data.len(), 1, |range| {
                let lo = rows.partition_point(|&r| r < range.start);
                let hi = rows.partition_point(|&r| r < range.end);
                take(&rows[lo..hi])
            })
        },
    )
}

/// A columnar relation with a logical row count.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    columns: BTreeMap<String, Column>,
    rows: usize,
    logical_rows: u64,
}

impl Table {
    /// Builds a table from `(name, column)` pairs whose logical size equals
    /// the materialized size.
    ///
    /// # Errors
    ///
    /// Returns an error if columns have differing lengths or the list is
    /// empty.
    pub fn new(columns: Vec<(String, Column)>) -> Result<Self> {
        let rows = columns
            .first()
            .map(|(_, c)| c.len())
            .ok_or_else(|| LangError::runtime("a table needs at least one column"))?;
        Self::with_logical_rows(columns, rows as u64)
    }

    /// Builds a table whose materialized rows represent `logical_rows`
    /// paper-scale rows.
    ///
    /// # Errors
    ///
    /// Returns an error if columns have differing lengths, the list is
    /// empty, or `logical_rows` is smaller than the materialized count.
    pub fn with_logical_rows(columns: Vec<(String, Column)>, logical_rows: u64) -> Result<Self> {
        let mut map = BTreeMap::new();
        let mut rows: Option<usize> = None;
        for (name, col) in columns {
            match rows {
                None => rows = Some(col.len()),
                Some(r) if r == col.len() => {}
                Some(r) => {
                    return Err(LangError::runtime(format!(
                        "column `{name}` has {} rows, expected {r}",
                        col.len()
                    )))
                }
            }
            map.insert(name, col);
        }
        let rows = rows.ok_or_else(|| LangError::runtime("a table needs at least one column"))?;
        if logical_rows < rows as u64 {
            return Err(LangError::runtime(format!(
                "logical rows {logical_rows} smaller than materialized rows {rows}"
            )));
        }
        Ok(Table {
            columns: map,
            rows,
            logical_rows,
        })
    }

    /// Materialized row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Paper-scale row count.
    #[must_use]
    pub fn logical_rows(&self) -> u64 {
        self.logical_rows
    }

    /// Ratio `logical / materialized` (1.0 for unscaled tables).
    #[must_use]
    pub fn scale_ratio(&self) -> f64 {
        if self.rows == 0 {
            1.0
        } else {
            self.logical_rows as f64 / self.rows as f64
        }
    }

    /// Column names in sorted order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }

    /// The columns with their names, in name order.
    pub(crate) fn columns(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.columns
            .iter()
            .map(|(name, column)| (name.as_str(), column))
    }

    /// Number of columns.
    #[must_use]
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Looks up a column.
    ///
    /// # Errors
    ///
    /// Returns an error naming the missing column.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns.get(name).ok_or_else(|| {
            LangError::runtime(format!(
                "no column `{name}` (have: {})",
                self.columns.keys().cloned().collect::<Vec<_>>().join(", ")
            ))
        })
    }

    /// The table's part of [`crate::Value::canonical`]: logical rows, then
    /// each column (sorted by name) as name, kind tag, length, payload.
    pub(crate) fn canonical(&self, sink: &mut impl CanonicalSink) {
        sink.u64(self.logical_rows);
        sink.len(self.columns.len());
        for (name, column) in &self.columns {
            sink.str(name);
            match column {
                Column::F64(data) => {
                    sink.u8(F64_COLUMN);
                    sink.len(data.len());
                    sink.f64s(data);
                }
                Column::Dict { codes, dict } => {
                    sink.u8(DICT_COLUMN);
                    sink.len(codes.len());
                    sink.u32s(codes);
                    sink.len(dict.len());
                    dict.iter().for_each(|s| sink.str(s));
                }
            }
        }
    }

    /// Physical bytes per logical row across all columns.
    #[must_use]
    pub fn bytes_per_row(&self) -> u64 {
        self.columns.values().map(Column::bytes_per_row).sum()
    }

    /// Paper-scale data volume of the whole table.
    #[must_use]
    pub fn virtual_bytes(&self) -> u64 {
        self.logical_rows * self.bytes_per_row()
    }

    /// The serial filter [`Self::filter_reading`] must equal.
    #[cfg(test)]
    pub(crate) fn filter(&self, keep: &[bool]) -> Result<Table> {
        self.filter_rows(keep, None, None)
    }

    /// Filters rows by a boolean mask of materialized length; the result's
    /// logical row count shrinks by the *measured* selectivity, which is how
    /// data-dependent volume reduction stays faithful at paper scale. Each
    /// column's gather is chunked by rows through the data-parallel engine.
    /// Gathering is row-local, so the result is bit-identical to the serial
    /// filter at any thread count.
    ///
    /// Only the columns `read` names are gathered (every column when
    /// `None`); the others hold zeros ([`Placeholders`]) of their types,
    /// dictionaries and lengths.
    ///
    /// # Errors
    ///
    /// Returns an error if the mask length differs from the row count.
    pub fn filter_reading(
        &self,
        keep: &[bool],
        par: &ParEngine,
        read: Option<&BTreeSet<String>>,
    ) -> Result<Table> {
        self.filter_rows(keep, Some(par), read)
    }

    /// `filter`'s error for a mask of `len` entries, if any.
    pub(crate) fn check_mask(&self, len: usize) -> Result<()> {
        if len == self.rows {
            Ok(())
        } else {
            Err(LangError::runtime(format!(
                "mask length {len} does not match table rows {}",
                self.rows
            )))
        }
    }

    /// The logical rows left when a filter keeps `kept` of the
    /// materialized rows: the measured selectivity of the logical rows,
    /// and never fewer than `kept`.
    pub(crate) fn kept_logical_rows(&self, kept: usize) -> u64 {
        let selectivity = if self.rows == 0 {
            0.0
        } else {
            kept as f64 / self.rows as f64
        };
        (self.logical_rows as f64 * selectivity)
            .round()
            .max(kept as f64) as u64
    }

    /// The selected row numbers are found once and every read column
    /// gathers by them.
    fn filter_rows(
        &self,
        keep: &[bool],
        par: Option<&ParEngine>,
        read: Option<&BTreeSet<String>>,
    ) -> Result<Table> {
        self.check_mask(keep.len())?;
        let rows = selected_rows(keep);
        let mut zeros = Placeholders::default();
        let columns: Vec<(String, Column)> = self
            .columns
            .iter()
            .map(|(n, c)| {
                let column = if read.is_none_or(|read| read.contains(n)) {
                    c.take(&rows, par)
                } else {
                    zeros.column(ColumnShape::of(c), rows.len())
                };
                (n.clone(), column)
            })
            .collect();
        Table::with_logical_rows(columns, self.kept_logical_rows(rows.len()))
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "table[{} cols x {} rows (logical {})]",
            self.columns.len(),
            self.rows,
            self.logical_rows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::with_logical_rows(
            vec![
                (
                    "qty".into(),
                    Column::F64(Arc::new(vec![1.0, 30.0, 10.0, 50.0])),
                ),
                (
                    "flag".into(),
                    Column::F64(Arc::new(vec![0.0, 1.0, 0.0, 1.0])),
                ),
                (
                    "kind".into(),
                    Column::Dict {
                        codes: Arc::new(vec![0, 1, 0, 1]),
                        dict: Arc::new(vec!["PROMO".into(), "OTHER".into()]),
                    },
                ),
            ],
            4000,
        )
        .expect("table")
    }

    #[test]
    fn construction_and_metadata() {
        let t = t();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.logical_rows(), 4000);
        assert!((t.scale_ratio() - 1000.0).abs() < 1e-9);
        assert_eq!(t.column_count(), 3);
        // 8 + 8 + 4 bytes per row.
        assert_eq!(t.bytes_per_row(), 20);
        assert_eq!(t.virtual_bytes(), 4000 * 20);
    }

    #[test]
    fn mismatched_columns_rejected() {
        let e = Table::new(vec![
            ("a".into(), Column::F64(Arc::new(vec![1.0]))),
            ("b".into(), Column::F64(Arc::new(vec![1.0, 2.0]))),
        ])
        .unwrap_err();
        assert!(format!("{e}").contains("rows"));
    }

    #[test]
    fn empty_table_rejected() {
        assert!(Table::new(vec![]).is_err());
    }

    #[test]
    fn filter_scales_logical_rows_by_selectivity() {
        let t = t();
        let filtered = t.filter(&[true, false, true, false]).expect("filter");
        assert_eq!(filtered.rows(), 2);
        // Selectivity 0.5 => logical 2000.
        assert_eq!(filtered.logical_rows(), 2000);
        match filtered.column("qty").expect("qty") {
            Column::F64(v) => assert_eq!(**v, vec![1.0, 10.0]),
            other => panic!("wrong column type {other:?}"),
        }
    }

    #[test]
    fn filter_preserves_dictionary() {
        let t = t();
        let filtered = t.filter(&[false, true, false, true]).expect("filter");
        match filtered.column("kind").expect("kind") {
            Column::Dict { codes, dict } => {
                assert_eq!(**codes, vec![1, 1]);
                assert_eq!(dict[1], "OTHER");
            }
            other => panic!("wrong column type {other:?}"),
        }
    }

    #[test]
    fn a_filter_reading_some_columns_gathers_those_and_zeros_the_rest() {
        let t = t();
        let keep = [false, true, true, true];
        let full = t.filter(&keep).expect("filter");
        let read = BTreeSet::from(["qty".to_owned()]);
        let par = ParEngine::serial_ref();
        let some = t.filter_reading(&keep, par, Some(&read)).expect("filter");
        assert_eq!(
            some.column("qty").expect("qty"),
            full.column("qty").expect("qty")
        );
        assert_eq!(
            (some.rows(), some.logical_rows(), some.virtual_bytes()),
            (full.rows(), full.logical_rows(), full.virtual_bytes())
        );
        match (some.column("flag"), some.column("kind")) {
            (Ok(Column::F64(flag)), Ok(Column::Dict { codes, dict })) => {
                assert_eq!(**flag, [0.0; 3]);
                assert_eq!(**codes, [0; 3]);
                assert_eq!(dict[0], "PROMO", "the dictionary is kept");
            }
            other => panic!("wrong column types {other:?}"),
        }
        assert_eq!(t.filter_reading(&keep, par, None).expect("filter"), full);
        let err = t.filter_reading(&[true], par, Some(&read)).unwrap_err();
        assert_eq!(err, t.filter(&[true]).unwrap_err());
    }

    #[test]
    fn filter_rejects_bad_mask_length() {
        assert!(t().filter(&[true]).is_err());
    }

    #[test]
    fn missing_column_error_lists_alternatives() {
        let e = t().column("nope").unwrap_err();
        assert!(format!("{e}").contains("qty"));
    }

    #[test]
    fn parallel_filter_is_bitwise_equal_to_serial() {
        let n = 20_000usize;
        let table = Table::with_logical_rows(
            vec![
                (
                    "qty".into(),
                    Column::F64(Arc::new((0..n).map(|i| (i % 50) as f64).collect())),
                ),
                (
                    "flag".into(),
                    Column::F64(Arc::new((0..n).map(|i| (i % 3) as f64).collect())),
                ),
                (
                    "kind".into(),
                    Column::Dict {
                        codes: Arc::new((0..n).map(|i| (i % 2) as u32).collect()),
                        dict: Arc::new(vec!["PROMO".into(), "OTHER".into()]),
                    },
                ),
            ],
            1_000_000,
        )
        .expect("table");
        let keep: Vec<bool> = (0..n).map(|i| i % 7 != 0).collect();
        let serial = table.filter(&keep).expect("serial");
        for threads in [1, 2, 8] {
            let par = ParEngine::new(crate::par::ParallelPolicy::with_threads(threads));
            let filtered = table.filter_reading(&keep, &par, None).expect("par");
            assert_eq!(filtered, serial, "threads={threads}");
            assert!(par.stats().par_calls >= 1, "chunked path engaged");
        }
    }

    #[test]
    fn logical_smaller_than_actual_rejected() {
        let e =
            Table::with_logical_rows(vec![("a".into(), Column::F64(Arc::new(vec![1.0, 2.0])))], 1)
                .unwrap_err();
        assert!(format!("{e}").contains("logical"));
    }
}
