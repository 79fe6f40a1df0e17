//! Deterministic data generators for the Table-I workloads.
//!
//! Every generator follows the same discipline:
//!
//! * **Logical sizes scale with the requested factor** — a request at scale
//!   `s` describes a dataset `s ×` the paper's Table-I volume, which is what
//!   the ActivePy sampling phase slices.
//! * **Materialized sizes stay laptop-small and fixed** — a few thousand
//!   rows regardless of scale, drawn from a seed mixed with the scale
//!   ([`rng_for`]) so that data-dependent properties (selectivities, tree
//!   paths, CSR densities) carry realistic finite-sample noise between
//!   sampling runs: that noise is §V's data-dependent volume error. A
//!   workload whose sampled costs read no dataset's values (a matmul or
//!   k-means pass costs the same on any draw of its shape, a wire-format
//!   stream does not depend on the scale) draws once, at scale 1.0, and
//!   relabels that draw per scale.
//! * **A table is drawn column by column** — its rows interleave their
//!   draws in one stream, and each column is drawn from its own positions
//!   of it, stepping over the others' (`StdRng::advance`). A sample input
//!   is drawn for its value-read columns alone
//!   ([`alang::shape::StoredReads`]); every other column shares a zero
//!   buffer of its type and length, so every size, and every cost a sample
//!   run measures, is the one the whole draw gives.
//! * **Data-dependent structure is honest** — in particular the web-graph
//!   generator's density varies with the observed prefix (hub-heavy head),
//!   which is what reproduces the paper's CSR-volume over-estimation.

pub mod forestgen;
pub mod graph;
pub mod linalg;
pub mod options;
pub mod points;
pub mod tpch;

use alang::shape::{ColumnShape, Placeholders};
use alang::table::Column;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// Mixes a base seed with the scale factor so each sampling scale sees a
/// fresh (but reproducible) draw of the underlying distribution.
#[must_use]
pub fn rng_for(seed: u64, scale: f64) -> StdRng {
    let bits = scale.to_bits();
    StdRng::seed_from_u64(seed ^ bits.rotate_left(17))
}

/// `n` uniform draws from `range`, in stream order, by a reserved `push`
/// loop (≈ 1.4× faster here than `.map(..).collect()` over the same draws).
pub(crate) fn draws(mut rng: StdRng, n: usize, range: Range<f64>) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(rng.gen_range(range.clone()));
    }
    out
}

/// The columns of a table drawn from one row-interleaved stream: row `r`
/// takes the `stride` raw draws from `r · stride` on, and a column reads
/// its own of them, from its `offset` in the row. Each column is drawn
/// alone, stepping over the others' draws ([`StdRng::advance`]), so it
/// holds the values a row-by-row loop over every column draws. A column
/// `wanted` refuses is not drawn: it holds zeros of its type
/// ([`Placeholders`]), keeping its dictionary.
pub(crate) struct ColumnDraws<'a> {
    rng: StdRng,
    rows: usize,
    stride: u64,
    wanted: &'a dyn Fn(&str) -> bool,
    zeros: Placeholders,
}

impl<'a> ColumnDraws<'a> {
    pub(crate) fn new(
        rng: StdRng,
        rows: usize,
        stride: u64,
        wanted: &'a dyn Fn(&str) -> bool,
    ) -> Self {
        ColumnDraws {
            rng,
            rows,
            stride,
            wanted,
            zeros: Placeholders::default(),
        }
    }

    /// Per row, `draw` from the row's draws at `offset` on.
    fn drawn<T>(&self, offset: u64, draw: impl Fn(&mut StdRng) -> T) -> Vec<T> {
        let mut row = self.rng.clone();
        row.advance(offset);
        let mut out = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            out.push(draw(&mut row.clone()));
            row.advance(self.stride);
        }
        out
    }

    /// An `f64` column named `name`.
    pub(crate) fn f64(
        &mut self,
        name: &str,
        offset: u64,
        draw: impl Fn(&mut StdRng) -> f64,
    ) -> (String, Column) {
        let column = if (self.wanted)(name) {
            Column::F64(Arc::new(self.drawn(offset, draw)))
        } else {
            self.zeros.column(ColumnShape::F64, self.rows)
        };
        (name.to_owned(), column)
    }

    /// A column named `name` of codes into `dict`.
    pub(crate) fn dict(
        &mut self,
        name: &str,
        offset: u64,
        dict: &[&str],
        draw: impl Fn(&mut StdRng) -> u32,
    ) -> (String, Column) {
        let dict = Arc::new(dict.iter().map(|s| (*s).to_owned()).collect());
        let column = if (self.wanted)(name) {
            let codes = Arc::new(self.drawn(offset, draw));
            Column::Dict { codes, dict }
        } else {
            self.zeros.column(ColumnShape::Dict(dict), self.rows)
        };
        (name.to_owned(), column)
    }
}

/// Logical row count of a dataset occupying `gb` gigabytes at `bytes_per_row`,
/// scaled by `scale`, never below the materialized `actual` count.
#[must_use]
pub fn logical_rows(gb: f64, bytes_per_row: u64, scale: f64, actual: usize) -> u64 {
    let rows = (gb * 1e9 * scale / bytes_per_row as f64).round() as u64;
    rows.max(actual as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::table::Table;
    use alang::Value;
    use rand::RngCore;

    #[test]
    fn rng_is_deterministic_per_scale() {
        let mut a = rng_for(42, 0.5);
        let mut b = rng_for(42, 0.5);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = rng_for(42, 0.25);
        let va = rng_for(42, 0.5).next_u64();
        assert_ne!(va, c.next_u64(), "different scales draw differently");
    }

    #[test]
    fn the_filled_generators_draw_what_map_collect_drew() {
        // The fill `draws` replaced, kept as the reference.
        fn collected(seed: u64, scale: f64, n: usize, range: Range<f64>) -> Vec<u64> {
            let mut rng = rng_for(seed, scale);
            (0..n)
                .map(|_| rng.gen_range(range.clone()))
                .map(f64::to_bits)
                .collect()
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let scales = activepy::sampling::paper_scales();
        for seed in [1, 0xC5D_FA17] {
            let w = linalg::weight_matrix(64, 4, seed);
            let w = w.as_matrix().expect("matrix").data();
            assert_eq!(bits(w), collected(seed, 1.0, 64 * 4, -0.5..0.5));
            for &scale in scales.iter().chain(&[1.0]) {
                let m = linalg::feature_matrix(6.0, scale, 64, 2048, seed);
                let m = m.as_matrix().expect("matrix").data();
                assert_eq!(bits(m), collected(seed, scale, 2048 * 64, -1.0..1.0));
                let x = graph::dense_vector(6.4, scale, 384, seed);
                let x = x.as_array().expect("array").data();
                assert_eq!(bits(x), collected(seed, scale, 384, 0.0..1.0));
            }
        }
    }

    /// Every column `projected` draws is `full`'s, bit for bit; every
    /// other one is zeros of its type, dictionary and length, one buffer
    /// per type; and the table keeps its rows, logical rows and volume.
    fn assert_projection(full: &Value, projected: &Value, wanted: &[&str], what: &str) {
        let (Value::Table(full), Value::Table(projected)) = (full, projected) else {
            panic!("{what}: tables");
        };
        let sizes = |t: &Table| (t.rows(), t.logical_rows(), t.virtual_bytes());
        assert_eq!(sizes(projected), sizes(full), "{what}");
        let names: Vec<&str> = full.column_names().collect();
        assert_eq!(
            projected.column_names().collect::<Vec<_>>(),
            names,
            "{what}"
        );
        let mut zero_f64s = Vec::new();
        let mut zero_codes = Vec::new();
        for name in names {
            let (column, drawn) = (projected.column(name), full.column(name));
            let (Ok(column), Ok(drawn)) = (column, drawn) else {
                panic!("{what}: `{name}` listed");
            };
            if wanted.contains(&name) {
                assert_eq!(column, drawn, "{what}: `{name}` drawn");
                continue;
            }
            match (column, drawn) {
                (Column::F64(zeros), Column::F64(data)) => {
                    assert_eq!(zeros.len(), data.len(), "{what}: `{name}`");
                    assert!(zeros.iter().all(|x| x.to_bits() == 0), "{what}: `{name}`");
                    zero_f64s.push(Arc::clone(zeros));
                }
                (
                    Column::Dict { codes, dict },
                    Column::Dict {
                        codes: drawn,
                        dict: drawn_dict,
                    },
                ) => {
                    assert_eq!(
                        (codes.len(), dict),
                        (drawn.len(), drawn_dict),
                        "{what}: `{name}`"
                    );
                    assert!(codes.iter().all(|c| *c == 0), "{what}: `{name}`");
                    zero_codes.push(Arc::clone(codes));
                }
                _ => panic!("{what}: `{name}` changed type"),
            }
        }
        assert!(
            zero_f64s.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "{what}"
        );
        assert!(
            zero_codes.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])),
            "{what}"
        );
    }

    /// A table generator at a scale, drawing the columns a predicate wants.
    type Projected = dyn Fn(f64, &dyn Fn(&str) -> bool) -> Value;

    #[test]
    fn a_projected_table_draws_its_columns_as_the_whole_draw_does() {
        const LINEITEM: [&str; 8] = [
            "discount",
            "extendedprice",
            "linestatus",
            "partkey",
            "quantity",
            "returnflag",
            "shipdate",
            "tax",
        ];
        let generators: [(&str, &[&str], &Projected); 3] = [
            ("lineitem", &LINEITEM, &|scale, wanted| {
                tpch::lineitem_projected(6.9, scale, 4096, 2048, 0x79C8, wanted)
            }),
            ("part", &["retailprice", "type"], &|scale, wanted| {
                tpch::part(0.2, scale, 2048, 0x79C8, wanted)
            }),
            (
                "options",
                &["spot", "strike", "tte", "vol"],
                &|scale, wanted| options::option_chain_projected(9.1, scale, 4096, 0xB5, wanted),
            ),
        ];
        let scales = activepy::sampling::paper_scales();
        for (table, columns, generate) in generators {
            // No column, each column alone, all but each, every column,
            // and the sets the registered programs read.
            let mut projections: Vec<Vec<&str>> = vec![Vec::new(), columns.to_vec()];
            for c in columns {
                projections.push(vec![c]);
                projections.push(columns.iter().copied().filter(|o| o != c).collect());
            }
            projections.extend([
                vec!["discount", "quantity", "shipdate"],
                vec!["linestatus", "returnflag", "shipdate"],
                vec!["partkey", "shipdate"],
                vec!["tte", "vol"],
            ]);
            for &scale in scales.iter().chain(&[1.0]) {
                let full = generate(scale, &|_| true);
                for wanted in &projections {
                    let projected = generate(scale, &|c| wanted.contains(&c));
                    let what = format!("{table} at {scale} reading {wanted:?}");
                    assert_projection(&full, &projected, wanted, &what);
                }
            }
        }
    }

    #[test]
    fn logical_rows_scales_linearly_and_floors_at_actual() {
        let full = logical_rows(6.9, 56, 1.0, 4096);
        let half = logical_rows(6.9, 56, 0.5, 4096);
        assert!((full as f64 / half as f64 - 2.0).abs() < 1e-6);
        assert_eq!(logical_rows(6.9, 56, 1e-12, 4096), 4096);
    }
}
