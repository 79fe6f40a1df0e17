//! Sharded data: partitioning bulk values across a fleet of CSDs.
//!
//! A [`ShardMap`] describes how the rows of a workload's stored bulk
//! values are split across `N` devices: contiguous, near-equal row ranges
//! ([`ShardStrategy::Range`]). The partition arithmetic is exact:
//! [`ShardMap::slice_u64`] splits any extensive quantity
//! (bytes, rows, operations) so the per-shard slices sum to the total
//! with no remainder, the same discipline the execution engine's
//! `chunk_slice` uses for chunk streaming.
//!
//! [`analyze`] classifies each program line by *rowwise
//! decomposability*, taking each call's row rule from its builtin's row in
//! the kernel table: a line whose output is row-aligned with the sharded
//! inputs (elementwise arithmetic, `filter`/`select`, `matmul` against a
//! replicated right-hand side, …) can run per shard; the first line that
//! consumes sharded data any other way — a reduction like `sum` or
//! `group_sum`, a global restructuring like `to_csr` or `sort` — is the
//! **fence**. Lines before the fence scatter across the fleet; the fence
//! and everything after it run on the host over gathered shard results,
//! combined in ascending shard index (the same ordered-reduction rule
//! that keeps [`crate::par`] bit-identical).

use crate::ast::{Expr, Program};
use crate::builtins::{kernel_id, KernelId, RowRule, Storage};
use crate::value::Value;
use isp_obs::wal::fnv1a;
use std::collections::BTreeSet;

/// Minimum logical row count for a stored value to be worth sharding;
/// smaller values (model weights, centroid seeds) are replicated to
/// every device.
pub const SHARD_MIN_ROWS: u64 = 65_536;

/// How rows are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Contiguous, near-equal row ranges.
    Range,
}

/// A partition of `[0, rows)` into `N` shards, plus the set of storage
/// names the partition applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    rows: u64,
    bounds: Vec<u64>,
    sharded: BTreeSet<String>,
}

impl ShardMap {
    /// An equal range partition of `rows` into `n` shards.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn range(rows: u64, n: usize) -> Self {
        assert!(n > 0, "a shard map needs at least one shard");
        let bounds = (0..=n as u64).map(|s| rows * s / n as u64).collect();
        ShardMap {
            rows,
            bounds,
            sharded: BTreeSet::new(),
        }
    }

    /// Replaces the set of storage names the partition applies to.
    #[must_use]
    pub fn with_sharded_sources<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.sharded = names.into_iter().map(Into::into).collect();
        self
    }

    /// Builds a map over `storage`: every row-shardable bulk value
    /// (array, mask, table, or matrix) with at least [`SHARD_MIN_ROWS`]
    /// logical rows is sharded; everything else is replicated. `rows` is
    /// the largest sharded row count — the partition denominator.
    #[must_use]
    pub fn auto(storage: &Storage, n: usize, strategy: ShardStrategy) -> Self {
        let mut names = BTreeSet::new();
        let mut rows = 1u64;
        for name in storage.names() {
            let Ok(value) = storage.get(name) else {
                continue;
            };
            let value_rows = match value {
                Value::Array(a) => a.logical_len(),
                Value::BoolArray(m) => m.logical_len(),
                Value::Table(t) => t.logical_rows(),
                Value::Matrix(m) => m.logical_rows(),
                _ => 0,
            };
            if value_rows >= SHARD_MIN_ROWS {
                names.insert(name.to_owned());
                rows = rows.max(value_rows);
            }
        }
        let ShardStrategy::Range = strategy;
        ShardMap::range(rows, n).with_sharded_sources(names)
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The partition denominator (total logical rows).
    #[must_use]
    pub fn rows_total(&self) -> u64 {
        self.rows
    }

    /// Row bounds `[lo, hi)` of shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn bounds_of(&self, s: usize) -> (u64, u64) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// Rows owned by shard `s`.
    #[must_use]
    pub fn rows_of(&self, s: usize) -> u64 {
        let (lo, hi) = self.bounds_of(s);
        hi - lo
    }

    /// Shard `s`'s share of the partition, in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self, s: usize) -> f64 {
        if self.rows == 0 {
            if s == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.rows_of(s) as f64 / self.rows as f64
        }
    }

    /// Shard `s`'s exact slice of an extensive quantity `total`,
    /// `⌊total·hi/rows⌋ − ⌊total·lo/rows⌋`: slices over all shards sum to
    /// `total` with no rounding remainder. A full-scale byte count times a
    /// row bound overflows `u64`, so the products are taken in `u128`.
    #[must_use]
    pub fn slice_u64(&self, total: u64, s: usize) -> u64 {
        if self.rows == 0 {
            return if s == 0 { total } else { 0 };
        }
        let rows = u128::from(self.rows);
        // `bound ≤ rows`, so each quotient is at most `total` and fits back.
        let upto = |bound: u64| (u128::from(total) * u128::from(bound) / rows) as u64;
        let (lo, hi) = self.bounds_of(s);
        upto(hi) - upto(lo)
    }

    /// Whether stored value `name` is partitioned (vs replicated).
    #[must_use]
    pub fn is_sharded(&self, name: &str) -> bool {
        self.sharded.contains(name)
    }

    /// FNV-1a over the full placement description — shard count, bounds,
    /// strategy, and sharded names — so two maps that could ever place
    /// data differently never collide in a cache key. The strategy is
    /// always `b"range"`, kept so journaled `shard_fp`s stay valid.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = self.rows.to_le_bytes().to_vec();
        for b in &self.bounds {
            bytes.extend_from_slice(&b.to_le_bytes());
        }
        bytes.extend_from_slice(b"range");
        for name in &self.sharded {
            bytes.extend_from_slice(name.as_bytes());
            bytes.push(0);
        }
        fnv1a(&bytes)
    }
}

/// Rowwise decomposability of one value with respect to a [`ShardMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shardedness {
    /// Row-partitioned across the fleet, aligned with the map.
    Sharded,
    /// Replicated in full on every shard.
    Replicated,
}

/// The scatter/gather structure of a program under a [`ShardMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAnalysis {
    /// Index of the first line that must run on the host over gathered
    /// data (`program.len()` when the whole program is rowwise).
    pub fence: usize,
    /// Per line: whether its output is row-partitioned. `false` for
    /// every line at or after the fence.
    pub line_sharded: Vec<bool>,
    /// The lines defining the sharded values that are produced before the
    /// fence and consumed at or after it — the live state the gather phase
    /// pulls from every shard, in ascending order (the combine accumulates
    /// them in ascending shard index).
    pub carriers: Vec<usize>,
}

fn class_of(expr: &Expr, sharded_vars: &BTreeSet<String>, map: &ShardMap) -> Option<Shardedness> {
    use Shardedness::{Replicated, Sharded};
    match expr {
        Expr::Num(_) | Expr::Str(_) => Some(Replicated),
        Expr::Ident(name) => Some(if sharded_vars.contains(name) {
            Sharded
        } else {
            Replicated
        }),
        Expr::Unary { expr, .. } => class_of(expr, sharded_vars, map),
        Expr::Binary { lhs, rhs, .. } => {
            // All binary operators are elementwise; a sharded operand
            // keeps the result row-aligned (scalars broadcast).
            let l = class_of(lhs, sharded_vars, map)?;
            let r = class_of(rhs, sharded_vars, map)?;
            Some(if l == Sharded || r == Sharded {
                Sharded
            } else {
                Replicated
            })
        }
        Expr::Call { name, args } => {
            let classes: Option<Vec<Shardedness>> = args
                .iter()
                .map(|a| class_of(a, sharded_vars, map))
                .collect();
            let classes = classes?;
            let any_sharded = classes.contains(&Sharded);
            let kernel = kernel_id(name);
            if kernel.is_some_and(KernelId::reads_storage) {
                // Encoded datasets are never sharded (ShardMap::auto
                // replicates Value::Encoded), so a raw read follows the
                // same source-name rule and lands on Replicated.
                return Some(match args.first() {
                    Some(Expr::Str(source)) if map.is_sharded(source) => Sharded,
                    _ => Replicated,
                });
            }
            // An unknown name fences like a reduction.
            match kernel.map_or(RowRule::Fence, KernelId::row_rule) {
                RowRule::Elementwise => Some(if any_sharded { Sharded } else { Replicated }),
                // A sharded mask over replicated data has no aligned
                // partition.
                RowRule::SelectFirst => match classes.first() {
                    Some(Sharded) => Some(Sharded),
                    _ if any_sharded => None,
                    _ => Some(Replicated),
                },
                // A sharded rhs (weights, centroids) would need an
                // all-to-all.
                RowRule::FirstOnly if classes.iter().skip(1).any(|c| *c == Sharded) => None,
                RowRule::FirstOnly => classes.first().copied().or(Some(Replicated)),
                RowRule::ModelThenRows if classes.first() == Some(&Sharded) => None,
                RowRule::ModelThenRows => Some(if classes.get(1) == Some(&Sharded) {
                    Sharded
                } else {
                    Replicated
                }),
                RowRule::Fence if any_sharded => None,
                RowRule::Fence => Some(Replicated),
            }
        }
    }
}

/// Classifies every line of `program` against `map` and locates the
/// scatter/gather fence.
#[must_use]
pub fn analyze(program: &Program, map: &ShardMap) -> ShardAnalysis {
    let mut sharded_vars: BTreeSet<String> = BTreeSet::new();
    let mut line_sharded = vec![false; program.len()];
    let mut fence = program.len();
    for (i, line) in program.lines().iter().enumerate() {
        match class_of(&line.expr, &sharded_vars, map) {
            Some(Shardedness::Sharded) => {
                line_sharded[i] = true;
                sharded_vars.insert(line.target.clone());
            }
            Some(Shardedness::Replicated) => {
                // Reassignment can turn a previously-sharded name
                // replicated; drop it so later uses read the new class.
                sharded_vars.remove(&line.target);
            }
            None => {
                fence = i;
                break;
            }
        }
    }
    let mut carriers: Vec<usize> = Vec::new();
    if fence < program.len() {
        for line in &program.lines()[fence..] {
            for def in line.inputs().filter_map(|(_, def)| def) {
                if def < fence && line_sharded[def] && !carriers.contains(&def) {
                    carriers.push(def);
                }
            }
        }
        carriers.sort_unstable();
    } else if let Some(last) = program.lines().last() {
        // A fully rowwise program still gathers its sharded result.
        if line_sharded[last.index] {
            carriers.push(last.index);
        }
    }
    ShardAnalysis {
        fence,
        line_sharded,
        carriers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::value::{ArrayVal, BoolArrayVal};

    #[test]
    fn range_partition_is_exact_for_awkward_sizes() {
        for rows in [0u64, 1, 7, 1_000_003] {
            for n in [1usize, 2, 3, 4, 8] {
                let map = ShardMap::range(rows, n);
                assert_eq!(map.count(), n);
                let total: u64 = (0..n).map(|s| map.rows_of(s)).sum();
                assert_eq!(total, rows, "rows {rows} across {n}");
                for odd in [1u64, 12_345, u64::from(u32::MAX)] {
                    let sum: u64 = (0..n).map(|s| map.slice_u64(odd, s)).sum();
                    assert_eq!(sum, odd, "slice_u64({odd}) across {n}");
                }
            }
        }
    }

    #[test]
    fn slicing_a_large_total_over_many_rows_does_not_overflow() {
        let map = ShardMap::range(1_000_000_000, 4);
        let total = 100_000_000_000;
        let slices: Vec<u64> = (0..4).map(|s| map.slice_u64(total, s)).collect();
        assert_eq!(slices, [25_000_000_000; 4]);
        assert_eq!(slices.iter().sum::<u64>(), total);
        // Uneven bounds: 999 999 937 rows do not split evenly 7 ways.
        let odd = ShardMap::range(999_999_937, 7);
        assert_ne!(odd.rows_of(0), odd.rows_of(6));
        let sum: u64 = (0..7).map(|s| odd.slice_u64(u64::MAX, s)).sum();
        assert_eq!(sum, u64::MAX);
    }

    #[test]
    fn fingerprints_distinguish_count_and_sources() {
        let one = ShardMap::range(1_000_000, 1).with_sharded_sources(["v"]);
        let four = ShardMap::range(1_000_000, 4).with_sharded_sources(["v"]);
        let other = ShardMap::range(1_000_000, 4).with_sharded_sources(["w"]);
        let prints = [one.fingerprint(), four.fingerprint(), other.fingerprint()];
        for i in 0..prints.len() {
            for j in i + 1..prints.len() {
                assert_ne!(prints[i], prints[j], "maps {i} and {j} collide");
            }
        }
        // FNV-1a over rows, bounds, b"range" and "v\0": a journal's
        // `shard_fp` is this value.
        assert_eq!(four.fingerprint(), 0x7d00_ffc8_3b8c_ec51);
    }

    fn storage() -> Storage {
        let mut st = Storage::new();
        st.insert(
            "v",
            Value::Array(ArrayVal::with_logical(
                (0..64).map(f64::from).collect(),
                1_000_000,
            )),
        );
        st.insert(
            "m",
            Value::BoolArray(BoolArrayVal::with_logical(
                (0..64).map(|i| i % 3 == 0).collect(),
                1_000_000,
            )),
        );
        st.insert("k", Value::Num(3.0));
        st
    }

    #[test]
    fn auto_shards_large_bulk_values_only() {
        let map = ShardMap::auto(&storage(), 4, ShardStrategy::Range);
        assert!(map.is_sharded("v"));
        assert!(map.is_sharded("m"));
        assert!(!map.is_sharded("k"));
        assert_eq!(map.rows_total(), 1_000_000);
    }

    fn map_for(src_sharded: &[&str]) -> ShardMap {
        ShardMap::range(1_000_000, 4).with_sharded_sources(src_sharded.iter().copied())
    }

    #[test]
    fn elementwise_prefix_fences_at_the_reduction() {
        let p = parse("a = scan('v')\nb = sqrt(a * 2)\nm = b < 3\nc = select(b, m)\ns = sum(c)\n")
            .expect("parse");
        let analysis = analyze(&p, &map_for(&["v"]));
        assert_eq!(analysis.fence, 4, "sum is the first non-rowwise consumer");
        assert_eq!(analysis.line_sharded, vec![true, true, true, true, false]);
        assert_eq!(analysis.carriers, [3], "`c`");
    }

    #[test]
    fn a_carrier_is_the_value_the_tail_reads_not_the_name_it_ends_as() {
        // The tail reads the `x` line 1 produced; reusing the name for the
        // last line's target leaves that read, and the gather, alone.
        for last in ["y", "x"] {
            let src = format!("a = scan('v')\nx = a * 2\ns = sum(x)\n{last} = s + 1\n");
            let analysis = analyze(&parse(&src).expect("parse"), &map_for(&["v"]));
            assert_eq!(analysis.fence, 2);
            assert_eq!(
                analysis.carriers,
                [1],
                "`{last} = s + 1`: looked up by name, `x` resolved to line 3 — past the \
                 fence — and nothing was carried"
            );
        }
    }

    #[test]
    fn matmul_requires_a_replicated_rhs() {
        let p =
            parse("a = scan('v')\nw = scan('w')\ny = matmul(a, w)\nn = frob(y)\n").expect("parse");
        let sharded_lhs = analyze(&p, &map_for(&["v"]));
        assert_eq!(sharded_lhs.fence, 3, "row-block matmul is rowwise");
        assert!(sharded_lhs.line_sharded[2]);
        let sharded_rhs = analyze(&p, &map_for(&["w"]));
        assert_eq!(sharded_rhs.fence, 2, "a sharded rhs needs an all-to-all");
    }

    #[test]
    fn replicated_reductions_do_not_fence() {
        let p = parse("c = scan('centroids')\nspread = frob(c)\n").expect("parse");
        let analysis = analyze(&p, &map_for(&["points"]));
        assert_eq!(analysis.fence, 2, "no sharded data, no fence");
        assert!(analysis.carriers.is_empty());
    }

    #[test]
    fn fully_rowwise_program_carries_its_result() {
        let p = parse("a = scan('v')\nb = a * 2\n").expect("parse");
        let analysis = analyze(&p, &map_for(&["v"]));
        assert_eq!(analysis.fence, 2);
        assert_eq!(analysis.carriers, [1], "`b`");
    }

    #[test]
    fn immediate_reduction_fences_at_line_zero() {
        let p = parse("s = sum(scan('v'))\n").expect("parse");
        let analysis = analyze(&p, &map_for(&["v"]));
        assert_eq!(analysis.fence, 0);
        assert!(analysis.carriers.is_empty());
    }
}
