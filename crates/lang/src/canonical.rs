//! The one canonical traversal of a [`Value`], the sinks that consume
//! it, and the length-prefixed readers the warm-start file is read with.
//!
//! [`Value::canonical`] walks a value exactly once, in one fixed order —
//! kind tag, logical sizes, length prefixes, then bulk payloads handed
//! over as whole slices — and everything that needs to know what a value
//! is made of is a [`CanonicalSink`] fed by that walk: the answer
//! fingerprint ([`Fingerprinter`]), and the [`ByteWriter`] sink for a
//! byte-for-byte comparison. No value is read back: the warm-start file
//! holds sampling reports only, whose costs travel through the same
//! [`ByteWriter`] sink ([`crate::LineCost::canonical`]) and are read with
//! [`read_vec`] and [`read_map`] from a [`ByteReader`].

use crate::value::Value;
use isp_obs::wal::{ByteReader, ByteWriter};

/// Receives the canonical traversal of a value.
///
/// Only the scalar and byte-string methods are required; the bulk methods
/// default to one scalar call per element and exist so a sink can take a
/// whole payload at once.
pub trait CanonicalSink {
    /// One byte (kind and codec tags).
    fn u8(&mut self, v: u8);
    /// A 32-bit scalar (materialized dimensions, length prefixes).
    fn u32(&mut self, v: u32);
    /// A 64-bit scalar (logical sizes).
    fn u64(&mut self, v: u64);
    /// A byte string, framed by its `u32` length.
    fn bytes(&mut self, v: &[u8]);

    /// A bool as one byte.
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// A float as its IEEE-754 bit pattern: `0.0` and `-0.0`, and any two
    /// NaN payloads, stay distinct.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A UTF-8 string as its byte string.
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// A materialized element count, as the `u32` prefix of a payload.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("materialized length fits the u32 prefix"));
    }
    /// A float payload; its length has already been emitted.
    fn f64s(&mut self, v: &[f64]) {
        v.iter().for_each(|x| self.f64(*x));
    }
    /// A `u32` payload; its length has already been emitted.
    fn u32s(&mut self, v: &[u32]) {
        v.iter().for_each(|x| self.u32(*x));
    }
    /// A bool payload; its length has already been emitted.
    fn bools(&mut self, v: &[bool]) {
        v.iter().for_each(|b| self.bool(*b));
    }
}

impl CanonicalSink for ByteWriter {
    fn u8(&mut self, v: u8) {
        ByteWriter::u8(self, v);
    }
    fn u32(&mut self, v: u32) {
        ByteWriter::u32(self, v);
    }
    fn u64(&mut self, v: u64) {
        ByteWriter::u64(self, v);
    }
    fn bytes(&mut self, v: &[u8]) {
        ByteWriter::bytes(self, v);
    }
}

/// Reads a [`CanonicalSink::len`] prefix and that many items, or returns
/// the first item's error. Capacity is bounded by the bytes left, so a
/// corrupt count fails at the first missing item instead of allocating
/// for it.
pub fn read_vec<T>(
    r: &mut ByteReader<'_>,
    item: impl Fn(&mut ByteReader<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

/// Reads a length prefix and that many `(name, item)` entries, refusing
/// a name that does not strictly follow the one before it: the walk
/// writes a map in key order, so a repeated or reordered name was never
/// written by it.
pub fn read_map<T>(
    r: &mut ByteReader<'_>,
    item: impl Fn(&mut ByteReader<'_>) -> Result<T, String>,
) -> Result<Vec<(String, T)>, String> {
    let entries = read_vec(r, |r| Ok((r.str()?, item(r)?)))?;
    match entries.windows(2).find(|w| w[0].0 >= w[1].0) {
        Some(w) => Err(format!("name `{}` does not follow `{}`", w[1].0, w[0].0)),
        None => Ok(entries),
    }
}

/// How many independent chains a bulk payload is hashed through. One
/// multiply-mix chain retires a word per multiply-and-fold latency; more
/// chains overlap those latencies until the loads are the limit. Measured
/// over a 2 MiB `f64` payload on the reference box: 3.4, 7.0, 11.2 and
/// 11.9 GB/s at 1, 2, 4 and 8 lanes.
const LANES: usize = 4;

/// Where each lane's chain starts: distinct, so equal words in different
/// lanes never leave two lanes in the same state.
const LANE_SEEDS: [u64; LANES] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0xD6E8_FEB8_6659_FD93,
];

/// One chain step. A bijection of the state for a fixed word and of the
/// word for a fixed state.
#[inline]
fn mix(state: u64, w: u64) -> u64 {
    let s = (state ^ w).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    // The product only carries bits upward; fold the top half back down
    // so the next word meets all of this one.
    s ^ (s >> 32)
}

/// Eight bytes (fewer in a payload's last word, zero-extended) as a word.
#[inline]
fn pack_bytes(group: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..group.len()].copy_from_slice(group);
    u64::from_le_bytes(word)
}

/// Up to 64 bools as the low bits of one word, bool `i` at bit `i`.
#[inline]
fn pack_bools(group: &[bool]) -> u64 {
    let mut eights = group.chunks_exact(8);
    let mut w = 0u64;
    for (k, eight) in (&mut eights).enumerate() {
        let bytes = u64::from_le_bytes(std::array::from_fn(|i| u8::from(eight[i])));
        // Byte `i` holds bool `i` in its low bit; the multiply moves that
        // bit to position 56 + i, and no two partial products meet.
        w |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    let done = group.len() - eights.remainder().len();
    for (i, b) in eights.remainder().iter().enumerate() {
        w |= u64::from(*b) << (done + i);
    }
    w
}

/// A 64-bit multiply-mix hash over the canonical traversal, eight bytes
/// per step, with no buffer and no allocation.
///
/// Every step is a bijection of the state for a fixed word and of the word
/// for a fixed state, so two traversals that differ in exactly one word —
/// one element, one length, one logical size — always produce different
/// fingerprints; traversals differing in several words collide with
/// probability about 2⁻⁶⁴. Sub-word payloads are packed (two `u32`s, eight
/// bytes or sixty-four bools to the word), which stays unambiguous because
/// the traversal emits every payload's length before the payload.
///
/// Scalars, names and framing run down one main chain. A bulk payload runs
/// down `LANES` chains of its own — word `i` on lane `i mod LANES` — whose
/// final states are then fed to the main chain in lane order: the lanes
/// do not wait on each other, and since a lane's final state is a
/// bijection of any one of its words, so is the fingerprint.
///
/// A run's fingerprint has two levels. Each variable's value runs down a
/// chain of its own to a [`digest`](Fingerprinter::digest), and the run's
/// chain takes name, has-value flag and that one word per variable
/// ([`var`](Fingerprinter::var)). [`finish`](Fingerprinter::finish) is a
/// bijection of the state like every step before it, so a digest is a
/// bijection of any one word of its value and the run's fingerprint of any
/// one digest: the single-change guarantee above holds across both levels.
///
/// The value is comparable only between runs of one build: nothing pins
/// the constants or the packing across versions.
#[derive(Debug, Clone, Default)]
pub struct Fingerprinter {
    state: u64,
}

impl Fingerprinter {
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = mix(self.state, w);
    }

    /// A bulk payload of `PER_WORD` elements to the word (the last word
    /// may be short), `pack` turning one word's elements into the word.
    #[inline]
    fn bulk<T, const PER_WORD: usize>(&mut self, v: &[T], pack: impl Fn(&[T]) -> u64) {
        let mut lanes = LANE_SEEDS;
        let mut rounds = v.chunks_exact(PER_WORD * LANES);
        for round in &mut rounds {
            for (lane, group) in lanes.iter_mut().zip(round.chunks_exact(PER_WORD)) {
                *lane = mix(*lane, pack(group));
            }
        }
        for (lane, group) in lanes.iter_mut().zip(rounds.remainder().chunks(PER_WORD)) {
            *lane = mix(*lane, pack(group));
        }
        for lane in lanes {
            self.word(lane);
        }
    }

    /// The digest of one value: its traversal down a chain of its own,
    /// finished. A function of the value alone — not of the variable that
    /// holds it or of what was hashed before — so whoever keeps the value
    /// can keep its digest ([`crate::builtins::Storage::digest`]).
    #[must_use]
    pub fn digest(value: &Value) -> u64 {
        let mut chain = Fingerprinter::default();
        value.canonical(&mut chain);
        chain.finish()
    }

    /// Feeds one program variable: its name, whether it holds a value
    /// (`None`: no line has assigned it), and the value's
    /// [`digest`](Self::digest).
    pub fn var(&mut self, name: &str, value: Option<&Value>) {
        self.var_digest(name, value.map(Self::digest));
    }

    /// As [`var`](Self::var) for a value whose digest is already known.
    pub fn var_digest(&mut self, name: &str, digest: Option<u64>) {
        self.str(name);
        self.bool(digest.is_some());
        if let Some(digest) = digest {
            self.word(digest);
        }
    }

    /// The fingerprint of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let s = (self.state ^ (self.state >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        s ^ (s >> 29)
    }
}

impl CanonicalSink for Fingerprinter {
    fn u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }
    fn u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }
    fn u64(&mut self, v: u64) {
        self.word(v);
    }
    fn bytes(&mut self, v: &[u8]) {
        self.word(v.len() as u64);
        self.bulk::<u8, 8>(v, pack_bytes);
    }
    /// Names are short: they stay on the main chain.
    fn str(&mut self, v: &str) {
        self.word(v.len() as u64);
        v.as_bytes()
            .chunks(8)
            .for_each(|group| self.word(pack_bytes(group)));
    }
    fn f64s(&mut self, v: &[f64]) {
        self.bulk::<f64, 1>(v, |x| x[0].to_bits());
    }
    fn u32s(&mut self, v: &[u32]) {
        self.bulk::<u32, 2>(v, |pair| {
            u64::from(pair[0]) | pair.get(1).map_or(0, |hi| u64::from(*hi) << 32)
        });
    }
    fn bools(&mut self, v: &[bool]) {
        self.bulk::<bool, 64>(v, pack_bools);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{Forest, Tree, TreeNode};
    use crate::matrix::{Csr, Matrix};
    use crate::table::{Column, Table};
    use crate::value::{ArrayVal, BoolArrayVal, EncodedVal};
    use csd_sim::wire::{ByteOrder, Encoding};
    use std::sync::Arc;

    /// The fingerprint of a run whose variables ended as `vars`.
    fn fp(vars: &[(&str, Option<Value>)]) -> u64 {
        let mut f = Fingerprinter::default();
        for (name, value) in vars {
            f.var(name, value.as_ref());
        }
        f.finish()
    }

    /// `x` with its lowest mantissa bit flipped.
    fn ulp(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    fn array(data: &[f64], logical: u64) -> Value {
        Value::Array(ArrayVal::with_logical(data.to_vec(), logical))
    }

    fn mask(data: &[bool], logical: u64) -> Value {
        Value::BoolArray(BoolArrayVal::with_logical(data.to_vec(), logical))
    }

    fn table(price: &[f64], codes: &[u32], city: &str, col: &str, rows: u64) -> Value {
        let columns = vec![
            (col.to_owned(), Column::F64(Arc::new(price.to_vec()))),
            (
                "where".to_owned(),
                Column::Dict {
                    codes: Arc::new(codes.to_vec()),
                    dict: Arc::new(vec!["oslo".to_owned(), city.to_owned()]),
                },
            ),
        ];
        Value::Table(Table::with_logical_rows(columns, rows).expect("table"))
    }

    fn matrix(data: &[f64], rows: usize, cols: usize, lrows: u64, lcols: u64) -> Value {
        Value::Matrix(Matrix::with_logical(data.to_vec(), rows, cols, lrows, lcols).expect("mat"))
    }

    fn csr(row_ptr: &[u32], col_idx: &[u32], values: &[f64], lrows: u64, lnnz: u64) -> Value {
        let (p, c, v) = (row_ptr.to_vec(), col_idx.to_vec(), values.to_vec());
        Value::Csr(Csr::from_parts(p, c, v, 3, lrows, 3, lnnz).expect("csr"))
    }

    fn forest(threshold: f64, leaf: f64, features: u32, trees: usize) -> Value {
        let tree = Tree::new(vec![
            TreeNode::split(0, threshold, 1, 2),
            TreeNode::leaf(leaf),
            TreeNode::leaf(1.0),
        ])
        .expect("tree");
        Value::Forest(Forest::new(vec![tree; trees], features).expect("forest"))
    }

    fn encoded(encoding: Encoding, data: &[f64], logical: u64) -> Value {
        Value::Encoded(EncodedVal::from_f64s(encoding, data, logical))
    }

    fn encoded_parts(actual_len: usize, encoded_logical_bytes: u64) -> Value {
        let chunks = vec![Encoding::raw().encode(&[1.0, 2.0])];
        let parts = EncodedVal::from_parts(
            Encoding::raw(),
            chunks,
            actual_len,
            9,
            encoded_logical_bytes,
        );
        Value::Encoded(parts)
    }

    #[test]
    fn any_single_change_to_any_kind_changes_the_fingerprint() {
        let long: Vec<bool> = (0..65).map(|i| i % 3 == 0).collect();
        let mut long_flipped = long.clone();
        long_flipped[64] ^= true;
        let big_endian = Encoding {
            byte_order: ByteOrder::Big,
            ..Encoding::raw()
        };
        let filled = Encoding {
            fill_value: Some(-1.0),
            ..Encoding::raw()
        };
        // Each kind's base value, then that value with exactly one element
        // bit, length, logical size, name or dictionary entry changed.
        let values = vec![
            Value::Num(1.5),
            Value::Num(ulp(1.5)),
            Value::Bool(false),
            Value::Bool(true),
            Value::Str("ab".into()),
            Value::Str("ac".into()),
            Value::Str("abc".into()),
            array(&[1.0, 2.0, 3.0], 3),
            array(&[1.0, ulp(2.0), 3.0], 3),
            array(&[1.0, 2.0], 3),
            array(&[1.0, 2.0, 3.0], 4),
            mask(&[true, false, true], 3),
            mask(&[true, true, true], 3),
            mask(&[true, false], 3),
            mask(&[true, false, true], 4),
            mask(&long, 65),
            mask(&long_flipped, 65),
            table(&[1.5, 2.5], &[0, 1], "rome", "price", 2),
            table(&[1.5, ulp(2.5)], &[0, 1], "rome", "price", 2),
            table(&[1.5, 2.5], &[1, 1], "rome", "price", 2),
            table(&[1.5, 2.5], &[0, 1], "roma", "price", 2),
            table(&[1.5, 2.5], &[0, 1], "rome", "cost", 2),
            table(&[1.5, 2.5], &[0, 1], "rome", "price", 3),
            table(&[1.5], &[0], "rome", "price", 2),
            matrix(&[1.0, 2.0, 3.0, 4.0], 2, 2, 2, 2),
            matrix(&[1.0, 2.0, 3.0, ulp(4.0)], 2, 2, 2, 2),
            matrix(&[1.0, 2.0, 3.0, 4.0], 1, 4, 2, 4),
            matrix(&[1.0, 2.0, 3.0, 4.0], 2, 2, 3, 2),
            matrix(&[1.0, 2.0, 3.0, 4.0], 2, 2, 2, 3),
            csr(&[0, 1, 2], &[0, 2], &[5.0, 6.0], 2, 2),
            csr(&[0, 1, 2], &[0, 2], &[5.0, ulp(6.0)], 2, 2),
            csr(&[0, 1, 2], &[0, 1], &[5.0, 6.0], 2, 2),
            csr(&[0, 1, 1], &[0], &[5.0], 2, 2),
            csr(&[0, 1, 2], &[0, 2], &[5.0, 6.0], 3, 2),
            csr(&[0, 1, 2], &[0, 2], &[5.0, 6.0], 2, 3),
            forest(0.5, -1.0, 3, 1),
            forest(ulp(0.5), -1.0, 3, 1),
            forest(0.5, ulp(-1.0), 3, 1),
            forest(0.5, -1.0, 4, 1),
            forest(0.5, -1.0, 3, 2),
            encoded(Encoding::raw(), &[1.0, 2.0, 3.0], 3),
            encoded(Encoding::raw(), &[1.0, ulp(2.0), 3.0], 3),
            encoded(Encoding::raw(), &[1.0, 2.0, 3.0], 4),
            encoded(big_endian, &[1.0, 2.0, 3.0], 3),
            encoded(filled, &[1.0, 2.0, 3.0], 3),
            encoded_parts(2, 16),
            encoded_parts(1, 16),
            encoded_parts(2, 17),
        ];
        // At both levels: the value's digest, and a run that holds the
        // value between two other variables.
        let run = |v: &Value| {
            let (before, after) = (Value::Num(0.5), mask(&[true], 1));
            fp(&[
                ("a", Some(before)),
                ("x", Some(v.clone())),
                ("z", Some(after)),
            ])
        };
        let digests: Vec<u64> = values.iter().map(Fingerprinter::digest).collect();
        let prints: Vec<u64> = values.iter().map(run).collect();
        for i in 0..values.len() {
            for j in i + 1..values.len() {
                let what = format!("{} and {}", values[i], values[j]);
                assert_ne!(digests[i], digests[j], "{what}: digests collide");
                assert_ne!(prints[i], prints[j], "{what}: runs collide");
            }
        }
    }

    #[test]
    fn a_variable_is_its_name_a_flag_and_its_values_digest() {
        let v = table(&[1.5, 2.5], &[0, 1], "rome", "price", 2);
        let digest = Fingerprinter::digest(&v);
        assert_eq!(digest, Fingerprinter::digest(&v.clone()));
        // `x` between two other variables, fed by `feed`.
        let run = |feed: &dyn Fn(&mut Fingerprinter)| {
            let mut f = Fingerprinter::default();
            f.var("a", Some(&Value::Num(0.5)));
            feed(&mut f);
            f.var("z", None);
            f.finish()
        };
        // One definition: `var` is `var_digest` of `digest`.
        let reference = run(&|f| f.var("x", Some(&v)));
        assert_eq!(run(&|f| f.var_digest("x", Some(digest))), reference);
        // Every bit of the digest reaches the run's fingerprint.
        for bit in 0..64 {
            let other = digest ^ (1 << bit);
            assert_ne!(run(&|f| f.var_digest("x", Some(other))), reference, "{bit}");
        }
        assert_ne!(run(&|f| f.var_digest("y", Some(digest))), reference);
        assert_ne!(
            run(&|f| f.var_digest("x", None)),
            run(&|f| f.var_digest("x", Some(0)))
        );
    }

    /// Every way one element can change in a bulk payload of `per_word`
    /// elements to the word, at every length from empty to two full rounds
    /// of lanes and a word, so that each lane, the short last round and
    /// each sub-word remainder is the one holding the change.
    fn check_bulk<T: Copy + PartialEq>(
        per_word: usize,
        element: impl Fn(usize) -> T,
        flip_one_bit: impl Fn(T, usize) -> T,
        zero: T,
        feed: impl Fn(&mut Fingerprinter, &[T]),
    ) {
        // Framed the way the traversal frames it — length, then payload —
        // and fed the way a run feeds it: the value's own chain finishes
        // into a digest, the digest is one word of the run's chain, and
        // another variable follows it.
        let print = |v: &[T]| {
            let mut value = Fingerprinter::default();
            value.len(v.len());
            feed(&mut value, v);
            let mut run = Fingerprinter::default();
            run.var_digest("x", Some(value.finish()));
            run.var("y", Some(&Value::Num(1.0)));
            run.finish()
        };
        for n in 0..=(2 * LANES + 1) * per_word {
            let base: Vec<T> = (0..n).map(&element).collect();
            let reference = print(&base);
            for i in 0..n {
                let mut flipped = base.clone();
                flipped[i] = flip_one_bit(base[i], i);
                assert_ne!(print(&flipped), reference, "n={n}: bit flip at {i}");
                // The same word one round on shares the lane; the next
                // word sits on the next lane.
                for (lanes, j) in [
                    ("one lane", i + per_word * LANES),
                    ("two lanes", i + per_word),
                ] {
                    if j < n && base[i] != base[j] {
                        let mut swapped = base.clone();
                        swapped.swap(i, j);
                        assert_ne!(print(&swapped), reference, "n={n}: {i}<->{j}, {lanes}");
                    }
                }
            }
            let mut longer = base.clone();
            longer.push(zero);
            assert_ne!(print(&longer), reference, "n={n}: appended zero");
        }
    }

    #[test]
    fn any_single_change_to_any_bulk_payload_changes_the_fingerprint() {
        check_bulk(
            1,
            |i| 1.5 + i as f64,
            |x, i| f64::from_bits(x.to_bits() ^ (1 << (i * 7 % 64))),
            0.0,
            |f, v| f.f64s(v),
        );
        check_bulk(
            2,
            |i| i as u32 * 2_654_435 + 1,
            |x, i| x ^ (1 << (i * 5 % 32)),
            0,
            |f, v| f.u32s(v),
        );
        check_bulk(
            8,
            |i| (i * 37 + 11) as u8,
            |x, i| x ^ (1 << (i % 8)),
            0,
            |f, v| f.bytes(v),
        );
        check_bulk(64, |i| i % 3 == 0, |b, _| !b, false, |f, v| f.bools(v));
    }

    #[test]
    fn a_count_past_the_bytes_left_fails_at_its_first_missing_item() {
        let mut w = ByteWriter::default();
        w.u32(u32::MAX);
        w.f64(1.5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let items = std::cell::Cell::new(0);
        let read = read_vec(&mut r, |r| {
            items.set(items.get() + 1);
            r.f64()
        });
        assert!(read.is_err());
        assert_eq!((items.get(), r.remaining()), (2, 0));
    }

    #[test]
    fn what_the_walk_never_writes_is_refused() {
        let mut w = ByteWriter::default();
        for names in [["a", "b"], ["b", "a"], ["a", "a"]] {
            w.u32(2);
            names.iter().for_each(|n| w.str(n));
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut map = || read_map(&mut r, |_| Ok(()));
        assert!(map().is_ok());
        assert!(map().is_err(), "names out of order");
        assert!(map().is_err(), "a repeated name");
    }

    #[test]
    fn packed_bools_sit_at_their_own_bit() {
        for n in 0..=64 {
            for set in 0..n {
                let mut group = vec![false; n];
                group[set] = true;
                assert_eq!(pack_bools(&group), 1 << set, "bool {set} of {n}");
            }
            assert_eq!(
                pack_bools(&vec![true; n]),
                u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
            );
        }
    }

    #[test]
    fn variables_are_framed_by_name_presence_and_length() {
        let split_late = [
            ("a", Some(array(&[1.0, 2.0], 2))),
            ("b", Some(array(&[3.0], 1))),
        ];
        let split_early = [
            ("a", Some(array(&[1.0], 1))),
            ("b", Some(array(&[2.0, 3.0], 2))),
        ];
        assert_ne!(fp(&split_late), fp(&split_early));
        let renamed = [split_late[0].clone(), ("c", split_late[1].1.clone())];
        assert_ne!(fp(&split_late), fp(&renamed));
        let swapped = [split_late[1].clone(), split_late[0].clone()];
        assert_ne!(fp(&split_late), fp(&swapped));
        // A target no line ever assigned is not a zero.
        assert_ne!(fp(&[("a", None)]), fp(&[("a", Some(Value::Num(0.0)))]));
        assert_ne!(fp(&[("a", None)]), fp(&[]));
    }

    #[test]
    fn bit_patterns_count_and_buffer_identity_does_not() {
        let of = |v: Value| fp(&[("x", Some(v))]);
        assert_ne!(of(Value::Num(0.0)), of(Value::Num(-0.0)));
        assert_ne!(of(array(&[0.0], 1)), of(array(&[-0.0], 1)));
        let quiet = f64::from_bits(0x7FF8_0000_0000_0000);
        let payload = f64::from_bits(0x7FF8_0000_0000_0001);
        assert_ne!(of(Value::Num(quiet)), of(Value::Num(payload)));
        // Equal contents behind different `Arc`s (or one shared `Arc`) agree.
        let t = table(&[1.5, 2.5], &[0, 1], "rome", "price", 2);
        assert_eq!(
            of(t.clone()),
            of(table(&[1.5, 2.5], &[0, 1], "rome", "price", 2))
        );
        assert_eq!(of(t.clone()), of(t));
    }
}
