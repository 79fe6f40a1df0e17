//! Warm-start persistence: the on-disk codec for plan-cache seeds.
//!
//! A cold [`crate::plan::PlanCache`] miss runs the sampling phase —
//! dozens of down-scaled executions plus full-scale input
//! materialization, all driven by datagen calls against the workload's
//! [`crate::sampling::InputSource`]. Everything planning derives from
//! those calls is captured by two values: the [`SamplingReport`] and the
//! materialized full-scale [`Storage`]. This module serializes exactly
//! that pair per cache key into a single checksummed binary file, so a
//! restarted process re-plans **byte-identical** plans with *zero*
//! datagen calls — the warm half of the crash-recovery story, next to
//! the execution WAL in [`crate::resume`].
//!
//! ## Format
//!
//! ```text
//! [ magic "ISPWARM1" : 8 bytes ]
//! [ u64 payload_len (LE) ][ u64 fnv1a(payload) (LE) ][ payload ]
//! payload = [ u32 seed count ] then per seed [ key ][ sampling ][ storage ]
//! ```
//!
//! One frame for the whole file: warm state is written atomically at
//! save points (not appended), so a torn write is detected by the
//! length/checksum and the caller falls back to cold planning. The
//! payload is a straight little-endian encoding via the WAL's
//! [`ByteWriter`]/[`ByteReader`]; floats travel as IEEE-754 bit patterns
//! so round trips are exact and replanning from a loaded seed is
//! bit-identical to replanning from the live one. This module writes the
//! frame, the keys, the sampling report and the dataset names; each
//! value, each cost and each type tag is written and read by its own type
//! in `alang` ([`Value::canonical`] and [`Value::from_canonical`]).

use crate::profile::ProfileKey;
use crate::sampling::{LineSamples, SamplePoint, SamplingReport};
use alang::canonical::{read_map, read_vec};
use alang::copyelim::StaticType;
use alang::{LineCost, Storage, Value};
use isp_obs::wal::{fnv1a, ByteReader, ByteWriter};
use std::io;
use std::path::Path;

/// File header identifying a warm-start file and its format version.
pub const WARM_MAGIC: [u8; 8] = *b"ISPWARM1";

/// Bytes ahead of the payload: magic, length, checksum.
const HEADER_LEN: usize = 24;

/// Everything a plan-cache miss needs to re-plan without datagen: the
/// sampling measurements and the materialized full-scale input.
#[derive(Debug, Clone)]
pub struct WarmSeed {
    /// The down-scale sampling measurements (planning phase 1's output).
    pub sampling: SamplingReport,
    /// The materialized full-scale input (planning phase 6's output).
    pub storage: Storage,
}

/// Serializes warm seeds and writes the framed file.
///
/// # Errors
///
/// Propagates file write errors.
pub fn save_warm_file(path: &Path, seeds: &[(ProfileKey, WarmSeed)]) -> io::Result<()> {
    std::fs::write(path, encode_warm_bytes(seeds))
}

fn encode_warm_bytes(seeds: &[(ProfileKey, WarmSeed)]) -> Vec<u8> {
    let mut w = ByteWriter::default();
    w.u32(seeds.len() as u32);
    for (key, seed) in seeds {
        enc_key(&mut w, key);
        enc_sampling(&mut w, &seed.sampling);
        enc_storage(&mut w, &seed.storage);
    }
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&WARM_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Reads and decodes a file written by [`save_warm_file`].
///
/// # Errors
///
/// File I/O errors pass through; a bad magic, length, checksum, or
/// payload surfaces as [`io::ErrorKind::InvalidData`] so callers can
/// fall back to cold planning.
pub fn load_warm_file(path: &Path) -> io::Result<Vec<(ProfileKey, WarmSeed)>> {
    let bytes = std::fs::read(path)?;
    decode_warm_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

fn decode_warm_bytes(bytes: &[u8]) -> Result<Vec<(ProfileKey, WarmSeed)>, String> {
    if bytes.len() < HEADER_LEN || bytes[..8] != WARM_MAGIC {
        return Err("not a warm-start file (bad magic)".into());
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    // The checksum does not cover the length field: bound it before use.
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| len.checked_add(HEADER_LEN))
        .ok_or("warm-start length field overflows")?;
    let payload = bytes
        .get(HEADER_LEN..end)
        .ok_or("warm-start payload truncated")?;
    if end != bytes.len() {
        return Err("warm-start file has trailing bytes".into());
    }
    if fnv1a(payload) != checksum {
        return Err("warm-start checksum mismatch (torn write?)".into());
    }
    let mut r = ByteReader::new(payload);
    let seeds = read_vec(&mut r, |r| {
        let key = dec_key(r)?;
        let sampling = dec_sampling(r)?;
        let storage = dec_storage(r)?;
        Ok((key, WarmSeed { sampling, storage }))
    })?;
    if r.remaining() != 0 {
        return Err(format!(
            "warm-start payload has {} undecoded bytes",
            r.remaining()
        ));
    }
    Ok(seeds)
}

fn enc_key(w: &mut ByteWriter, key: &ProfileKey) {
    w.str(&key.0);
    w.u64(key.1);
}

fn dec_key(r: &mut ByteReader<'_>) -> Result<ProfileKey, String> {
    Ok((r.str()?, r.u64()?))
}

fn enc_sampling(w: &mut ByteWriter, s: &SamplingReport) {
    w.u32(s.lines.len() as u32);
    for line in &s.lines {
        w.u64(line.line as u64);
        w.u32(line.points.len() as u32);
        for p in &line.points {
            w.f64(p.scale);
            p.cost.canonical(w);
        }
    }
    w.u32(s.dataset_types.len() as u32);
    for (name, t) in &s.dataset_types {
        w.str(name);
        w.u8(t.code());
    }
}

fn dec_sampling(r: &mut ByteReader<'_>) -> Result<SamplingReport, String> {
    let lines = read_vec(r, |r| {
        let line = r.u64()? as usize;
        let points = read_vec(r, |r| {
            let scale = r.f64()?;
            let cost = LineCost::from_canonical(r)?;
            Ok(SamplePoint { scale, cost })
        })?;
        Ok(LineSamples { line, points })
    })?;
    let dataset_types = read_map(r, |r| StaticType::from_code(r.u8()?))?;
    Ok(SamplingReport {
        lines,
        dataset_types: dataset_types.into_iter().collect(),
    })
}

fn enc_storage(w: &mut ByteWriter, storage: &Storage) {
    let names: Vec<&str> = storage.names().collect();
    w.u32(names.len() as u32);
    for name in names {
        w.str(name);
        storage
            .get(name)
            .expect("name came from the storage")
            .canonical(w);
    }
}

fn dec_storage(r: &mut ByteReader<'_>) -> Result<Storage, String> {
    let mut storage = Storage::new();
    for (name, value) in read_map(r, Value::from_canonical)? {
        storage.insert(name, value);
    }
    Ok(storage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alang::forest::{Forest, Tree, TreeNode};
    use alang::matrix::Matrix;
    use alang::table::{Column, Table};
    use alang::value::{ArrayVal, BoolArrayVal, EncodedVal};
    use csd_sim::wire::{ByteOrder, Codec, Encoding};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn sample_storage() -> Storage {
        let mut st = Storage::new();
        st.insert("num", Value::Num(3.5));
        st.insert("flag", Value::Bool(true));
        st.insert("label", Value::Str("warm".into()));
        st.insert(
            "arr",
            Value::Array(ArrayVal::with_logical(vec![1.0, -2.5, 3.25], 1_000_000)),
        );
        st.insert(
            "mask",
            Value::BoolArray(BoolArrayVal::with_logical(vec![true, false, true], 999)),
        );
        st.insert(
            "tab",
            Value::Table(
                Table::with_logical_rows(
                    vec![
                        ("price".into(), Column::F64(Arc::new(vec![1.5, 2.5]))),
                        (
                            "city".into(),
                            Column::Dict {
                                codes: Arc::new(vec![0, 1]),
                                dict: Arc::new(vec!["a".into(), "b".into()]),
                            },
                        ),
                    ],
                    5_000,
                )
                .expect("table"),
            ),
        );
        let m = Matrix::with_logical(vec![0.0, 1.0, 2.0, 0.0], 2, 2, 100, 100).expect("matrix");
        st.insert("csr", Value::Csr(m.to_csr()));
        st.insert("mat", Value::Matrix(m));
        let wire: Vec<f64> = (0..5000).map(|i| f64::from(i % 13)).collect();
        st.insert(
            "wire",
            Value::Encoded(EncodedVal::from_f64s(
                Encoding {
                    codec: Codec::Gzip,
                    shuffle: true,
                    byte_order: ByteOrder::Big,
                    fill_value: Some(-9999.0),
                },
                &wire,
                5_000_000,
            )),
        );
        st.insert(
            "model",
            Value::Forest(
                Forest::new(
                    vec![Tree::new(vec![
                        TreeNode::split(0, 0.5, 1, 2),
                        TreeNode::leaf(-1.0),
                        TreeNode::leaf(1.0),
                    ])
                    .expect("tree")],
                    3,
                )
                .expect("forest"),
            ),
        );
        st
    }

    fn sample_report() -> SamplingReport {
        let cost = LineCost {
            compute_ops: 100,
            storage_bytes: 800,
            bytes_in: 40,
            bytes_out: 10,
            copy_bytes: 20,
            eliminable_copy_bytes: 20,
            calls: 2,
        };
        let dataset_types = [
            StaticType::Num,
            StaticType::Bool,
            StaticType::Str,
            StaticType::Array,
            StaticType::BoolArray,
            StaticType::Table,
            StaticType::Matrix,
            StaticType::Csr,
            StaticType::Forest,
            StaticType::Encoded,
            StaticType::Unknown,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, t)| (format!("d{i}"), t))
        .collect();
        SamplingReport {
            lines: vec![LineSamples {
                line: 0,
                points: vec![
                    SamplePoint {
                        scale: 2f64.powi(-10),
                        cost,
                    },
                    SamplePoint {
                        scale: 2f64.powi(-9),
                        cost,
                    },
                ],
            }],
            dataset_types,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("activepy_warm_{}_{name}.bin", std::process::id()))
    }

    #[test]
    fn warm_file_round_trips_every_value_kind() {
        let path = tmp("round_trip");
        let key: ProfileKey = ("workload".into(), 0xBEEF);
        let seed = WarmSeed {
            sampling: sample_report(),
            storage: sample_storage(),
        };
        save_warm_file(&path, &[(key.clone(), seed.clone())]).expect("save");
        let seeds = load_warm_file(&path).expect("load");
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].0, key);
        assert_eq!(seeds[0].1.sampling, seed.sampling);
        // Storage has no PartialEq; compare via per-name value equality.
        let loaded = &seeds[0].1.storage;
        let orig = &seed.storage;
        let names: Vec<&str> = orig.names().collect();
        assert_eq!(loaded.names().collect::<Vec<_>>(), names);
        for name in names {
            assert_eq!(
                loaded.get(name).expect("loaded"),
                orig.get(name).expect("orig"),
                "dataset `{name}`"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn value_layout_is_byte_identical_to_the_hand_written_codec() {
        // Length and FNV-1a of what the field-by-field `enc_value` this
        // module once had wrote for the same storage (recorded from that
        // codec, less the integer column the layout no longer has):
        // ISPWARM1 did not change.
        let mut w = ByteWriter::default();
        enc_storage(&mut w, &sample_storage());
        let bytes = w.into_bytes();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (853, 0xa690_b9bc_0b5d_9fa0));
    }

    #[test]
    fn warm_file_bytes_are_pinned() {
        // One seed: every value kind, every static type, two sample
        // points. Recorded when the sampling report stopped carrying its
        // total (52 bytes less than the 1 171 before); the value bytes are
        // the 853 pinned above.
        let path = tmp("pinned");
        let seed = WarmSeed {
            sampling: sample_report(),
            storage: sample_storage(),
        };
        save_warm_file(&path, &[(("workload".into(), 0xBEEF), seed)]).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (1119, 0x89db_7c63_9c2d_18a1));
    }

    #[test]
    fn a_file_with_the_old_stored_total_is_invalid_data() {
        // The layout before the total was derived: the sampling report
        // followed by the sum of its points' costs, then the storage.
        let sampling = sample_report();
        let mut w = ByteWriter::default();
        w.u32(1);
        enc_key(&mut w, &("workload".into(), 0xBEEF));
        enc_sampling(&mut w, &sampling);
        sampling.total_cost().canonical(&mut w);
        enc_storage(&mut w, &sample_storage());
        let path = tmp("old_total");
        std::fs::write(&path, framed(&w.into_bytes())).expect("write");
        let err = load_warm_file(&path).expect_err("an old-layout file read as seeds");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_warm_file_is_invalid_data_not_garbage() {
        let path = tmp("corrupt");
        save_warm_file(&path, &[]).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a payload byte (or the checksum itself when empty).
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let err = load_warm_file(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncation is detected too.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let err = load_warm_file(&path).expect_err("truncated");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_length_field_past_the_address_space_is_invalid_data() {
        let path = tmp("hostile_len");
        let mut bytes = WARM_MAGIC.to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let err = load_warm_file(&path).expect_err("must fail");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// `payload` under a fresh header: right length, right checksum, so
    /// the bytes reach the decoder.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = WARM_MAGIC.to_vec();
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Refused, or read back as seeds that write the very same bytes; a
    /// panic names `case`. Returns whether the bytes were refused.
    fn refused_or_exact(bytes: &[u8], case: &str) -> bool {
        let decoded = std::panic::catch_unwind(|| decode_warm_bytes(bytes))
            .unwrap_or_else(|_| panic!("{case}: the decoder panicked"));
        match decoded {
            Err(_) => true,
            Ok(seeds) => {
                assert!(
                    encode_warm_bytes(&seeds) == bytes,
                    "{case}: read back other bytes"
                );
                false
            }
        }
    }

    /// A bit flip, or a `u32`/`u64` overwrite — half of the `u32`s on a
    /// field that holds a small count — with a hostile value.
    fn mutate(payload: &mut [u8], counts: &[usize], rng: &mut StdRng) {
        let left = payload.len() as u32;
        match rng.gen_range(0..3) {
            0 => payload[rng.gen_range(0..payload.len())] ^= 1u8 << rng.gen_range(0..8u32),
            1 => {
                let at = if rng.gen_bool(0.5) {
                    counts[rng.gen_range(0..counts.len())]
                } else {
                    rng.gen_range(0..payload.len() - 3)
                };
                let hostile = [
                    0,
                    1,
                    left / 8,
                    left + 1,
                    u32::MAX,
                    rng.gen_range(0..=u32::MAX),
                ];
                let v = hostile[rng.gen_range(0..hostile.len())];
                payload[at..at + 4].copy_from_slice(&v.to_le_bytes());
            }
            _ => {
                let at = rng.gen_range(0..payload.len() - 7);
                let hostile = [
                    0,
                    1,
                    left.into(),
                    1 << 32,
                    u64::MAX,
                    rng.gen_range(0..=u64::MAX),
                ];
                let v = hostile[rng.gen_range(0..hostile.len())];
                payload[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
    }

    #[test]
    fn mutated_warm_files_are_refused_or_read_back_exactly() {
        const MUTATIONS: u64 = 2_400;
        let seed = WarmSeed {
            sampling: sample_report(),
            storage: sample_storage(),
        };
        let file = encode_warm_bytes(&[(("workload".into(), 0xBEEF), seed)]);
        assert!(!refused_or_exact(&file, "the unmutated file"));
        let payload = &file[HEADER_LEN..];
        for cut in 0..file.len() {
            assert!(refused_or_exact(
                &file[..cut],
                &format!("file cut at {cut}")
            ));
            if cut < payload.len() {
                let case = format!("payload cut at {cut}");
                assert!(refused_or_exact(&framed(&payload[..cut]), &case), "{case}");
            }
        }
        let counts: Vec<usize> = (0..payload.len() - 3)
            .filter(|&at| {
                (1..=64).contains(&u32::from_le_bytes(
                    payload[at..at + 4].try_into().expect("4"),
                ))
            })
            .collect();
        let mut refused = 0;
        for case in 0..MUTATIONS {
            let mut rng = StdRng::seed_from_u64(0x57A_2400 + case);
            let mut mutated = payload.to_vec();
            for _ in 0..rng.gen_range(1..=3) {
                mutate(&mut mutated, &counts, &mut rng);
            }
            let what = format!("mutation seed {:#x}", 0x57A_2400 + case);
            refused += u64::from(refused_or_exact(&framed(&mutated), &what));
        }
        // Both outcomes are exercised: a flipped float reads back, a
        // broken count or tag is refused.
        assert!(
            refused > MUTATIONS / 4 && refused < MUTATIONS,
            "{refused} refused"
        );
    }
}
