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
//! bit-identical to replanning from the live one.

use crate::profile::ProfileKey;
use crate::sampling::{LineSamples, SamplePoint, SamplingReport};
use alang::copyelim::StaticType;
use alang::forest::{Forest, Tree, TreeNode};
use alang::matrix::{Csr, Matrix};
use alang::table::{Column, Table};
use alang::value::{ArrayVal, BoolArrayVal, EncodedVal};
use alang::{LineCost, Storage, Value};
use csd_sim::wire::{ByteOrder, Codec, Encoding};
use isp_obs::wal::{fnv1a, ByteReader, ByteWriter};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// File header identifying a warm-start file and its format version.
pub const WARM_MAGIC: [u8; 8] = *b"ISPWARM1";

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
    let mut w = ByteWriter::default();
    w.u32(seeds.len() as u32);
    for (key, seed) in seeds {
        enc_key(&mut w, key);
        enc_sampling(&mut w, &seed.sampling);
        enc_storage(&mut w, &seed.storage);
    }
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&WARM_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    std::fs::write(path, out)
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
    if bytes.len() < 24 || bytes[..8] != WARM_MAGIC {
        return Err("not a warm-start file (bad magic)".into());
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = bytes
        .get(24..24 + len)
        .ok_or("warm-start payload truncated")?;
    if 24 + len != bytes.len() {
        return Err("warm-start file has trailing bytes".into());
    }
    if fnv1a(payload) != checksum {
        return Err("warm-start checksum mismatch (torn write?)".into());
    }
    let mut r = ByteReader::new(payload);
    let mut seeds = Vec::new();
    for _ in 0..r.u32()? {
        let key = dec_key(&mut r)?;
        let sampling = dec_sampling(&mut r)?;
        let storage = dec_storage(&mut r)?;
        seeds.push((key, WarmSeed { sampling, storage }));
    }
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

fn enc_cost(w: &mut ByteWriter, c: &LineCost) {
    w.u64(c.compute_ops);
    w.u64(c.storage_bytes);
    w.u64(c.bytes_in);
    w.u64(c.bytes_out);
    w.u64(c.copy_bytes);
    w.u64(c.eliminable_copy_bytes);
    w.u32(c.calls);
}

fn dec_cost(r: &mut ByteReader<'_>) -> Result<LineCost, String> {
    Ok(LineCost {
        compute_ops: r.u64()?,
        storage_bytes: r.u64()?,
        bytes_in: r.u64()?,
        bytes_out: r.u64()?,
        copy_bytes: r.u64()?,
        eliminable_copy_bytes: r.u64()?,
        calls: r.u32()?,
    })
}

fn static_type_code(t: StaticType) -> u8 {
    match t {
        StaticType::Num => 0,
        StaticType::Bool => 1,
        StaticType::Str => 2,
        StaticType::Array => 3,
        StaticType::BoolArray => 4,
        StaticType::Table => 5,
        StaticType::Matrix => 6,
        StaticType::Csr => 7,
        StaticType::Forest => 8,
        StaticType::Unknown => 9,
        StaticType::Encoded => 10,
    }
}

fn static_type_from(code: u8) -> Result<StaticType, String> {
    Ok(match code {
        0 => StaticType::Num,
        1 => StaticType::Bool,
        2 => StaticType::Str,
        3 => StaticType::Array,
        4 => StaticType::BoolArray,
        5 => StaticType::Table,
        6 => StaticType::Matrix,
        7 => StaticType::Csr,
        8 => StaticType::Forest,
        9 => StaticType::Unknown,
        10 => StaticType::Encoded,
        other => return Err(format!("unknown static type code {other}")),
    })
}

fn enc_sampling(w: &mut ByteWriter, s: &SamplingReport) {
    w.u32(s.lines.len() as u32);
    for line in &s.lines {
        w.u64(line.line as u64);
        w.u32(line.points.len() as u32);
        for p in &line.points {
            w.f64(p.scale);
            enc_cost(w, &p.cost);
        }
    }
    w.u32(s.dataset_types.len() as u32);
    for (name, t) in &s.dataset_types {
        w.str(name);
        w.u8(static_type_code(*t));
    }
    enc_cost(w, &s.total_sampling_cost);
}

fn dec_sampling(r: &mut ByteReader<'_>) -> Result<SamplingReport, String> {
    let mut lines = Vec::new();
    for _ in 0..r.u32()? {
        let line = r.u64()? as usize;
        let mut points = Vec::new();
        for _ in 0..r.u32()? {
            points.push(SamplePoint {
                scale: r.f64()?,
                cost: dec_cost(r)?,
            });
        }
        lines.push(LineSamples { line, points });
    }
    let mut dataset_types = alang::copyelim::DatasetTypes::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let t = static_type_from(r.u8()?)?;
        dataset_types.insert(name, t);
    }
    let total_sampling_cost = dec_cost(r)?;
    Ok(SamplingReport {
        lines,
        dataset_types,
        total_sampling_cost,
    })
}

fn enc_storage(w: &mut ByteWriter, storage: &Storage) {
    let names: Vec<&str> = storage.names().collect();
    w.u32(names.len() as u32);
    for name in names {
        w.str(name);
        // The value layout is `Value::canonical` as the writer sees it;
        // `dec_value` below is its inverse.
        storage
            .get(name)
            .expect("name came from the storage")
            .canonical(w);
    }
}

fn dec_storage(r: &mut ByteReader<'_>) -> Result<Storage, String> {
    let mut storage = Storage::new();
    for _ in 0..r.u32()? {
        let name = r.str()?;
        let value = dec_value(r)?;
        storage.insert(name, value);
    }
    Ok(storage)
}

fn dec_encoding(r: &mut ByteReader<'_>) -> Result<Encoding, String> {
    let codec = match r.u8()? {
        0 => Codec::Gzip,
        1 => Codec::Zlib,
        2 => Codec::None,
        other => return Err(format!("unknown codec tag {other}")),
    };
    let shuffle = r.bool()?;
    let byte_order = match r.u8()? {
        0 => ByteOrder::Little,
        1 => ByteOrder::Big,
        other => return Err(format!("unknown byte-order tag {other}")),
    };
    let fill_value = if r.bool()? { Some(r.f64()?) } else { None };
    Ok(Encoding {
        codec,
        shuffle,
        byte_order,
        fill_value,
    })
}

/// Reads `n` items. Capacity is bounded by the bytes left, so a corrupt
/// count fails at the first missing item instead of allocating for it.
fn dec_n<T>(
    r: &mut ByteReader<'_>,
    n: usize,
    item: impl Fn(&mut ByteReader<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        out.push(item(r)?);
    }
    Ok(out)
}

/// Reads a `u32` count and that many items.
fn dec_vec<T>(
    r: &mut ByteReader<'_>,
    item: impl Fn(&mut ByteReader<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let n = r.u32()? as usize;
    dec_n(r, n, item)
}

/// The inverse of [`Value::canonical`] as the [`ByteWriter`] sink spells it.
fn dec_value(r: &mut ByteReader<'_>) -> Result<Value, String> {
    Ok(match r.u8()? {
        0 => Value::Num(r.f64()?),
        1 => Value::Bool(r.bool()?),
        2 => Value::Str(r.str()?),
        3 => {
            let logical = r.u64()?;
            Value::Array(ArrayVal::with_logical(dec_vec(r, |r| r.f64())?, logical))
        }
        4 => {
            let logical = r.u64()?;
            Value::BoolArray(BoolArrayVal::with_logical(
                dec_vec(r, |r| r.bool())?,
                logical,
            ))
        }
        5 => {
            let logical_rows = r.u64()?;
            let columns = dec_vec(r, |r| {
                let name = r.str()?;
                let col = match r.u8()? {
                    0 => Column::F64(Arc::new(dec_vec(r, |r| r.f64())?)),
                    1 => Column::I64(Arc::new(dec_vec(r, |r| Ok(r.u64()? as i64))?)),
                    2 => Column::Dict {
                        codes: Arc::new(dec_vec(r, |r| r.u32())?),
                        dict: Arc::new(dec_vec(r, |r| r.str())?),
                    },
                    other => return Err(format!("unknown column tag {other}")),
                };
                Ok((name, col))
            })?;
            Value::Table(Table::with_logical_rows(columns, logical_rows).map_err(err_str)?)
        }
        6 => {
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            let logical_rows = r.u64()?;
            let logical_cols = r.u64()?;
            let n = rows.checked_mul(cols).ok_or("matrix dimensions overflow")?;
            let data = dec_n(r, n, |r| r.f64())?;
            Value::Matrix(
                Matrix::with_logical(data, rows, cols, logical_rows, logical_cols)
                    .map_err(err_str)?,
            )
        }
        7 => {
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            let logical_rows = r.u64()?;
            let logical_cols = r.u64()?;
            let logical_nnz = r.u64()?;
            let row_ptr = dec_vec(r, |r| r.u32())?;
            if row_ptr.len().checked_sub(1) != Some(rows) {
                return Err(format!(
                    "csr row_ptr length {} does not match {rows} rows",
                    row_ptr.len()
                ));
            }
            let (col_idx, values) = dec_vec(r, |r| Ok((r.u32()?, r.f64()?)))?
                .into_iter()
                .unzip();
            Value::Csr(
                Csr::from_parts(
                    row_ptr,
                    col_idx,
                    values,
                    cols,
                    logical_rows,
                    logical_cols,
                    logical_nnz,
                )
                .map_err(err_str)?,
            )
        }
        8 => {
            let features = r.u32()?;
            let trees = dec_vec(r, |r| {
                let nodes = dec_vec(r, |r| {
                    Ok(TreeNode {
                        feature: r.u32()?,
                        threshold: r.f64()?,
                        left: r.u32()?,
                        right: r.u32()?,
                        value: r.f64()?,
                    })
                })?;
                Tree::new(nodes).map_err(err_str)
            })?;
            Value::Forest(Forest::new(trees, features).map_err(err_str)?)
        }
        9 => {
            let encoding = dec_encoding(r)?;
            let logical_len = r.u64()?;
            let encoded_logical_bytes = r.u64()?;
            let actual_len = r.u32()? as usize;
            let chunks = dec_vec(r, |r| r.bytes())?;
            Value::Encoded(EncodedVal::from_parts(
                encoding,
                chunks,
                actual_len,
                logical_len,
                encoded_logical_bytes,
            ))
        }
        other => return Err(format!("unknown value tag {other}")),
    })
}

fn err_str(e: impl std::fmt::Display) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

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
                        ("qty".into(), Column::I64(Arc::new(vec![-3, 7]))),
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
        let mut dataset_types = alang::copyelim::DatasetTypes::new();
        dataset_types.insert("arr".into(), StaticType::Array);
        dataset_types.insert("tab".into(), StaticType::Table);
        dataset_types.insert("wire".into(), StaticType::Encoded);
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
            total_sampling_cost: cost,
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
        // module had before `Value::canonical` wrote for the same storage
        // (recorded at the parent commit): ISPWARM1 did not change.
        let mut w = ByteWriter::default();
        enc_storage(&mut w, &sample_storage());
        let bytes = w.into_bytes();
        assert_eq!((bytes.len(), fnv1a(&bytes)), (881, 0xc055_d51b_dd0c_467c));
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
}
