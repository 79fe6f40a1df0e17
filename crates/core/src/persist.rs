//! Warm-start persistence: the on-disk codec for plan-cache seeds.
//!
//! A cold [`crate::plan::PlanCache`] miss runs the sampling phase: the
//! program at the paper's four down-scales, each over an input drawn for
//! it by the workload's [`crate::sampling::InputSource`]. Everything
//! planning derives from those runs is the [`SamplingReport`], so a seed
//! is that report, keyed by the plan-cache key and tagged with the
//! fingerprint of the program it sampled. A restarted process that loads
//! the file plans a byte-identical plan from its seed after drawing only
//! the full-scale input the plan executes on (`storage_at(1.0)`), and
//! none of the four samples — the warm half of the crash-recovery story,
//! next to the execution WAL in [`crate::resume`].
//!
//! ## Format
//!
//! ```text
//! [ magic "ISPWARM2" : 8 bytes ]
//! [ u64 payload_len (LE) ][ u64 fnv1a(payload) (LE) ][ payload ]
//! payload = [ u32 seed count ] then per seed [ key ][ u64 program ][ sampling ]
//! ```
//!
//! One frame for the whole file: warm state is written atomically at
//! save points (not appended), so a torn write is detected by the
//! length/checksum and the caller falls back to cold planning. The
//! payload is a straight little-endian encoding via the WAL's
//! [`ByteWriter`]/[`ByteReader`]; floats travel as IEEE-754 bit patterns
//! so round trips are exact and planning from a loaded seed is
//! bit-identical to planning from the live report. Each cost and each
//! type tag is written and read by its own type in `alang`
//! ([`LineCost::canonical`], [`StaticType::code`]).

use crate::profile::ProfileKey;
use crate::sampling::{LineSamples, SamplePoint, SamplingReport};
use alang::canonical::{read_map, read_vec};
use alang::copyelim::StaticType;
use alang::{CanonicalSink, Fingerprinter, LineCost, Program};
use isp_obs::wal::{fnv1a, ByteReader, ByteWriter};
use std::io;
use std::path::Path;

/// File header identifying a warm-start file and its format version.
pub const WARM_MAGIC: [u8; 8] = *b"ISPWARM2";

/// Bytes ahead of the payload: magic, length, checksum.
const HEADER_LEN: usize = 24;

/// What a plan-cache miss needs to plan without sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmSeed {
    /// [`program_fingerprint`] of the program `sampling` was measured
    /// on: a seed plans that program only.
    pub program: u64,
    /// The down-scale sampling measurements (planning phase 1's output).
    pub sampling: SamplingReport,
}

/// The fingerprint of a program's line sources, in order. Two programs
/// that parse from the same lines are the same program.
#[must_use]
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut f = Fingerprinter::default();
    f.len(program.len());
    for line in program.lines() {
        f.str(&line.source);
    }
    f.finish()
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
        w.u64(seed.program);
        enc_sampling(&mut w, &seed.sampling);
    }
    framed(&w.into_bytes())
}

/// `payload` under its header: magic, length, checksum.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&WARM_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads and decodes a file written by [`save_warm_file`].
///
/// # Errors
///
/// File I/O errors pass through; a bad magic (an `ISPWARM1` file
/// included), length, checksum, or payload surfaces as
/// [`io::ErrorKind::InvalidData`] so callers can fall back to cold
/// planning.
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
        let program = r.u64()?;
        let sampling = dec_sampling(r)?;
        Ok((key, WarmSeed { program, sampling }))
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let dataset_types = StaticType::ALL
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

    fn sample_seed() -> (ProfileKey, WarmSeed) {
        let seed = WarmSeed {
            program: 0x0123_4567_89AB_CDEF,
            sampling: sample_report(),
        };
        (("workload".into(), 0xBEEF), seed)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("activepy_warm_{}_{name}.bin", std::process::id()))
    }

    #[test]
    fn warm_file_round_trips_key_program_and_sampling() {
        let path = tmp("round_trip");
        let seeds = [sample_seed()];
        save_warm_file(&path, &seeds).expect("save");
        let loaded = load_warm_file(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded, seeds);
    }

    #[test]
    fn warm_file_bytes_are_pinned() {
        // One seed: every static type, two sample points.
        let bytes = encode_warm_bytes(&[sample_seed()]);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (274, 0x5d0f_077d_d1fc_a923));
    }

    #[test]
    fn an_ispwarm1_file_is_invalid_data_and_plans_cold() {
        // The layout before seeds dropped their input: key, sampling, then
        // the storage section (here empty), under the old magic.
        let (key, seed) = sample_seed();
        let mut w = ByteWriter::default();
        w.u32(1);
        enc_key(&mut w, &key);
        enc_sampling(&mut w, &seed.sampling);
        w.u32(0);
        let mut bytes = framed(&w.into_bytes());
        bytes[..8].copy_from_slice(b"ISPWARM1");
        let path = tmp("ispwarm1");
        std::fs::write(&path, &bytes).expect("write");
        let cache = crate::plan::PlanCache::new();
        let err = cache
            .load_warm(&path)
            .expect_err("an ISPWARM1 file read as seeds");
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let program = alang::parser::parse("a = scan('v')\ns = sum(a)\n").expect("parse");
        let config = csd_sim::SystemConfig::paper_default();
        let rt = crate::runtime::ActivePy::new();
        let input = crate::sampling::test_input();
        cache
            .plan_for(&rt, &key.0, &program, &input, &config)
            .expect("cold plan");
        assert_eq!((cache.stats().misses, cache.warm_starts()), (1, 0));
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
        let file = encode_warm_bytes(&[sample_seed()]);
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
