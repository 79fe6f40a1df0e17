//! Crash-resume differential: random programs × random placements ×
//! random deterministic fault plans × a kill at a random byte offset of
//! the execution journal, across fleet sizes N ∈ {1, 4}. The invariants
//! the resume path must hold, for every draw:
//!
//! 1. **Same answer** — a run resumed from any prefix of the journal
//!    (including a torn mid-record tail) finishes with the exact
//!    `values_fingerprint` of the uninterrupted run, itself the clean
//!    unsharded run's; each fleet shard draws its own fault stream.
//! 2. **Same history** — after the resumed run completes, the journal
//!    file holds byte-for-byte the record stream of the uninterrupted
//!    run: replay verified the surviving prefix and append wrote the
//!    missing suffix, with no duplicates and no gaps.
//! 3. **Same accounting** — migrations and the recovery layer's stats
//!    (retries, transient faults, backoff) match the uninterrupted run
//!    exactly; retries consumed before the crash are re-consumed, not
//!    double-counted.
//!
//! Plus the warm-start half of persistence: a fresh process that loads a
//! warm file re-plans after drawing only the Table-I input (one datagen
//! call, at scale 1.0, and no sampling scale) and gets a byte-identical
//! plan, for a random-free program and for each of the 12 registered
//! workloads.

mod common;

use activepy::exec::{ExecOptions, RunReport};
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::sampling::InputSource;
use activepy::{ExecJournal, PlanCache};
use alang::parser::parse;
use common::contract::{resumed, same_accounting, truncate_at_fraction, wal_path, Case, WAL};
use common::{fault_params, storage};
use csd_sim::fault::FaultPlan;
use csd_sim::{ContentionScenario, EngineKind, SystemConfig};
use isp_obs::wal::{parse_wal_bytes, read_wal, FRAME_HEADER_LEN, WAL_MAGIC};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Kill-at-random-point chaos: record a journaled run, cut the journal at
/// an arbitrary byte offset, resume, and demand the uninterrupted outcome,
/// unsharded and as an N=4 fleet whose shards draw their own fault streams.
#[test]
fn resumed_runs_reach_the_uninterrupted_outcome() {
    WAL.check(
        (Case::placed(), fault_params(0.3), 0.0f64..1.0),
        |(case, faults, kill)| {
            let solo = ExecOptions::activepy().with_faults(faults.plan());
            let solo = |journal| case.run(&solo.clone().with_journal(journal));
            let Some((full, resumed_run)) = resumed(&case, kill, solo)? else {
                return Ok(case.ran(false));
            };
            same_accounting(&full, &resumed_run)?;
            // One stream: the shards in index order, then the tail.
            let fleet = |journal| {
                let opts = ExecOptions::activepy().with_journal(journal);
                case.fleet(4, &opts, Some(&faults))
            };
            let (full, resumed_run) =
                resumed(&case, kill, fleet)?.expect("a fleet runs where the unsharded run ran");
            prop_assert_eq!(
                full.recovered_transients(),
                resumed_run.recovered_transients()
            );
            Ok(case.ran(true))
        },
    );
}

/// A three-line CSD region under a fault plan heavy enough to force real
/// retry traffic, and that plan.
fn retry_heavy_run() -> (Case, FaultPlan) {
    let src = "a = scan('v')\nb = sum((a * 2))\nc = mean(scan('w'))\nd = (b + c)\n";
    let placements = vec![
        EngineKind::Cse,
        EngineKind::Cse,
        EngineKind::Cse,
        EngineKind::Host,
    ];
    let faults = FaultPlan::none()
        .with_seed(7)
        .with_flash_read_error_prob(0.25)
        .with_nvme_error_prob(0.2)
        .with_dma_error_prob(0.2);
    (Case::new(src, storage(), placements), faults)
}

/// The case under `faults`, journaled to `journal`.
fn journaled(
    case: &Case,
    faults: &FaultPlan,
    journal: ExecJournal,
) -> activepy::error::Result<RunReport> {
    case.run(
        &ExecOptions::activepy()
            .with_faults(faults.clone())
            .with_journal(journal),
    )
}

/// Satellite regression: retries consumed before the crash are
/// re-consumed against `max_retries` on resume, not double-counted. A
/// heavy transient fault plan guarantees real retry traffic, the cut at
/// 60% of the journal lands mid-stream, and the resumed accounting must
/// be bit-exact.
#[test]
fn resume_reconsumes_retries_exactly() {
    let (case, faults) = retry_heavy_run();

    let path = wal_path("retries");
    let journal = ExecJournal::record_to(&path).expect("create journal");
    let full = journaled(&case, &faults, journal).expect("uninterrupted run");
    assert!(
        full.metrics.recovery.retries > 0,
        "fault plan must force retries for the regression to bite"
    );

    truncate_at_fraction(&path, 0.6);
    let (journal, info) = ExecJournal::resume_from(&path).expect("resume");
    assert!(info.records > 0, "a 60% cut keeps some records");
    let resumed = journaled(&case, &faults, journal).expect("resumed run");

    same_accounting(&full, &resumed).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(full.values_fingerprint, resumed.values_fingerprint);
    std::fs::remove_file(&path).ok();
}

/// A run resumed against a *different* fault plan diverges from the
/// journal and must say so, not silently produce a different history.
#[test]
fn resume_against_different_faults_is_detected() {
    let src = "a = scan('v')\nb = sum((a * 3))\nc = (b / 2)\n";
    let case = Case::new(
        src,
        storage(),
        vec![EngineKind::Cse, EngineKind::Cse, EngineKind::Host],
    );
    let faults = FaultPlan::none()
        .with_seed(11)
        .with_flash_read_error_prob(0.3)
        .with_nvme_error_prob(0.3);

    let path = wal_path("divergence");
    let journal = ExecJournal::record_to(&path).expect("create journal");
    let full = journaled(&case, &faults, journal).expect("uninterrupted run");
    assert!(full.metrics.recovery.transient_faults > 0);

    let (journal, _) = ExecJournal::resume_from(&path).expect("resume");
    let err = journaled(&case, &faults.with_seed(12), journal)
        .expect_err("a different fault stream cannot match the journal");
    assert!(
        err.to_string().contains("journal divergence"),
        "unexpected error: {err}"
    );
    std::fs::remove_file(&path).ok();
}

/// Warm-start persistence: a fresh cache that loads the warm file plans
/// after one datagen call, at scale 1.0, and produces a byte-identical
/// plan.
#[test]
fn warm_start_replans_identically_from_the_table1_input_alone() {
    let src = "a = scan('v')\nb = scan('w')\nc = sum((a * 2))\nd = (c + mean(b))\n";
    let program = parse(src).expect("parses");
    let config = SystemConfig::paper_default();

    let input = common::Scaled::new(100);
    let input_at = |scale: f64| input.storage_at(scale);

    let path = std::env::temp_dir().join(format!("activepy_warm_{}.bin", std::process::id()));

    // Process 1: cold plan (datagen runs), then persist.
    let rt1 = ActivePy::with_options(ActivePyOptions::default());
    let cache1 = PlanCache::new();
    let cold_calls = AtomicU64::new(0);
    let counting1 = |scale: f64| {
        cold_calls.fetch_add(1, Ordering::Relaxed);
        input_at(scale)
    };
    let cold = cache1
        .plan_for(&rt1, "warm", &program, &counting1, &config)
        .expect("cold plan");
    assert!(
        cold_calls.load(Ordering::Relaxed) > 0,
        "cold planning must sample the input source"
    );
    cache1.save_warm(&path).expect("save warm file");

    // Process 2 (simulated): fresh cache, load, re-plan. The recorded
    // scales show the input source drew the plan's input and no sample.
    let rt2 = ActivePy::with_options(ActivePyOptions::default());
    let cache2 = PlanCache::new();
    let loaded = cache2.load_warm(&path).expect("load warm file");
    assert_eq!(loaded, 1, "one seed persisted");
    let warm_scales = Mutex::new(Vec::new());
    let counting2 = |scale: f64| {
        warm_scales.lock().expect("unpoisoned").push(scale);
        input_at(scale)
    };
    let warm = cache2
        .plan_for(&rt2, "warm", &program, &counting2, &config)
        .expect("warm plan");
    assert_eq!(
        warm_scales.into_inner().expect("unpoisoned"),
        [1.0],
        "a warm start draws the Table-I input and no sample"
    );
    assert_eq!(cache2.warm_starts(), 1);

    // Byte-identical planning output.
    assert_eq!(
        activepy::plan_fingerprint(&cold),
        activepy::plan_fingerprint(&warm),
        "warm plan fingerprint diverged from cold"
    );
    assert_eq!(
        format!("{:?}", cold.assignment),
        format!("{:?}", warm.assignment)
    );
    assert_eq!(cold.copy_elim, warm.copy_elim);
    assert_eq!(
        format!("{:?}", cold.predictions),
        format!("{:?}", warm.predictions)
    );

    // And identical execution.
    let out_cold = rt1
        .execute_plan(&cold, &config, ContentionScenario::none())
        .expect("cold run");
    let out_warm = rt2
        .execute_plan(&warm, &config, ContentionScenario::none())
        .expect("warm run");
    assert_eq!(
        out_cold.report.values_fingerprint,
        out_warm.report.values_fingerprint
    );
    std::fs::remove_file(&path).ok();
}

/// Each registered workload planned cold, saved, and planned again by a
/// fresh cache over fresh `Workload` values: every plan warm-starts to
/// its cold plan's fingerprint.
#[test]
fn every_registered_workload_warm_starts_to_its_cold_plan() {
    let config = SystemConfig::paper_default();
    let rt = ActivePy::new();
    let plan_all = |cache: &PlanCache| -> Vec<(String, u64)> {
        isp_workloads::full_set()
            .iter()
            .map(|w| {
                let program = w.program().expect("registered workloads parse");
                let plan = cache
                    .plan_for(&rt, w.name(), &program, w, &config)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                (w.name().to_owned(), activepy::plan_fingerprint(&plan))
            })
            .collect()
    };
    let cold_cache = PlanCache::new();
    let cold = plan_all(&cold_cache);
    let path = wal_path("warm_full_set");
    cold_cache.save_warm(&path).expect("save warm file");
    let warm_cache = PlanCache::new();
    assert_eq!(warm_cache.load_warm(&path).expect("load warm file"), 12);
    std::fs::remove_file(&path).ok();
    let warm = plan_all(&warm_cache);
    assert_eq!(warm_cache.warm_starts(), 12);
    assert_eq!(warm, cold, "a warm plan diverged from its cold plan");
}

/// Kill/resume chaos over a wire-format workload: the journaled decode
/// pipeline (scan_raw → decode on the CSD, under a retry-forcing fault
/// plan) resumes from cuts across the whole journal to the exact
/// uninterrupted fingerprint, and the resumed journal file is
/// byte-for-byte the uninterrupted record stream — decode chunks replay,
/// they do not re-execute differently.
#[test]
fn decode_workload_resumes_byte_exact() {
    let w = isp_workloads::by_name("LogGrep").expect("registered workload");
    // The workload's planned regime: the whole pipeline on the CSD.
    let placements = vec![EngineKind::Cse; w.program().expect("parses").len()];
    let case = Case::new(w.source(), w.storage_at(1.0 / 1024.0), placements);
    let faults = FaultPlan::none()
        .with_seed(23)
        .with_flash_read_error_prob(0.25)
        .with_nvme_error_prob(0.2)
        .with_dma_error_prob(0.15);
    for frac in [0.1, 0.5, 0.9] {
        let run = |journal| journaled(&case, &faults, journal);
        let runs = resumed(&case, frac, run).unwrap_or_else(|e| panic!("resume at {frac}: {e}"));
        let (full, resumed_run) = runs.expect("uninterrupted run");
        let retries = full.metrics.recovery.retries;
        assert!(
            retries > 0,
            "fault plan must force retries through the decode pipeline"
        );
        same_accounting(&full, &resumed_run).unwrap_or_else(|e| panic!("resume at {frac}: {e}"));
    }
}

/// What a kill, a bad sector or a hostile writer can leave of a journal.
/// Returns whether the mutation can forge frames (by moving whole valid
/// ones around); the others can only damage them.
fn mutate_wal(bytes: &mut Vec<u8>, frames: &[usize], rng: &mut StdRng) -> bool {
    match rng.gen_range(0..7) {
        // One to three bit flips.
        0 => {
            for _ in 0..rng.gen_range(1..=3) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
            }
        }
        // A truncation.
        1 => bytes.truncate(rng.gen_range(0..bytes.len())),
        // A truncation, then a bit flip in what is left.
        2 => {
            bytes.truncate(rng.gen_range(1..=bytes.len()));
            let at = rng.gen_range(0..bytes.len());
            bytes[at] ^= 1u8 << rng.gen_range(0..8u32);
        }
        // A length field promising what no file holds.
        3 => {
            let at = frames[rng.gen_range(0..frames.len())];
            const HOSTILE: [u32; 5] = [u32::MAX, u32::MAX - 11, 1 << 31, (1 << 16) + 1, 0];
            let len = HOSTILE[rng.gen_range(0..HOSTILE.len())];
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
        // The start of a record that never finished, after the last one.
        5 => {
            for _ in 0..rng.gen_range(1..=FRAME_HEADER_LEN + 4) {
                bytes.push(rng.gen_range(0..=u8::MAX));
            }
        }
        // A stray byte (everything after it arrives one byte late).
        4 => bytes.insert(rng.gen_range(0..=bytes.len()), rng.gen_range(0..=u8::MAX)),
        // A splice: one range of the file copied over another.
        _ => {
            let len = rng.gen_range(1..=bytes.len() / 2);
            let from = rng.gen_range(0..=bytes.len() - len);
            let to = rng.gen_range(0..=bytes.len() - len);
            bytes.copy_within(from..from + len, to);
            return true;
        }
    }
    false
}

/// Fuzz of the `ISPWAL01` reader: 2 000 seeded mutations of a real
/// journaled run's WAL. Whatever the bytes, `read_wal` returns the records
/// of a valid prefix and says whether it dropped a tail (or an I/O error);
/// it never panics, and it allocates nothing a length field asked for —
/// its only allocations are the file's bytes and one record per frame that
/// validated, which the last assertion bounds by the input length.
#[test]
fn mutated_journals_read_as_a_valid_prefix_or_an_error_never_a_panic() {
    const CASES: u64 = 2_000;
    let (case, faults) = retry_heavy_run();
    let path = wal_path("fuzz");
    let journal = ExecJournal::record_to(&path).expect("create journal");
    journaled(&case, &faults, journal).expect("journaled run");
    let base = std::fs::read(&path).expect("journal exists");
    let reference = parse_wal_bytes(&base);
    assert!(!reference.torn && reference.records.len() > 64);
    // Where each frame starts, by walking the length fields.
    let mut frames = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while pos < base.len() {
        frames.push(pos);
        let len = u32::from_le_bytes(base[pos..pos + 4].try_into().expect("four bytes"));
        pos += FRAME_HEADER_LEN + len as usize;
    }
    assert_eq!(frames.len(), reference.records.len());

    let (mut whole, mut cut, mut empty) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let seed = 0x15_9A10_0000 + case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = base.clone();
        let may_forge = mutate_wal(&mut bytes, &frames, &mut rng);
        std::fs::write(&path, &bytes).expect("write mutated journal");
        let read = std::panic::catch_unwind(|| read_wal(&path))
            .unwrap_or_else(|_| panic!("wal fuzz seed {seed:#x}: the reader panicked"));
        let Ok(out) = read else { continue };
        let what = format!("wal fuzz seed {seed:#x} ({} bytes)", bytes.len());
        let valid_len = usize::try_from(out.valid_len).expect("offset fits usize");
        assert!(valid_len <= bytes.len(), "{what}: prefix past the end");
        assert_eq!(out.torn, valid_len != bytes.len(), "{what}: torn flag");
        let again = parse_wal_bytes(&bytes[..valid_len]);
        assert_eq!(again.records, out.records, "{what}: prefix re-reads");
        assert!(!again.torn, "{what}: the prefix itself is torn");
        if !may_forge {
            assert!(
                reference.records.starts_with(&out.records),
                "{what}: damage produced a record the run never wrote"
            );
        }
        assert!(
            out.records.len() * (FRAME_HEADER_LEN + 1) <= bytes.len(),
            "{what}: {} records from {} bytes",
            out.records.len(),
            bytes.len()
        );
        match out.records.len() {
            0 => empty += 1,
            n if n == reference.records.len() => whole += 1,
            _ => cut += 1,
        }
    }
    // The mutator must reach every outcome, not only break the header.
    assert!(whole > CASES / 20, "only {whole} journals survived whole");
    assert!(cut > CASES / 2, "only {cut} journals were cut mid-stream");
    assert!(empty > 0, "no journal lost its header");
    std::fs::remove_file(&path).ok();
}
