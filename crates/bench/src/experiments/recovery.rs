//! Recovery experiment: crash consistency and warm-start persistence,
//! as outcomes (what they cost in host time is `benchmark/`'s
//! `durable_exec` workload).
//!
//! Both parts run on fixed inputs:
//!
//! 1. **Resume** — the faulted workload below journaled to disk, then
//!    resumed from that journal cut at 50 % of its bytes. Resume
//!    re-executes deterministically and *verifies* the surviving prefix;
//!    the resumed run must reach the uninterrupted run's fingerprint.
//! 2. **Warm-start planning** — a cold `PlanCache::plan_for` persisted
//!    with `save_warm`, then re-planned in a fresh cache from the
//!    persisted seed: one datagen call, the Table-I input at scale 1.0 and
//!    no sampling scale, and the same plan fingerprint.
//!
//! The same workload backs `repro --journal/--resume`, so the CI
//! kill-resume smoke test and this experiment exercise one code path.

use std::sync::Mutex;

use activepy::exec::{execute, ExecOptions, RunReport};
use activepy::runtime::ActivePy;
use activepy::{ExecJournal, PlanCache};
use alang::builtins::Storage;
use alang::parser::parse;
use alang::value::ArrayVal;
use alang::Value;
use csd_sim::fault::FaultPlan;
use csd_sim::{EngineKind, SystemConfig};
use isp_obs::wal::read_wal;
use serde::{Content, Serialize};

/// Fixed seed for the injected transients: same seed, same journal, same
/// BENCH_repro.json.
pub const RECOVERY_SEED: u64 = 0x0E57_0E57;

/// The journaled workload: a mixed pipeline with device-resident scans
/// (region chunk records) and host lines (host-line records).
const SRC: &str = "a = scan('v')\n\
                   b = (a * 2) + 1\n\
                   c = sum((b * b))\n\
                   d = scan('w')\n\
                   e = abs(d - mean(d))\n\
                   f = sum(e) + c\n\
                   g = (f / 2) + 1\n\
                   h = g * 3\n";

/// Placements: the array pipeline on the CSD, the scalar tail on the
/// host.
const PLACEMENTS: [EngineKind; 8] = [
    EngineKind::Cse,
    EngineKind::Cse,
    EngineKind::Cse,
    EngineKind::Cse,
    EngineKind::Cse,
    EngineKind::Host,
    EngineKind::Host,
    EngineKind::Host,
];

fn storage() -> Storage {
    let mut st = Storage::new();
    st.insert(
        "v",
        Value::Array(ArrayVal::with_logical(
            (0..200_000).map(|i| f64::from(i % 100)).collect(),
            1_000_000_000,
        )),
    );
    st.insert(
        "w",
        Value::Array(ArrayVal::with_logical(
            (0..200_000).map(|i| f64::from(i % 97) - 48.0).collect(),
            500_000_000,
        )),
    );
    st
}

fn faults() -> FaultPlan {
    FaultPlan::none()
        .with_seed(RECOVERY_SEED)
        .with_flash_read_error_prob(0.05)
        .with_nvme_error_prob(0.05)
        .with_dma_error_prob(0.05)
}

/// One journaled (or journal-disabled) execution of the recovery
/// workload. Shared with `repro --journal/--resume`.
///
/// # Panics
///
/// Panics if the fixed workload fails to execute — it cannot, short of a
/// runtime bug.
#[must_use]
pub fn run_once(journal: ExecJournal) -> RunReport {
    let program = parse(SRC).expect("recovery workload parses");
    let st = storage();
    let mut system = SystemConfig::paper_default().build();
    let opts = ExecOptions::activepy()
        .with_faults(faults())
        .with_journal(journal);
    execute(&program, &st, &PLACEMENTS, &mut system, &opts, None, &[])
        .expect("recovery workload executes")
}

/// The `recovery` section of BENCH_repro.json.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Records the uninterrupted journal holds.
    pub journal_records: usize,
    /// Bytes of the uninterrupted journal file.
    pub journal_bytes: u64,
    /// Resumed and uninterrupted fingerprints agree. Must be `true`.
    pub resume_fingerprint_match: bool,
    /// Datagen calls the warm path made, serialized as their count. Must
    /// be exactly one, at scale 1.0.
    pub warm_datagen_calls: Scales,
    /// Warm and cold plan fingerprints agree. Must be `true`.
    pub warm_plan_match: bool,
}

/// The scales an input source was asked for, in call order.
#[derive(Debug, Clone, PartialEq)]
pub struct Scales(pub Vec<f64>);

impl Serialize for Scales {
    fn serialize_content(&self) -> Content {
        self.0.len().serialize_content()
    }
}

fn temp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("activepy_bench_{}_{tag}", std::process::id()))
}

/// Runs both parts.
///
/// # Panics
///
/// Panics on temp-file I/O failure or if a fixed workload fails.
#[must_use]
pub fn run() -> Report {
    // 1. Resume: cut the journal at 50 % of its bytes, resume, and
    // compare against the uninterrupted journaled run.
    let wal = temp("resume.wal");
    let full = run_once(ExecJournal::record_to(&wal).expect("create journal"));
    let bytes = std::fs::read(&wal).expect("journal readable");
    let journal_records = read_wal(&wal).expect("journal parses").records.len();
    std::fs::write(&wal, &bytes[..bytes.len() / 2]).expect("cut journal");
    let (journal, _) = ExecJournal::resume_from(&wal).expect("resume");
    let resumed = run_once(journal);
    std::fs::remove_file(&wal).ok();

    // 2. Warm-start planning, on a registered workload.
    let w = isp_workloads::by_name("TPC-H-6").expect("registered");
    let program = w.program().expect("registered workloads parse");
    let config = SystemConfig::paper_default();
    let rt = ActivePy::new();
    let cold_cache = PlanCache::new();
    let cold_plan = cold_cache
        .plan_for(&rt, w.name(), &program, &w, &config)
        .expect("cold plan");
    let warm_file = temp("warm.bin");
    cold_cache.save_warm(&warm_file).expect("save warm file");
    // A fresh cache, so the lookup is a true warm start (a second lookup
    // on `cold_cache` would be a plain hit).
    let warm_cache = PlanCache::new();
    warm_cache.load_warm(&warm_file).expect("load warm file");
    std::fs::remove_file(&warm_file).ok();
    let asked = Mutex::new(Vec::new());
    let counting = |scale: f64| {
        asked.lock().expect("unpoisoned").push(scale);
        w.storage_at(scale)
    };
    let warm_plan = warm_cache
        .plan_for(&rt, w.name(), &program, &counting, &config)
        .expect("warm plan");

    Report {
        journal_records,
        journal_bytes: bytes.len() as u64,
        resume_fingerprint_match: resumed.values_fingerprint == full.values_fingerprint,
        warm_datagen_calls: Scales(asked.into_inner().expect("unpoisoned")),
        warm_plan_match: activepy::plan_fingerprint(&cold_plan)
            == activepy::plan_fingerprint(&warm_plan),
    }
}

/// Prints the recovery experiment.
pub fn print(r: &Report) {
    println!("== Recovery: journal, resume, warm start ==");
    println!(
        "journal size:   {} records, {} bytes",
        r.journal_records, r.journal_bytes
    );
    println!(
        "resume:         from 50% of the journal, fingerprints match: {}",
        r.resume_fingerprint_match
    );
    println!(
        "warm start:     datagen calls at scales {:?} (must be [1.0]), plans match: {}",
        r.warm_datagen_calls.0, r.warm_plan_match
    );
}

/// Invariant check for CI.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check(r: &Report) -> Result<(), String> {
    if !r.resume_fingerprint_match {
        return Err("resumed run diverged from the uninterrupted run".into());
    }
    if !r.warm_plan_match {
        return Err("warm-started plan diverged from the cold plan".into());
    }
    if r.warm_datagen_calls.0 != [1.0] {
        return Err(format!(
            "warm start drew inputs at scales {:?} (must be the one Table-I input, [1.0])",
            r.warm_datagen_calls.0
        ));
    }
    if r.journal_records == 0 {
        return Err("journaled run produced an empty journal".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_benchmark_holds_its_invariants() {
        let report = run();
        check(&report).expect("recovery invariants");
        // The journaled workload really exercises every record family a
        // region run can emit: chunks dominate, and the host tail lines
        // land too.
        assert!(report.journal_records > 10, "{report:?}");
        assert!(report.journal_bytes > 100, "{report:?}");
    }
}
