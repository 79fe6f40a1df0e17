//! Crash-consistent resume: the execution journal handle and its
//! replay-verification state machine.
//!
//! [`ExecJournal`] is the runtime-side handle over the binary WAL in
//! [`isp_obs::wal`]. It follows the same zero-cost pattern as the tracer
//! and profile recorder: a disabled handle is `None` behind one branch,
//! so unjournaled runs take no locks and allocate nothing.
//!
//! ## Recovery model
//!
//! Resume is **replay with detection**, not state restoration. The
//! simulator is deterministic, so re-running the plan from the start
//! reproduces the original execution exactly — clock, fault stream,
//! retries, migrations and all. What the journal adds is *evidence*: at
//! every boundary the original run recorded (plan commit, host line,
//! region chunk, migration, reclaim), the resumed run re-derives the
//! same record and verifies it against the log byte-for-byte. Any
//! divergence — a different plan, a drifted fault stream, a changed
//! binary — fails loudly instead of silently producing a different
//! answer, which is the property the paper's migration machinery needs
//! from its checkpoint story. Once the journal's queue is exhausted, the
//! handle flips from verify mode to append mode and the run extends the
//! same file, so a resumed journal ends exactly as an uninterrupted one
//! would.
//!
//! A fleet journals as one stream too: its shards run one after another
//! in ascending index, then the host tail, so the recovered records
//! replay in the order they were emitted.

use crate::assign::Assignment;
use crate::error::ActivePyError;
use crate::estimate::{Calibration, LineEstimate};
use crate::fit::{FittedCurve, LinePrediction};
use crate::plan::OffloadPlan;
use crate::sampling::SamplingReport;
use alang::{CanonicalSink, Fingerprinter};
use isp_obs::wal::{read_wal, WalRecord, WalWriter};
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// What a journal open-for-resume found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeInfo {
    /// Valid records recovered from the journal prefix.
    pub records: usize,
    /// Whether a torn or corrupt tail was truncated to get there (the
    /// signature of a mid-append crash).
    pub torn_tail: bool,
}

/// Live counters for a journal handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Records verified against the recovered log so far.
    pub replayed: u64,
    /// Records appended (new ground covered past the crash point).
    pub appended: u64,
    /// Recovered records not yet re-derived by the resumed run.
    pub pending: u64,
}

#[derive(Debug)]
struct JournalState {
    writer: WalWriter,
    /// Recovered records awaiting verification, in emission order; empty
    /// in append mode.
    replay: VecDeque<WalRecord>,
    replayed: u64,
    appended: u64,
}

/// Handle to a crash-consistent execution journal. Cheap to clone;
/// clones share the underlying writer and replay queue. [`Default`] and
/// [`ExecJournal::disabled`] produce the zero-cost off state.
#[derive(Debug, Clone, Default)]
pub struct ExecJournal {
    inner: Option<Arc<Mutex<JournalState>>>,
}

impl PartialEq for ExecJournal {
    /// Identity comparison (same underlying journal), mirroring the
    /// tracer/profile-recorder convention so option structs stay
    /// comparable.
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl ExecJournal {
    /// The disabled handle: no file, no locks, every call a no-op.
    #[must_use]
    pub fn disabled() -> ExecJournal {
        ExecJournal::default()
    }

    /// Starts a fresh journal at `path` (truncating any existing file).
    ///
    /// # Errors
    ///
    /// Propagates file creation errors.
    pub fn record_to(path: &Path) -> io::Result<ExecJournal> {
        let writer = WalWriter::create(path)?;
        Ok(ExecJournal::from_state(writer, VecDeque::new()))
    }

    /// Opens an existing journal for resume: the valid record prefix is
    /// loaded into the replay queue (truncating any torn tail per
    /// the WAL recovery rule) and the returned handle verifies the
    /// resumed run against it before switching to append mode.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; torn or corrupt journal content never
    /// errors (it is truncated away).
    pub fn resume_from(path: &Path) -> io::Result<(ExecJournal, ResumeInfo)> {
        let outcome = read_wal(path)?;
        let info = ResumeInfo {
            records: outcome.records.len(),
            torn_tail: outcome.torn,
        };
        let writer = WalWriter::append_to(path, &outcome)?;
        let replay = outcome.records.into();
        Ok((ExecJournal::from_state(writer, replay), info))
    }

    fn from_state(writer: WalWriter, replay: VecDeque<WalRecord>) -> ExecJournal {
        ExecJournal {
            inner: Some(Arc::new(Mutex::new(JournalState {
                writer,
                replay,
                replayed: 0,
                appended: 0,
            }))),
        }
    }

    /// Whether this handle is backed by a journal file.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Live replay/append counters, or `None` when disabled.
    #[must_use]
    pub fn stats(&self) -> Option<JournalStats> {
        let inner = self.inner.as_ref()?;
        let st = inner.lock().unwrap_or_else(PoisonError::into_inner);
        Some(JournalStats {
            replayed: st.replayed,
            appended: st.appended,
            pending: st.replay.len() as u64,
        })
    }

    /// Feeds one boundary record through the journal: in replay mode the
    /// record must equal the next recovered record (divergence is an
    /// error — the resumed run is not reproducing the original); once the
    /// queue is exhausted the record is appended to the file instead.
    ///
    /// # Errors
    ///
    /// Journal divergence during replay, or an append I/O failure.
    pub fn on_record(&self, rec: WalRecord) -> Result<(), ActivePyError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut st = inner.lock().unwrap_or_else(PoisonError::into_inner);
        // Once the queue is drained the run has caught up with the crash
        // point and every further record is appended.
        if let Some(expected) = st.replay.pop_front() {
            if expected != rec {
                return Err(ActivePyError::exec(format!(
                    "journal divergence: resumed run produced {} {rec:?} \
                     where the journal recorded {} {expected:?}",
                    rec.kind(),
                    expected.kind(),
                )));
            }
            st.replayed += 1;
            return Ok(());
        }
        st.writer
            .append(&rec)
            .map_err(|e| ActivePyError::exec(format!("journal append failed: {e}")))?;
        st.appended += 1;
        Ok(())
    }
}

/// Fingerprint of an [`OffloadPlan`]'s deterministic planning outcome:
/// the fitted predictions, calibration, copy-elimination flags,
/// estimates, Algorithm-1 assignment and observed dataset types, walked
/// through an [`alang::Fingerprinter`] — every sequence behind its
/// length, floats as bit patterns, enum variants as fixed tags, sets and
/// maps in their own (sorted) order; nothing is rendered to text. Two
/// plans agree iff planning reached the same decisions, which is exactly
/// the precondition for a journal replay to be meaningful. Wall-clock
/// timings are deliberately excluded.
///
/// Every struct on the walk is destructured field by field, so a field
/// added to one of them later is a compile error here — a decision to
/// hash it or to name it as left out — rather than a silent hole. Like
/// every fingerprint in the tree, the value is comparable only between
/// runs of one build.
#[must_use]
pub fn plan_fingerprint(plan: &OffloadPlan) -> u64 {
    // Not hashed: the program and its lowering (a different program is a
    // different `RunStart`), the raw sample points (the predictions are
    // their fit), simulated pipeline overheads and the
    // input (the run's own records carry the clock and the answer), the
    // host timings, and the audit's echo of the estimates.
    let OffloadPlan {
        program: _,
        lowered: _,
        sampling,
        predictions,
        calibration,
        copy_elim,
        estimates,
        assignment,
        sampling_secs: _,
        compile_secs: _,
        full_storage: _,
        timings: _,
        eq1: _,
    } = plan;
    let SamplingReport {
        lines: _,
        dataset_types,
    } = sampling;
    let f = &mut Fingerprinter::default();

    f.u64(predictions.len() as u64);
    for prediction in predictions {
        let LinePrediction {
            line,
            cost,
            compute_curve,
            out_curve,
        } = prediction;
        f.u64(*line as u64);
        cost.canonical(f);
        for curve in [compute_curve, out_curve] {
            let FittedCurve {
                complexity,
                coefficient,
                residual,
            } = curve;
            f.u8(complexity.code());
            f.f64(*coefficient);
            f.f64(*residual);
        }
    }

    let Calibration { cse_slowdown } = calibration;
    f.f64(*cse_slowdown);

    f.u64(copy_elim.len() as u64);
    f.bools(copy_elim);

    f.u64(estimates.len() as u64);
    for estimate in estimates {
        let LineEstimate {
            line,
            ct_host,
            ct_device,
            d_in,
            d_out,
            ops,
        } = estimate;
        f.u64(*line as u64);
        f.f64(*ct_host);
        f.f64(*ct_device);
        f.u64(*d_in);
        f.u64(*d_out);
        f.u64(*ops);
    }

    let Assignment {
        csd_lines,
        t_host,
        t_csd,
    } = assignment;
    f.u64(csd_lines.len() as u64);
    for line in csd_lines {
        f.u64(*line as u64);
    }
    f.f64(*t_host);
    f.f64(*t_csd);

    f.u64(dataset_types.len() as u64);
    for (dataset, ty) in dataset_types {
        f.str(dataset);
        f.u8(ty.code());
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::MigrationReason;
    use crate::fit::Complexity;
    use alang::copyelim::StaticType;
    use isp_obs::wal::StateSnap;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("activepy_resume_{}_{name}.wal", std::process::id()))
    }

    fn host_line(line: u32, retries: u64) -> WalRecord {
        WalRecord::HostLine {
            lane: 0,
            line,
            snap: StateSnap {
                retries,
                ..StateSnap::default()
            },
        }
    }

    #[test]
    fn disabled_journal_is_a_no_op() {
        let j = ExecJournal::disabled();
        assert!(!j.is_enabled());
        assert_eq!(j.stats(), None);
        j.on_record(host_line(0, 0)).expect("no-op");
    }

    #[test]
    fn record_then_resume_verifies_and_extends() {
        let path = tmp("verify_extend");
        let j = ExecJournal::record_to(&path).expect("create");
        j.on_record(host_line(0, 1)).expect("append");
        j.on_record(host_line(1, 2)).expect("append");
        drop(j);

        let (j, info) = ExecJournal::resume_from(&path).expect("resume");
        assert_eq!(
            info,
            ResumeInfo {
                records: 2,
                torn_tail: false
            }
        );
        assert_eq!(j.stats().expect("stats").pending, 2);
        // Replay must re-derive the same records in order...
        j.on_record(host_line(0, 1)).expect("replay 0");
        // ...then flip to append mode.
        j.on_record(host_line(1, 2)).expect("replay 1");
        j.on_record(host_line(2, 3))
            .expect("append past crash point");
        let stats = j.stats().expect("stats");
        assert_eq!((stats.replayed, stats.appended, stats.pending), (2, 1, 0));
        drop(j);

        let reread = read_wal(&path).expect("reread");
        assert_eq!(reread.records.len(), 3);
        assert!(!reread.torn);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn divergent_replay_is_detected() {
        let path = tmp("divergence");
        let j = ExecJournal::record_to(&path).expect("create");
        j.on_record(host_line(0, 1)).expect("append");
        drop(j);

        let (j, _) = ExecJournal::resume_from(&path).expect("resume");
        let err = j.on_record(host_line(0, 99)).expect_err("must diverge");
        assert!(
            err.to_string().contains("journal divergence"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reason_codes_are_stable() {
        for (reason, code) in [
            (MigrationReason::Degraded, 0),
            (MigrationReason::Preempted, 1),
            (MigrationReason::DeviceFault, 2),
            (MigrationReason::Reclaim, 3),
        ] {
            assert_eq!(reason.code(), code);
        }
    }
    /// One single-field change per hashed part moves the fingerprint
    /// (the bijection argument of `alang::canonical` makes that certain,
    /// not merely likely); a change to a field named as left out does not.
    #[test]
    fn plan_fingerprint_moves_with_each_hashed_part_and_nothing_else() {
        use alang::builtins::Storage;
        use alang::value::ArrayVal;
        let input = |scale: f64| {
            let logical = (scale * 1e9).round().max(100.0) as u64;
            let data: Vec<f64> = (0..400).map(|i| f64::from(i % 100)).collect();
            let mut st = Storage::new();
            st.insert(
                "v",
                alang::Value::Array(ArrayVal::with_logical(data, logical)),
            );
            st
        };
        let program = alang::parser::parse("a = scan('v')\nm = a < 50\ns = sum(select(a, m))\n")
            .expect("parse");
        let config = csd_sim::SystemConfig::paper_default();
        let plan = crate::runtime::ActivePy::new()
            .plan(&program, &input, &config)
            .expect("plan");
        let base = plan_fingerprint(&plan);
        assert_eq!(base, plan_fingerprint(&plan.clone()));

        let ulp = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        type Change = fn(&mut OffloadPlan);
        let hashed: [(&str, Change); 12] = [
            ("prediction cost", |p| p.predictions[1].cost.bytes_out += 1),
            ("prediction calls", |p| p.predictions[0].cost.calls += 1),
            ("curve class", |p| {
                let c = &mut p.predictions[2].out_curve.complexity;
                *c = if *c == Complexity::ON2 {
                    Complexity::ON3
                } else {
                    Complexity::ON2
                };
            }),
            ("curve coefficient", |p| {
                p.predictions[0].compute_curve.coefficient += 1.0
            }),
            ("calibration", |p| p.calibration.cse_slowdown += 1.0),
            ("copy-elim flag", |p| p.copy_elim[1] = !p.copy_elim[1]),
            ("copy-elim length", |p| p.copy_elim.push(false)),
            ("estimate", |p| p.estimates[2].d_in += 1),
            ("assignment set", |p| {
                if !p.assignment.csd_lines.remove(&0) {
                    p.assignment.csd_lines.insert(0);
                }
            }),
            ("assignment time", |p| {
                p.assignment.t_csd = -p.assignment.t_csd
            }),
            ("dataset name", |p| {
                let ty = p
                    .sampling
                    .dataset_types
                    .remove("v")
                    .expect("scanned dataset");
                p.sampling.dataset_types.insert("w".into(), ty);
            }),
            ("dataset type", |p| {
                p.sampling
                    .dataset_types
                    .insert("v".into(), StaticType::Table);
            }),
        ];
        for (what, change) in hashed {
            let mut changed = plan.clone();
            change(&mut changed);
            assert_ne!(plan_fingerprint(&changed), base, "{what} is not hashed");
        }
        let mut changed = plan.clone();
        changed.estimates[0].ct_host = ulp(changed.estimates[0].ct_host);
        assert_ne!(plan_fingerprint(&changed), base, "one mantissa bit");

        let mut changed = plan.clone();
        changed.timings.fit_nanos += 1;
        changed.sampling_secs += 1.0;
        changed.compile_secs += 1.0;
        changed.eq1.clear();
        assert_eq!(plan_fingerprint(&changed), base, "left-out fields moved it");
    }
}
