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
//! from its checkpoint story. Once a lane's journal queue is exhausted,
//! the handle flips from verify mode to append mode and the run extends
//! the same file, so a resumed journal ends exactly as an uninterrupted
//! one would.
//!
//! Lanes keep fleets honest: shard `s` of a sharded run verifies and
//! appends on lane `s` and the host tail on lane `n`, so per-shard
//! record streams interleave in the file but replay independently.

use crate::error::ActivePyError;
use crate::exec::MigrationReason;
use crate::plan::OffloadPlan;
use isp_obs::wal::{fnv1a, read_wal, WalRecord, WalWriter};
use std::collections::{HashMap, VecDeque};
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
    /// Per-lane queues of recovered records awaiting verification.
    /// A lane absent from the map is in append mode.
    replay: HashMap<u32, VecDeque<WalRecord>>,
    replayed: u64,
    appended: u64,
}

#[derive(Debug)]
struct JournalInner {
    state: Mutex<JournalState>,
}

/// Handle to a crash-consistent execution journal. Cheap to clone;
/// clones share the underlying writer and replay queues. [`Default`] and
/// [`ExecJournal::disabled`] produce the zero-cost off state.
#[derive(Debug, Clone, Default)]
pub struct ExecJournal {
    inner: Option<Arc<JournalInner>>,
    lane: u32,
}

impl PartialEq for ExecJournal {
    /// Identity comparison (same underlying journal, same lane), mirroring
    /// the tracer/profile-recorder convention so option structs stay
    /// comparable.
    fn eq(&self, other: &Self) -> bool {
        self.lane == other.lane
            && match (&self.inner, &other.inner) {
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
        Ok(ExecJournal::from_state(writer, HashMap::new()))
    }

    /// Opens an existing journal for resume: the valid record prefix is
    /// loaded into per-lane replay queues (truncating any torn tail per
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
        let mut replay: HashMap<u32, VecDeque<WalRecord>> = HashMap::new();
        for rec in outcome.records {
            replay.entry(rec.lane()).or_default().push_back(rec);
        }
        Ok((ExecJournal::from_state(writer, replay), info))
    }

    fn from_state(writer: WalWriter, replay: HashMap<u32, VecDeque<WalRecord>>) -> ExecJournal {
        ExecJournal {
            inner: Some(Arc::new(JournalInner {
                state: Mutex::new(JournalState {
                    writer,
                    replay,
                    replayed: 0,
                    appended: 0,
                }),
            })),
            lane: 0,
        }
    }

    /// A handle over the same journal stamped onto `lane`. Sharded runs
    /// hand lane `s` to shard `s` and lane `n` to the host tail.
    #[must_use]
    pub fn lane(&self, lane: u32) -> ExecJournal {
        ExecJournal {
            inner: self.inner.clone(),
            lane,
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
        let st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        Some(JournalStats {
            replayed: st.replayed,
            appended: st.appended,
            pending: st.replay.values().map(|q| q.len() as u64).sum(),
        })
    }

    /// Feeds one boundary record through the journal: in replay mode the
    /// record must equal the next recovered record on this handle's lane
    /// (divergence is an error — the resumed run is not reproducing the
    /// original); once the lane's queue is exhausted the record is
    /// appended to the file instead.
    ///
    /// Emission sites build records with lane 0; the handle stamps its
    /// own lane here.
    ///
    /// # Errors
    ///
    /// Journal divergence during replay, or an append I/O failure.
    pub fn on_record(&self, rec: WalRecord) -> Result<(), ActivePyError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let rec = rec.with_lane(self.lane);
        let mut st = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(queue) = st.replay.get_mut(&self.lane) {
            if let Some(expected) = queue.pop_front() {
                if expected != rec {
                    return Err(ActivePyError::exec(format!(
                        "journal divergence on lane {}: resumed run produced {} {rec:?} \
                         where the journal recorded {} {expected:?}",
                        self.lane,
                        rec.kind(),
                        expected.kind(),
                    )));
                }
                st.replayed += 1;
                return Ok(());
            }
            // Queue drained: this lane has caught up with the crash
            // point; flip to append mode.
            st.replay.remove(&self.lane);
        }
        st.writer
            .append(&rec)
            .map_err(|e| ActivePyError::exec(format!("journal append failed: {e}")))?;
        st.appended += 1;
        Ok(())
    }
}

/// Stable discriminant for a [`MigrationReason`] in WAL records.
#[must_use]
pub fn reason_code(reason: MigrationReason) -> u8 {
    match reason {
        MigrationReason::Degraded => 0,
        MigrationReason::Preempted => 1,
        MigrationReason::DeviceFault => 2,
        MigrationReason::Reclaim => 3,
    }
}

/// Fingerprint of an [`OffloadPlan`]'s deterministic planning outcome:
/// FNV-1a over the debug rendering of the fitted predictions,
/// calibration, copy-elimination flags, estimates, and Algorithm-1
/// assignment. Two plans agree iff planning reached the same decisions,
/// which is exactly the precondition for a journal replay to be
/// meaningful. Wall-clock timings are deliberately excluded.
#[must_use]
pub fn plan_fingerprint(plan: &OffloadPlan) -> u64 {
    let repr = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        plan.predictions,
        plan.calibration,
        plan.copy_elim,
        plan.estimates,
        plan.assignment,
        plan.sampling.dataset_types,
    );
    fnv1a(repr.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(j, j.lane(0));
        assert_ne!(j, j.lane(1));
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
    fn lanes_replay_independently() {
        let path = tmp("lanes");
        let j = ExecJournal::record_to(&path).expect("create");
        j.lane(0).on_record(host_line(0, 1)).expect("lane 0");
        j.lane(1).on_record(host_line(0, 2)).expect("lane 1");
        j.lane(0).on_record(host_line(1, 3)).expect("lane 0");
        drop(j);

        let (j, info) = ExecJournal::resume_from(&path).expect("resume");
        assert_eq!(info.records, 3);
        // Lane 1 can verify before lane 0 finishes; order within a lane
        // is what matters.
        j.lane(1).on_record(host_line(0, 2)).expect("lane 1 replay");
        j.lane(0).on_record(host_line(0, 1)).expect("lane 0 replay");
        j.lane(0).on_record(host_line(1, 3)).expect("lane 0 replay");
        j.lane(1).on_record(host_line(1, 4)).expect("lane 1 append");
        let stats = j.stats().expect("stats");
        assert_eq!((stats.replayed, stats.appended, stats.pending), (3, 1, 0));
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
            assert_eq!(reason_code(reason), code);
        }
    }
}
