//! NVMe-style queue pairs.
//!
//! ActivePy invokes CSD functions the way NVMe talks to devices (§III-C0b):
//! the host posts a request to a *submission queue* mapped into device
//! memory, the CSE polls and fetches requests whenever it is free, and
//! status flows back in band: status updates are patched in at the end of
//! every line of CSD code and double as the channel through which the host
//! can signal high-priority work (triggering migration). The completion
//! hop is modelled as its latency alone ([`QueueLatencies::complete`]);
//! nothing in the executor consumes completion records, so there is no
//! completion ring.
//!
//! The submission ring is a real data structure — commands are queued and
//! fetched in FIFO order with bounded depth — and each hop carries a
//! configurable latency that the execution engine charges to the simulated
//! clock.

use crate::units::{Bytes, Duration, SimTime};
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;

/// Identifies a submitted command within its queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct CommandId(u64);

impl CommandId {
    /// The raw identifier.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for CommandId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmd#{}", self.0)
    }
}

/// The kind of request travelling through the call queue.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CommandKind {
    /// Invoke a CSD function (a contiguous run of offloaded lines) starting
    /// at `entry_line`.
    InvokeFunction {
        /// First program line of the offloaded region.
        entry_line: usize,
    },
    /// Ask the CSD to break at the end of the current line and hand state
    /// back (migration, or a high-priority preemption).
    Break,
    /// Distribute a freshly generated device binary of `size` bytes.
    LoadBinary {
        /// Size of the machine-code image.
        size: Bytes,
    },
}

/// A command in flight.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Command {
    /// Identifier assigned at submission.
    pub id: CommandId,
    /// What the device should do.
    pub kind: CommandKind,
    /// When the host posted it.
    pub submitted_at: SimTime,
}

/// Latency parameters for the queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QueueLatencies {
    /// Host-side submission (build entry + doorbell write over PCIe).
    pub submit: Duration,
    /// Device-side fetch of a submission entry.
    pub fetch: Duration,
    /// Device-side posting of a completion + host observing it by polling.
    pub complete: Duration,
    /// Cost of one in-band status update appended at the end of a line of
    /// CSD code ("takes very little overhead", §III-C0b).
    pub status_update: Duration,
}

impl Default for QueueLatencies {
    fn default() -> Self {
        QueueLatencies {
            submit: Duration::from_micros(2.0),
            fetch: Duration::from_micros(1.0),
            complete: Duration::from_micros(2.0),
            status_update: Duration::from_nanos(200.0),
        }
    }
}

/// Errors from queue-pair operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueError {
    /// The submission queue is full.
    SubmissionFull,
    /// No command is waiting to be fetched.
    Empty,
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::SubmissionFull => write!(f, "submission queue is full"),
            QueueError::Empty => write!(f, "no command pending"),
        }
    }
}

impl std::error::Error for QueueError {}

/// The submission side of a queue pair mapped into device memory.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueuePair {
    depth: usize,
    latencies: QueueLatencies,
    submission: VecDeque<Command>,
    next_id: u64,
    submitted_total: u64,
    status_updates: u64,
    aborted_total: u64,
}

impl QueuePair {
    /// Creates a queue pair with the given ring `depth`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    #[must_use]
    pub fn new(depth: usize, latencies: QueueLatencies) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        QueuePair {
            depth,
            latencies,
            submission: VecDeque::new(),
            next_id: 0,
            submitted_total: 0,
            status_updates: 0,
            aborted_total: 0,
        }
    }

    /// The configured latencies.
    #[must_use]
    pub fn latencies(&self) -> &QueueLatencies {
        &self.latencies
    }

    /// Host posts `kind` at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::SubmissionFull`] when the ring has no free slot.
    pub fn submit(&mut self, now: SimTime, kind: CommandKind) -> Result<CommandId, QueueError> {
        if self.submission.len() >= self.depth {
            return Err(QueueError::SubmissionFull);
        }
        let id = CommandId(self.next_id);
        self.next_id += 1;
        self.submitted_total += 1;
        self.submission.push_back(Command {
            id,
            kind,
            submitted_at: now,
        });
        Ok(id)
    }

    /// Device fetches the oldest pending command ("the CSE fetches a request
    /// from the call queue whenever the CSE is free").
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::Empty`] when nothing is pending.
    pub fn fetch(&mut self) -> Result<Command, QueueError> {
        self.submission.pop_front().ok_or(QueueError::Empty)
    }

    /// Whether a [`CommandKind::Break`] is waiting — the check the
    /// status-update code performs at every line boundary ("checks if the
    /// host computer has any request that CSD needs to handle with high
    /// priority").
    #[must_use]
    pub fn has_pending_break(&self) -> bool {
        self.submission
            .iter()
            .any(|c| matches!(c.kind, CommandKind::Break))
    }

    /// Device emits an in-band status update (progress only, no ring slot).
    /// Returns its cost; the caller charges it to the clock.
    pub fn status_update(&mut self) -> Duration {
        self.status_updates += 1;
        self.latencies.status_update
    }

    /// Commands submitted over the queue's lifetime.
    #[must_use]
    pub fn submitted_total(&self) -> u64 {
        self.submitted_total
    }

    /// Status updates emitted over the queue's lifetime.
    #[must_use]
    pub fn status_updates(&self) -> u64 {
        self.status_updates
    }

    /// Records one aborted command attempt (an injected NVMe error hit
    /// before the command reached the ring).
    pub fn record_aborted(&mut self) {
        self.aborted_total += 1;
    }

    /// Command attempts aborted by injected errors over the queue's
    /// lifetime.
    #[must_use]
    pub fn aborted_total(&self) -> u64 {
        self.aborted_total
    }

    /// Round-trip overhead of one function invocation, excluding the work
    /// itself: submit + fetch + complete.
    #[must_use]
    pub fn invocation_overhead(&self) -> Duration {
        self.latencies.submit + self.latencies.fetch + self.latencies.complete
    }

    /// Clears the ring and lifetime counters (new program run).
    pub fn reset(&mut self) {
        self.submission.clear();
        self.submitted_total = 0;
        self.status_updates = 0;
        self.aborted_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qp() -> QueuePair {
        QueuePair::new(4, QueueLatencies::default())
    }

    #[test]
    fn submit_fetch_round_trip() {
        let mut q = qp();
        let id = q
            .submit(SimTime::ZERO, CommandKind::InvokeFunction { entry_line: 3 })
            .expect("submit");
        let cmd = q.fetch().expect("fetch");
        assert_eq!(cmd.id, id);
        assert!(matches!(
            cmd.kind,
            CommandKind::InvokeFunction { entry_line: 3 }
        ));
        assert_eq!(q.submitted_total(), 1);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = qp();
        let a = q.submit(SimTime::ZERO, CommandKind::Break).expect("a");
        let b = q
            .submit(
                SimTime::ZERO,
                CommandKind::LoadBinary {
                    size: Bytes::from_kib(64),
                },
            )
            .expect("b");
        assert!(a < b);
        assert_eq!(q.fetch().expect("first").id, a);
        assert_eq!(q.fetch().expect("second").id, b);
    }

    #[test]
    fn full_queue_rejects() {
        let mut q = QueuePair::new(1, QueueLatencies::default());
        q.submit(SimTime::ZERO, CommandKind::Break)
            .expect("first fits");
        assert_eq!(
            q.submit(SimTime::ZERO, CommandKind::Break),
            Err(QueueError::SubmissionFull)
        );
    }

    #[test]
    fn empty_fetch_errors() {
        let mut q = qp();
        assert_eq!(q.fetch().unwrap_err(), QueueError::Empty);
    }

    #[test]
    fn break_detection() {
        let mut q = qp();
        q.submit(SimTime::ZERO, CommandKind::InvokeFunction { entry_line: 0 })
            .expect("submit");
        assert!(!q.has_pending_break());
        q.submit(SimTime::ZERO, CommandKind::Break)
            .expect("submit break");
        assert!(q.has_pending_break());
    }

    #[test]
    fn status_updates_are_cheap_and_counted() {
        let mut q = qp();
        let mut total = Duration::ZERO;
        for _ in 0..1000 {
            total += q.status_update();
        }
        assert_eq!(q.status_updates(), 1000);
        // 1000 updates at 200ns each = 0.2ms: "very little overhead".
        assert!(total.as_secs() < 1e-3);
    }

    #[test]
    fn invocation_overhead_is_microseconds() {
        let q = qp();
        let ov = q.invocation_overhead();
        assert!(ov.as_secs() > 0.0 && ov.as_secs() < 1e-4);
    }

    #[test]
    fn reset_clears_state() {
        let mut q = qp();
        q.submit(SimTime::ZERO, CommandKind::Break).expect("submit");
        q.reset();
        assert_eq!(q.fetch().unwrap_err(), QueueError::Empty);
        assert_eq!(q.submitted_total(), 0);
    }
}
