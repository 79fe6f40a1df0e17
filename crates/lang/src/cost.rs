//! The structural cost model.
//!
//! Every line execution yields a [`LineCost`]: algorithmic compute
//! operations at paper scale, stored bytes streamed, input/output data
//! volumes (the `D_in`/`D_out` of Eq. 1), and library-boundary buffer
//! copies. An [`ExecTier`] then maps the cost onto effective operations:
//!
//! * [`ExecTier::Interpreted`] — CPython-like: every boundary copy is paid
//!   *and* a dispatch/boxing surcharge multiplies the whole line.
//! * [`ExecTier::Compiled`] — Cython-like: dispatch is gone, copies remain.
//! * [`ExecTier::CompiledCopyElim`] — ActivePy's generated code: dispatch
//!   gone and statically-eliminable copies gone (§III-C0c).
//! * [`ExecTier::Native`] — the hand-written C baseline: pure compute.
//!
//! The paper's runtime-optimization ladder (Python 41 % slower than C,
//! Cython 20 %, copy-eliminated ≈ parity; §V) *emerges* from workload
//! structure under this model; the `runtime_opt` experiment checks it.

use crate::canonical::CanonicalSink;
use isp_obs::wal::ByteReader;
use serde::Serialize;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// How the line's code was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ExecTier {
    /// Line-by-line interpretation (the plain Python baseline).
    Interpreted,
    /// Ahead-of-time compiled, copies at library boundaries remain (plain
    /// Cython output).
    Compiled,
    /// Compiled with redundant-memory-operation elimination (ActivePy's
    /// generated code).
    CompiledCopyElim,
    /// Hand-written native code (the C baseline): no framework overhead at
    /// all.
    Native,
}

impl fmt::Display for ExecTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecTier::Interpreted => write!(f, "interpreted"),
            ExecTier::Compiled => write!(f, "compiled"),
            ExecTier::CompiledCopyElim => write!(f, "compiled+copy-elim"),
            ExecTier::Native => write!(f, "native"),
        }
    }
}

/// Tunable constants of the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostParams {
    /// Operations charged per byte of library-boundary buffer copy
    /// (memcpy + type conversion + allocator traffic).
    pub copy_ops_per_byte: f64,
    /// Fractional surcharge interpretation adds on top of everything
    /// (bytecode dispatch, reference counting, boxing).
    pub dispatch_overhead: f64,
    /// Operations charged per byte streamed from storage (parsing /
    /// deserialization into runtime values).
    pub scan_ops_per_byte: f64,
}

impl CostParams {
    /// Constants calibrated so the nine Table-I workloads land near the
    /// paper's 41 % / 20 % / ≈0 % runtime-overhead ladder (the
    /// `runtime_opt` experiment checks the calibration).
    #[must_use]
    pub fn paper_default() -> Self {
        CostParams {
            copy_ops_per_byte: 2.0,
            dispatch_overhead: 0.60,
            scan_ops_per_byte: 0.5,
        }
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::paper_default()
    }
}

/// The measured cost of executing one line once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct LineCost {
    /// Algorithmic compute operations at logical (paper) scale.
    pub compute_ops: u64,
    /// Bytes streamed from device storage (logical scale).
    pub storage_bytes: u64,
    /// Volume of the line's inputs (free variables), logical scale.
    pub bytes_in: u64,
    /// Volume of the value the line produces, logical scale.
    pub bytes_out: u64,
    /// Library-boundary copy traffic, logical scale.
    pub copy_bytes: u64,
    /// The subset of `copy_bytes` the copy-elimination pass can remove.
    pub eliminable_copy_bytes: u64,
    /// Number of library calls on the line.
    pub calls: u32,
}

impl LineCost {
    /// A zero cost.
    #[must_use]
    pub fn zero() -> Self {
        LineCost::default()
    }

    /// Streams the cost's fields into `sink` in one fixed order: the warm
    /// file's sample layout and the plan fingerprint are both this walk.
    pub fn canonical(&self, sink: &mut impl CanonicalSink) {
        let LineCost {
            compute_ops,
            storage_bytes,
            bytes_in,
            bytes_out,
            copy_bytes,
            eliminable_copy_bytes,
            calls,
        } = *self;
        sink.u64(compute_ops);
        sink.u64(storage_bytes);
        sink.u64(bytes_in);
        sink.u64(bytes_out);
        sink.u64(copy_bytes);
        sink.u64(eliminable_copy_bytes);
        sink.u32(calls);
    }

    /// Reads back what [`Self::canonical`] wrote; errs when the bytes run
    /// out.
    pub fn from_canonical(r: &mut ByteReader<'_>) -> Result<Self, String> {
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

    /// Effective operations under `tier` with constants `params`.
    ///
    /// This is the quantity handed to a compute engine; dividing by the
    /// engine's rate gives `CT_host` or (after the CSE slowdown factor)
    /// `CT_device`.
    #[must_use]
    pub fn effective_ops(&self, tier: ExecTier, params: &CostParams) -> u64 {
        let scan_ops = self.storage_bytes as f64 * params.scan_ops_per_byte;
        let copies = match tier {
            ExecTier::Native => 0,
            ExecTier::CompiledCopyElim => {
                self.copy_bytes.saturating_sub(self.eliminable_copy_bytes)
            }
            ExecTier::Interpreted | ExecTier::Compiled => self.copy_bytes,
        };
        let base = self.compute_ops as f64 + scan_ops + copies as f64 * params.copy_ops_per_byte;
        let total = match tier {
            ExecTier::Interpreted => base * (1.0 + params.dispatch_overhead),
            _ => base,
        };
        total.round() as u64
    }

    /// Marks `bytes` of boundary-copy traffic, optionally eliminable.
    pub fn add_copy(&mut self, bytes: u64, eliminable: bool) {
        self.copy_bytes += bytes;
        if eliminable {
            self.eliminable_copy_bytes += bytes;
        }
    }
}

impl Add for LineCost {
    type Output = LineCost;
    fn add(self, rhs: LineCost) -> LineCost {
        LineCost {
            compute_ops: self.compute_ops + rhs.compute_ops,
            storage_bytes: self.storage_bytes + rhs.storage_bytes,
            bytes_in: self.bytes_in + rhs.bytes_in,
            bytes_out: self.bytes_out + rhs.bytes_out,
            copy_bytes: self.copy_bytes + rhs.copy_bytes,
            eliminable_copy_bytes: self.eliminable_copy_bytes + rhs.eliminable_copy_bytes,
            calls: self.calls + rhs.calls,
        }
    }
}

impl AddAssign for LineCost {
    fn add_assign(&mut self, rhs: LineCost) {
        *self = *self + rhs;
    }
}

impl Sum for LineCost {
    fn sum<I: Iterator<Item = LineCost>>(iter: I) -> LineCost {
        iter.fold(LineCost::zero(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> LineCost {
        LineCost {
            compute_ops: 1000,
            storage_bytes: 0,
            bytes_in: 800,
            bytes_out: 80,
            copy_bytes: 100,
            eliminable_copy_bytes: 100,
            calls: 2,
        }
    }

    #[test]
    fn tier_ladder_is_monotonic() {
        let c = cost();
        let p = CostParams::paper_default();
        let native = c.effective_ops(ExecTier::Native, &p);
        let elim = c.effective_ops(ExecTier::CompiledCopyElim, &p);
        let compiled = c.effective_ops(ExecTier::Compiled, &p);
        let interp = c.effective_ops(ExecTier::Interpreted, &p);
        assert!(native <= elim && elim <= compiled && compiled < interp);
        // Full elimination => parity with native.
        assert_eq!(native, elim);
    }

    #[test]
    fn partial_elimination_leaves_residual() {
        let mut c = cost();
        c.eliminable_copy_bytes = 40;
        let p = CostParams::paper_default();
        let elim = c.effective_ops(ExecTier::CompiledCopyElim, &p);
        let native = c.effective_ops(ExecTier::Native, &p);
        assert!(elim > native);
        let expected = 1000 + (60.0 * p.copy_ops_per_byte).round() as u64;
        assert_eq!(elim, expected);
    }

    #[test]
    fn interpreted_applies_dispatch_surcharge() {
        let c = LineCost {
            compute_ops: 1000,
            ..LineCost::zero()
        };
        let p = CostParams {
            dispatch_overhead: 0.5,
            ..CostParams::paper_default()
        };
        assert_eq!(c.effective_ops(ExecTier::Interpreted, &p), 1500);
        assert_eq!(c.effective_ops(ExecTier::Compiled, &p), 1000);
    }

    #[test]
    fn scan_ops_charged_in_all_tiers() {
        let c = LineCost {
            storage_bytes: 1000,
            ..LineCost::zero()
        };
        let p = CostParams {
            scan_ops_per_byte: 0.5,
            ..CostParams::paper_default()
        };
        assert_eq!(c.effective_ops(ExecTier::Native, &p), 500);
    }

    #[test]
    fn add_copy_tracks_eliminability() {
        let mut c = LineCost::zero();
        c.add_copy(100, true);
        c.add_copy(50, false);
        assert_eq!(c.copy_bytes, 150);
        assert_eq!(c.eliminable_copy_bytes, 100);
    }

    #[test]
    fn costs_sum_componentwise() {
        let total: LineCost = [cost(), cost()].into_iter().sum();
        assert_eq!(total.compute_ops, 2000);
        assert_eq!(total.calls, 4);
        assert_eq!(total.bytes_in, 1600);
    }
}
