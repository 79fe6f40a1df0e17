//! Device-time estimation and the net-profit equation (Eq. 1).
//!
//! ActivePy estimates a line's CSD execution time by multiplying its
//! predicted host computation time by a constant factor `C`, which it
//! calibrates either by "querying the CSD's performance counters (e.g.
//! retired instructions per cycle)" or by "running a small sample program
//! on both a CSD and the host computer" (§III-A). Against the simulator the
//! two are one probe: its ops over the wall time each engine took.
//!
//! [`LineEstimate`] carries the four per-line quantities Algorithm 1
//! consumes: `CT_host`, `CT_device`, `D_in`, and `D_out`; [`net_profit`]
//! evaluates Eq. 1 directly for a single task.

use crate::fit::LinePrediction;
use alang::{CostParams, ExecTier};
use csd_sim::units::Ops;
use csd_sim::{EngineKind, SystemConfig};
use serde::Serialize;

/// The calibrated CSE-slowdown constant `C` (how many times slower the CSE
/// retires the same work than the host).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Calibration {
    /// `CT_device ≈ C × CT_host` for pure compute.
    pub cse_slowdown: f64,
}

impl Calibration {
    /// Calibrates from achieved rates: execute a probe batch of operations
    /// on each engine of a scratch system and compare ops over wall time.
    #[must_use]
    pub fn from_counters(config: &SystemConfig) -> Calibration {
        let mut sys = config.build();
        let probe = Ops::new(1_000_000_000);
        let host_rate = probe.as_f64() / sys.compute(EngineKind::Host, probe).as_secs();
        let cse_rate = probe.as_f64() / sys.compute(EngineKind::Cse, probe).as_secs();
        Calibration {
            cse_slowdown: host_rate / cse_rate,
        }
    }
}

/// Per-line quantities consumed by Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LineEstimate {
    /// The line index.
    pub line: usize,
    /// Estimated execution time on the host, in seconds (compute plus
    /// host-side storage streaming for `scan` lines).
    pub ct_host: f64,
    /// Estimated execution time on the CSD, in seconds (compute scaled by
    /// `C`, plus internal-bandwidth storage streaming).
    pub ct_device: f64,
    /// Estimated input volume in bytes (`D_in`).
    pub d_in: u64,
    /// Estimated output volume in bytes (`D_out`).
    pub d_out: u64,
    /// Estimated effective operations (used by the runtime monitor to
    /// project expected throughput).
    pub ops: u64,
}

/// Builds per-line estimates from full-scale predictions.
///
/// `tier` is the tier the generated code will run at (ActivePy generates
/// [`ExecTier::CompiledCopyElim`] code; baselines may estimate for other
/// tiers). `copy_elim` carries the code generator's per-line elimination
/// decisions: sampling runs execute *unoptimized* code, so the sampled
/// costs never mark copies eliminable — the estimator re-tags them for the
/// lines the generated code will optimize (missing entries mean "not
/// eliminated").
#[must_use]
pub fn estimate_lines(
    predictions: &[LinePrediction],
    tier: ExecTier,
    params: &CostParams,
    config: &SystemConfig,
    calibration: &Calibration,
    copy_elim: &[bool],
) -> Vec<LineEstimate> {
    let host_rate = config.host.nominal_rate().as_ops_per_sec();
    let host_storage_bw = config.host_storage_bandwidth().as_bytes_per_sec();
    let flash_bw = config.flash_internal_bandwidth.as_bytes_per_sec();
    predictions
        .iter()
        .map(|p| {
            let mut cost = p.cost;
            if copy_elim.get(p.line).copied().unwrap_or(false) {
                cost.eliminable_copy_bytes = cost.copy_bytes;
            }
            let ops = cost.effective_ops(tier, params);
            let compute_host = ops as f64 / host_rate;
            let ct_host = compute_host + cost.storage_bytes as f64 / host_storage_bw;
            let ct_device =
                compute_host * calibration.cse_slowdown + cost.storage_bytes as f64 / flash_bw;
            LineEstimate {
                line: p.line,
                ct_host,
                ct_device,
                d_in: cost.bytes_in,
                d_out: cost.bytes_out,
                ops,
            }
        })
        .collect()
}

/// Eq. 1: the net profit `S` (seconds saved) of running one task on the
/// CSD instead of the host, for a task whose raw input would otherwise
/// cross the interconnect.
///
/// `S = (DS_raw / BW_D2H + CT_host_compute) − (CT_device + DS_processed /
/// BW_D2H)`; the task is worth offloading when `S > 0`.
#[must_use]
pub fn net_profit(
    ds_raw: u64,
    ct_host_compute: f64,
    ct_device: f64,
    ds_processed: u64,
    bw_d2h: f64,
) -> f64 {
    (ds_raw as f64 / bw_d2h + ct_host_compute) - (ct_device + ds_processed as f64 / bw_d2h)
}

/// The shared-link term of the shard-aware Eq. 1: the D2H bandwidth one
/// shard of an `n`-device fleet can count on when every shard streams at
/// once — its own link until the host root-complex `budget` saturates,
/// then an equal share of the budget: `min(link, budget / n)`.
///
/// Feeding this (instead of the raw per-device link) into
/// [`net_profit`]'s `bw_d2h` makes per-shard assignment honest about
/// fleet-wide congestion: offload looks *more* profitable at high `n`,
/// exactly the regime where shipping raw rows to the host stops scaling.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn shared_link_bandwidth(
    link: csd_sim::units::Bandwidth,
    budget: csd_sim::units::Bandwidth,
    n: usize,
) -> csd_sim::units::Bandwidth {
    assert!(n > 0, "a fleet has at least one shard");
    link.min(budget.scale(1.0 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{Complexity, FittedCurve};
    use alang::LineCost;

    fn curve() -> FittedCurve {
        FittedCurve {
            complexity: Complexity::ON,
            coefficient: 1.0,
            residual: 0.0,
        }
    }

    fn prediction(cost: LineCost) -> LinePrediction {
        LinePrediction {
            line: 0,
            cost,
            compute_curve: curve(),
            out_curve: curve(),
        }
    }

    #[test]
    fn counter_calibration_matches_spec_ratio() {
        let config = SystemConfig::paper_default();
        let calib = Calibration::from_counters(&config);
        let expected = config.host.nominal_rate().as_ops_per_sec()
            / config.cse.nominal_rate().as_ops_per_sec();
        assert!(
            (calib.cse_slowdown - expected).abs() / expected < 1e-6,
            "counter calibration {} vs spec {expected}",
            calib.cse_slowdown
        );
    }

    #[test]
    fn counter_calibration_is_pinned_to_the_bit() {
        let calib = Calibration::from_counters(&SystemConfig::paper_default());
        assert_eq!(calib.cse_slowdown.to_bits(), 0x3ffc_3c3c_3c3c_3c3b);
    }

    #[test]
    fn scan_lines_are_cheaper_on_device() {
        let config = SystemConfig::paper_default();
        let params = CostParams::paper_default();
        let calib = Calibration::from_counters(&config);
        // A pure data-streaming line: lots of bytes, no compute.
        let pred = prediction(LineCost {
            storage_bytes: 8_000_000_000,
            bytes_out: 8_000_000_000,
            ..LineCost::zero()
        });
        let est = estimate_lines(
            &[pred],
            ExecTier::CompiledCopyElim,
            &params,
            &config,
            &calib,
            &[true],
        );
        assert!(
            est[0].ct_device < est[0].ct_host,
            "internal 9 GB/s must beat the 4 GB/s external path: {est:?}"
        );
    }

    #[test]
    fn compute_lines_are_cheaper_on_host() {
        let config = SystemConfig::paper_default();
        let params = CostParams::paper_default();
        let calib = Calibration::from_counters(&config);
        let pred = prediction(LineCost {
            compute_ops: 10_000_000_000,
            bytes_in: 1_000_000,
            bytes_out: 1_000_000,
            ..LineCost::zero()
        });
        let est = estimate_lines(
            &[pred],
            ExecTier::CompiledCopyElim,
            &params,
            &config,
            &calib,
            &[true],
        );
        assert!(
            est[0].ct_host < est[0].ct_device,
            "the CSE is slower at pure compute: {est:?}"
        );
    }

    #[test]
    fn net_profit_sign_behaviour() {
        // 8 GB raw reduced to 8 MB, host compute 0.5 s, device 1.5 s,
        // 4 GB/s link: S = (2.0 + 0.5) - (1.5 + 0.002) > 0.
        let s = net_profit(8_000_000_000, 0.5, 1.5, 8_000_000, 4e9);
        assert!(s > 0.9);
        // No data reduction and slower device: offloading loses.
        let s = net_profit(8_000_000, 0.5, 1.5, 8_000_000, 4e9);
        assert!(s < 0.0);
    }

    #[test]
    fn shared_link_caps_at_the_budget_share() {
        use csd_sim::units::Bandwidth;
        let link = Bandwidth::from_gb_per_sec(4.0);
        let budget = Bandwidth::from_gb_per_sec(16.0);
        for n in [1usize, 2, 4] {
            let bw = shared_link_bandwidth(link, budget, n);
            assert!(
                (bw.as_bytes_per_sec() - link.as_bytes_per_sec()).abs() < 1e-6,
                "n={n}: under the budget, each shard keeps its full link"
            );
        }
        let bw = shared_link_bandwidth(link, budget, 8);
        assert!(
            (bw.as_bytes_per_sec() - 2e9).abs() < 1e-3,
            "8 shards over a 16 GB/s budget see 2 GB/s each, got {bw:?}"
        );
        // Congestion makes offload look better: the raw-shipping term of
        // Eq. 1 grows as the effective link shrinks.
        let congested = net_profit(8_000_000_000, 0.5, 1.5, 8_000_000, 2e9);
        let uncongested = net_profit(8_000_000_000, 0.5, 1.5, 8_000_000, 4e9);
        assert!(congested > uncongested);
    }
}
