//! Eq. 1's price list, and device-time estimation.
//!
//! ActivePy estimates a line's CSD execution time by multiplying its
//! predicted host computation time by a constant factor `C`, which it
//! calibrates either by "querying the CSD's performance counters (e.g.
//! retired instructions per cycle)" or by "running a small sample program
//! on both a CSD and the host computer" (§III-A). Against the simulator the
//! two are one probe: its ops over the wall time each engine took.
//!
//! [`Prices`] prices every Eq. 1 charge: a line on either engine and,
//! through its [`Link`], `n` bytes over `BW_D2H` and a line's net profit
//! `S`. It prices no fixed cost (DMA setup, link latencies), which is what
//! the simulator's charges exceed it by. [`LineEstimate`] carries the four
//! per-line quantities Algorithm 1 consumes: `CT_host`, `CT_device`,
//! `D_in`, and `D_out`.

use crate::fit::LinePrediction;
use alang::{CostParams, ExecTier};
use csd_sim::units::{Bandwidth, Ops};
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

/// Eq. 1's price list for one platform under one calibration: what a line
/// costs on each engine, and the [`Link`] its transfers cross. Rates are
/// per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prices {
    host_rate: f64,
    host_storage_bw: f64,
    flash_bw: f64,
    cse_slowdown: f64,
    /// The link its transfers cross.
    pub link: Link,
}

impl Prices {
    /// The prices of `config`'s platform, with the CSE's compute scaled by
    /// `calibration`.
    #[must_use]
    pub fn new(config: &SystemConfig, calibration: &Calibration) -> Prices {
        let flash = config.flash_internal_bandwidth;
        Prices {
            host_rate: config.host.nominal_rate().as_ops_per_sec(),
            // The host streams stored data through flash, NVMe and PCIe.
            host_storage_bw: flash.min(config.d2h_bandwidth()).as_bytes_per_sec(),
            flash_bw: flash.as_bytes_per_sec(),
            cse_slowdown: calibration.cse_slowdown,
            link: Link::d2h(config),
        }
    }

    /// `CT_host` of a line that retires `ops` and streams `storage_bytes`
    /// out of storage.
    #[must_use]
    pub fn host_line(&self, ops: u64, storage_bytes: u64) -> f64 {
        ops as f64 / self.host_rate + storage_bytes as f64 / self.host_storage_bw
    }

    /// `CT_device` of the same line: the host's compute time scaled by `C`,
    /// plus streaming at the internal bandwidth.
    #[must_use]
    pub fn device_line(&self, ops: u64, storage_bytes: u64) -> f64 {
        ops as f64 / self.host_rate * self.cse_slowdown + storage_bytes as f64 / self.flash_bw
    }
}

/// `BW_D2H`: the link an Eq. 1 transfer crosses, which prices moving bytes
/// device-to-host and so the net profit of offloading a line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link(f64);

impl Link {
    /// A link of `bw_d2h` bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bw_d2h` is not strictly positive.
    #[must_use]
    pub fn new(bw_d2h: f64) -> Link {
        assert!(bw_d2h > 0.0, "BW_D2H must be positive");
        Link(bw_d2h)
    }

    /// `config`'s device-to-host link: the bottleneck of NVMe and PCIe.
    #[must_use]
    pub fn d2h(config: &SystemConfig) -> Link {
        Link(config.d2h_bandwidth().as_bytes_per_sec())
    }

    /// The link one shard of an `n`-device fleet counts on when every shard
    /// streams at once, `min(link, budget / n)`: a fleet plan prices on it,
    /// so offload looks *more* profitable at high `n`, exactly where
    /// shipping raw rows to the host stops scaling.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn shared(self, budget: Bandwidth, n: usize) -> Link {
        assert!(n > 0, "a fleet has at least one shard");
        Link(self.0.min(budget.as_bytes_per_sec() * (1.0 / n as f64)))
    }

    /// `BW_D2H` in bytes per second.
    #[must_use]
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Eq. 1's `D / BW_D2H`: seconds to move `bytes` device-to-host.
    #[must_use]
    pub fn transfer(self, bytes: u64) -> f64 {
        bytes as f64 / self.0
    }

    /// Eq. 1: the net profit `S` (seconds saved) of running line `e` on the
    /// CSD instead of the host, when its raw input would otherwise cross
    /// the link: `S = (D_in / BW_D2H + CT_host) − (CT_device + D_out /
    /// BW_D2H)`. The line is worth offloading when `S > 0`.
    #[must_use]
    pub fn net_profit(self, e: &LineEstimate) -> f64 {
        (self.transfer(e.d_in) + e.ct_host) - (e.ct_device + self.transfer(e.d_out))
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
    let prices = Prices::new(config, calibration);
    predictions
        .iter()
        .map(|p| {
            let mut cost = p.cost;
            if copy_elim.get(p.line).copied().unwrap_or(false) {
                cost.eliminable_copy_bytes = cost.copy_bytes;
            }
            let ops = cost.effective_ops(tier, params);
            LineEstimate {
                line: p.line,
                ct_host: prices.host_line(ops, cost.storage_bytes),
                ct_device: prices.device_line(ops, cost.storage_bytes),
                d_in: cost.bytes_in,
                d_out: cost.bytes_out,
                ops,
            }
        })
        .collect()
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

    /// Each price against the simulator's charge for the same work, on the
    /// paper's platform and on NVMe-oF, from an odd start time. The charge
    /// exceeds the price by exactly the fixed costs Eq. 1 leaves out: DMA
    /// setup plus both link latencies per transfer, NVMe plus PCIe latency
    /// per host storage read, and nothing on compute or a CSE storage read.
    /// What is left is the clock's rounding: at most 1.22e-17 s here, under
    /// `ROUNDING`, half an ulp of the start time (2^-56 s).
    #[test]
    fn each_price_misses_exactly_the_fixed_costs() {
        use csd_sim::units::{Bytes, Duration};
        use csd_sim::{Direction, System};
        const ROUNDING: f64 = f64::EPSILON / 16.0;
        let (ops, bytes) = (123_456_789, 67_108_871);
        for config in [
            SystemConfig::paper_default(),
            SystemConfig::nvmeof_default(),
        ] {
            let prices = Prices::new(&config, &Calibration::from_counters(&config));
            let latencies = (config.nvme_latency + config.pcie_latency).as_secs();
            let charge = |work: &dyn Fn(&mut System) -> Duration| {
                let mut sys = config.build();
                sys.advance(Duration::from_secs(0.123_456_789));
                work(&mut sys).as_secs()
            };
            let cases = [
                (
                    "host compute",
                    charge(&|s| s.compute(EngineKind::Host, Ops::new(ops))),
                    prices.host_line(ops, 0),
                    0.0,
                ),
                (
                    "CSE compute",
                    charge(&|s| s.compute(EngineKind::Cse, Ops::new(ops))),
                    prices.device_line(ops, 0),
                    0.0,
                ),
                (
                    "host storage read",
                    charge(&|s| s.storage_read(EngineKind::Host, Bytes::new(bytes))),
                    prices.host_line(0, bytes),
                    latencies,
                ),
                (
                    "CSE storage read",
                    charge(&|s| s.storage_read(EngineKind::Cse, Bytes::new(bytes))),
                    prices.device_line(0, bytes),
                    0.0,
                ),
                (
                    "transfer",
                    charge(&|s| s.transfer(Direction::DeviceToHost, Bytes::new(bytes))),
                    prices.link.transfer(bytes),
                    config.dma_setup.as_secs() + latencies,
                ),
            ];
            for (work, charged, priced, fixed) in cases {
                let rounding = charged - priced - fixed;
                assert!(
                    rounding.abs() <= ROUNDING,
                    "{work}: charged {charged}, priced {priced}, fixed {fixed}"
                );
            }
        }
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

    fn line(ct_host: f64, ct_device: f64, d_in: u64, d_out: u64) -> LineEstimate {
        LineEstimate {
            line: 0,
            ct_host,
            ct_device,
            d_in,
            d_out,
            ops: 0,
        }
    }

    #[test]
    fn net_profit_sign_behaviour() {
        // 8 GB raw reduced to 8 MB, host compute 0.5 s, device 1.5 s,
        // 4 GB/s link: S = (2.0 + 0.5) - (1.5 + 0.002) > 0.
        let link = Link::new(4e9);
        assert!(link.net_profit(&line(0.5, 1.5, 8_000_000_000, 8_000_000)) > 0.9);
        // No data reduction and slower device: offloading loses.
        assert!(link.net_profit(&line(0.5, 1.5, 8_000_000, 8_000_000)) < 0.0);
    }

    #[test]
    fn shared_link_caps_at_the_budget_share() {
        let link = Link::new(4e9);
        let budget = Bandwidth::from_gb_per_sec(16.0);
        for n in [1usize, 2, 4] {
            assert_eq!(
                link.shared(budget, n),
                link,
                "n={n}: under the budget, each shard keeps its full link"
            );
        }
        let shared = link.shared(budget, 8);
        assert!(
            (shared.bytes_per_sec() - 2e9).abs() < 1e-3,
            "8 shards over a 16 GB/s budget see 2 GB/s each, got {shared:?}"
        );
        // Congestion makes offload look better: the raw-shipping term of
        // Eq. 1 grows as the effective link shrinks.
        let e = line(0.5, 1.5, 8_000_000_000, 8_000_000);
        assert!(shared.net_profit(&e) > link.net_profit(&e));
    }
}
