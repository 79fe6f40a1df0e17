//! Interconnect links.
//!
//! The CSD talks to the host over NVMe at up to 5 GB/s, while the host's
//! PCIe 3.0 hub gives storage traffic a 4 GB/s budget (§II-A, §IV-A). A
//! transfer between device and host therefore crosses a *path* of links and
//! is limited by the slowest one. Links carry a per-message latency and an
//! optional availability trace (shared-bus contention).

use crate::availability::AvailabilityTrace;
use crate::units::{Bandwidth, Bytes, Duration, SimTime};
use serde::Serialize;
use std::fmt;

/// A point-to-point interconnect link.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Link {
    name: String,
    bandwidth: Bandwidth,
    latency: Duration,
    availability: AvailabilityTrace,
    bytes_moved: Bytes,
}

impl Link {
    /// Creates a link with the given peak `bandwidth` and per-message
    /// `latency`.
    #[must_use]
    pub fn new(name: impl Into<String>, bandwidth: Bandwidth, latency: Duration) -> Self {
        Link {
            name: name.into(),
            bandwidth,
            latency,
            availability: AvailabilityTrace::full(),
            bytes_moved: Bytes::ZERO,
        }
    }

    /// The link's name (for reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Peak bandwidth.
    #[must_use]
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Per-message latency.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.latency
    }

    /// Total bytes this link has carried.
    #[must_use]
    pub fn bytes_moved(&self) -> Bytes {
        self.bytes_moved
    }

    /// Time to move `bytes` starting at `start`, without recording traffic.
    ///
    /// Zero-byte transfers still pay the message latency (a doorbell ring is
    /// never free).
    #[must_use]
    pub fn time_to_transfer(&self, start: SimTime, bytes: Bytes) -> Duration {
        let effective_secs = self.bandwidth.transfer_time(bytes).as_secs();
        self.latency
            + self
                .availability
                .invert(start + self.latency, effective_secs)
    }

    /// Moves `bytes` starting at `start`: returns the wall-clock duration and
    /// records the traffic.
    pub fn transfer(&mut self, start: SimTime, bytes: Bytes) -> Duration {
        let d = self.time_to_transfer(start, bytes);
        self.bytes_moved += bytes;
        d
    }

    /// Resets the traffic counter.
    pub fn reset_counters(&mut self) {
        self.bytes_moved = Bytes::ZERO;
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({}, {})", self.name, self.bandwidth, self.latency)
    }
}

/// A path across several links; throughput is the minimum bandwidth along
/// the path and latency is the sum.
///
/// ```
/// use csd_sim::link::{Link, Path};
/// use csd_sim::units::{Bandwidth, Bytes, Duration, SimTime};
///
/// let nvme = Link::new("nvme", Bandwidth::from_gb_per_sec(5.0), Duration::from_micros(5.0));
/// let pcie = Link::new("pcie", Bandwidth::from_gb_per_sec(4.0), Duration::from_micros(1.0));
/// let path = Path::new(vec![nvme, pcie]);
/// // Bottleneck is 4 GB/s.
/// let t = path.time_to_transfer(SimTime::ZERO, Bytes::from_gb_f64(4.0));
/// assert!(t.as_secs() > 1.0 && t.as_secs() < 1.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Path {
    links: Vec<Link>,
}

impl Path {
    /// Creates a path from an ordered list of links.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    #[must_use]
    pub fn new(links: Vec<Link>) -> Self {
        assert!(!links.is_empty(), "a path needs at least one link");
        Path { links }
    }

    /// Total per-message latency along the path.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.links.iter().map(Link::latency).sum()
    }

    /// Time to move `bytes` across the whole path starting at `start`
    /// (store-and-forward is not modelled; the bottleneck link dominates).
    #[must_use]
    pub fn time_to_transfer(&self, start: SimTime, bytes: Bytes) -> Duration {
        // Use the bottleneck link's availability-aware timing, then add the
        // other links' latencies.
        let (bi, _) = self
            .links
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.bandwidth()
                    .as_bytes_per_sec()
                    .partial_cmp(&b.bandwidth().as_bytes_per_sec())
                    .expect("bandwidths are finite")
            })
            .expect("path is non-empty");
        let extra_latency: Duration = self
            .links
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != bi)
            .map(|(_, l)| l.latency())
            .sum();
        extra_latency + self.links[bi].time_to_transfer(start + extra_latency, bytes)
    }

    /// Moves `bytes` across the path, recording traffic on every link.
    pub fn transfer(&mut self, start: SimTime, bytes: Bytes) -> Duration {
        let d = self.time_to_transfer(start, bytes);
        for l in &mut self.links {
            l.bytes_moved += bytes;
        }
        d
    }

    /// Resets traffic counters on all links.
    pub fn reset_counters(&mut self) {
        for l in &mut self.links {
            l.reset_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(b: f64) -> Bandwidth {
        Bandwidth::from_gb_per_sec(b)
    }

    #[test]
    fn transfer_time_is_latency_plus_bytes_over_bw() {
        let l = Link::new("x", gb(5.0), Duration::from_micros(10.0));
        let t = l.time_to_transfer(SimTime::ZERO, Bytes::from_gb_f64(5.0));
        assert!((t.as_secs() - (1.0 + 10e-6)).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_still_pays_latency() {
        let l = Link::new("x", gb(5.0), Duration::from_micros(10.0));
        let t = l.time_to_transfer(SimTime::ZERO, Bytes::ZERO);
        assert!((t.as_secs() - 10e-6).abs() < 1e-15);
    }

    #[test]
    fn transfer_records_traffic() {
        let mut l = Link::new("x", gb(5.0), Duration::ZERO);
        l.transfer(SimTime::ZERO, Bytes::from_mib(1));
        l.transfer(SimTime::ZERO, Bytes::from_mib(2));
        assert_eq!(l.bytes_moved(), Bytes::from_mib(3));
        l.reset_counters();
        assert_eq!(l.bytes_moved(), Bytes::ZERO);
    }

    #[test]
    fn path_bottleneck_is_min_bandwidth() {
        let p = Path::new(vec![
            Link::new("a", gb(5.0), Duration::ZERO),
            Link::new("b", gb(4.0), Duration::ZERO),
            Link::new("c", gb(9.0), Duration::ZERO),
        ]);
        let t = p.time_to_transfer(SimTime::ZERO, Bytes::from_gb_f64(4.0));
        assert!((t.as_secs() - 1.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn path_latency_sums() {
        let p = Path::new(vec![
            Link::new("a", gb(5.0), Duration::from_micros(2.0)),
            Link::new("b", gb(4.0), Duration::from_micros(3.0)),
        ]);
        assert!((p.latency().as_secs() - 5e-6).abs() < 1e-15);
    }

    #[test]
    fn contended_link_slows_transfer() {
        let mut l = Link::new("x", gb(4.0), Duration::ZERO);
        l.availability = AvailabilityTrace::constant(0.5);
        let t = l.time_to_transfer(SimTime::ZERO, Bytes::from_gb_f64(4.0));
        assert!((t.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn path_transfer_charges_all_links() {
        let mut p = Path::new(vec![
            Link::new("a", gb(5.0), Duration::ZERO),
            Link::new("b", gb(4.0), Duration::ZERO),
        ]);
        p.transfer(SimTime::ZERO, Bytes::from_mib(8));
        for l in &p.links {
            assert_eq!(l.bytes_moved(), Bytes::from_mib(8));
        }
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        let _ = Path::new(Vec::new());
    }
}
