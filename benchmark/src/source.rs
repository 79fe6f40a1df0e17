//! An [`InputSource`] wrapper that times input generation.

use crate::spans::Spans;
use activepy::sampling::InputSource;
use alang::Storage;

/// The span name of one `storage_at` call.
pub const DATAGEN_SPAN: &str = "workloads.datagen";

/// Forwards to `inner`, recording one [`DATAGEN_SPAN`] per
/// materialization so sampling's self time can exclude its datagen
/// children. The wire fingerprint passes through unchanged: a wrapped
/// source must hit the same plan-cache keys as the bare one.
pub struct TimedSource<'a> {
    pub inner: &'a dyn InputSource,
    pub spans: &'a Spans,
}

impl InputSource for TimedSource<'_> {
    fn storage_at(&self, scale: f64) -> Storage {
        self.spans
            .time(DATAGEN_SPAN, || self.inner.storage_at(scale))
    }

    fn wire_fingerprint(&self) -> u64 {
        self.inner.wire_fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activepy::runtime::ActivePy;
    use activepy::PlanCache;
    use csd_sim::SystemConfig;

    #[test]
    fn wrapper_forwards_the_wire_fingerprint_and_cache_key() {
        let spans = Spans::with_capacity(4);
        spans.set_on(true);
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        for w in isp_workloads::decode_set() {
            let timed = TimedSource {
                inner: &w,
                spans: &spans,
            };
            assert_ne!(timed.wire_fingerprint(), 0, "{}", w.name());
            assert_eq!(timed.wire_fingerprint(), w.wire_fingerprint());
            assert_eq!(
                PlanCache::key_for(&rt, w.name(), &timed, &config),
                PlanCache::key_for(&rt, w.name(), &w, &config)
            );
        }
        // Keys never materialize storage; one explicit call records one span.
        assert_eq!(spans.len(), 0);
    }

    #[test]
    fn each_materialization_is_one_span() {
        let spans = Spans::with_capacity(4);
        spans.set_on(true);
        let w = isp_workloads::by_name("TPC-H-6").expect("registered");
        let timed = TimedSource {
            inner: &w,
            spans: &spans,
        };
        let direct = w.storage_at(1.0 / 512.0);
        let wrapped = timed.storage_at(1.0 / 512.0);
        assert_eq!(direct.total_virtual_bytes(), wrapped.total_virtual_bytes());
        let spans = spans.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, DATAGEN_SPAN);
    }
}
