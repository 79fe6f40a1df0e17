//! Online cost profiles for profile-guided re-planning.
//!
//! The sampling phase fits each line's complexity curves once, from four
//! down-scaled runs (§III-A). Every *full-scale* execution afterwards
//! measures the true per-line costs — the same numbers the tracer's
//! `exec.chunk_sim_ns` histograms aggregate — and then throws them away.
//! This module keeps them: a [`ProfileStore`] accumulates measured
//! [`LineCost`]s per (workload, platform-fingerprint) key — the key
//! [`crate::plan::PlanCache::key_for`] derives — so a caller can *refit* a
//! plan from observations instead of extrapolations, with
//! [`crate::runtime::ActivePy::replan`].
//!
//! Determinism: observations are integer sums (`u128` accumulators over
//! the `u64` cost fields), means are integer divisions, and the blend in
//! [`crate::fit::blend_predictions`] is a pure function of (prediction,
//! mean, count). Recording order across threads cannot change any
//! refitted plan because addition commutes on the integer sums.
//!
//! The [`ProfileRecorder`] handle follows the tracer's identity-equality
//! pattern: disabled by default, zero-cost when disabled, and compared by
//! `Arc` identity so it can ride inside `PartialEq` options structs
//! without making two otherwise-equal runtimes unequal.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use alang::LineCost;

/// Aggregated full-scale observations of one line's cost.
///
/// Sums are `u128` so that even `u64::MAX`-sized byte counters cannot
/// overflow across billions of runs; the mean rounds toward zero
/// (integer division), which keeps it exact for the common case where
/// every observation of a deterministic pipeline is identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineObservation {
    /// Number of full-scale runs folded in.
    pub count: u64,
    sums: [u128; 6],
    calls: u32,
}

impl LineObservation {
    /// Folds one measured cost into the aggregate.
    pub fn record(&mut self, cost: &LineCost) {
        self.count += 1;
        self.sums[0] += u128::from(cost.compute_ops);
        self.sums[1] += u128::from(cost.storage_bytes);
        self.sums[2] += u128::from(cost.bytes_in);
        self.sums[3] += u128::from(cost.bytes_out);
        self.sums[4] += u128::from(cost.copy_bytes);
        self.sums[5] += u128::from(cost.eliminable_copy_bytes);
        self.calls = cost.calls;
    }

    /// The mean observed cost (zero when nothing was recorded).
    #[must_use]
    pub fn mean_cost(&self) -> LineCost {
        if self.count == 0 {
            return LineCost::zero();
        }
        let n = u128::from(self.count);
        let mean = |i: usize| -> u64 { u64::try_from(self.sums[i] / n).unwrap_or(u64::MAX) };
        LineCost {
            compute_ops: mean(0),
            storage_bytes: mean(1),
            bytes_in: mean(2),
            bytes_out: mean(3),
            copy_bytes: mean(4),
            eliminable_copy_bytes: mean(5),
            calls: self.calls,
        }
    }
}

/// Everything measured so far for one (workload, platform) key.
///
/// `version` bumps once per recorded run: it is the number of runs a
/// refit blends in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WorkloadProfile {
    /// Bumped once per recorded run.
    pub version: u64,
    lines: Vec<LineObservation>,
}

impl WorkloadProfile {
    /// Folds one full run's per-line measured costs into the profile.
    pub fn record_run(&mut self, costs: &[LineCost]) {
        if self.lines.len() < costs.len() {
            self.lines.resize(costs.len(), LineObservation::default());
        }
        for (obs, cost) in self.lines.iter_mut().zip(costs) {
            obs.record(cost);
        }
        self.version += 1;
    }

    /// The aggregate for `line`, if any run reached it.
    #[must_use]
    pub fn observation(&self, line: usize) -> Option<&LineObservation> {
        self.lines.get(line).filter(|o| o.count > 0)
    }

    /// Whether no run has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.version == 0
    }
}

/// The profile key: workload name plus the plan-cache fingerprint of the
/// platform config and planning options.
pub type ProfileKey = (String, u64);

/// A keyed, thread-safe store of measured per-line cost observations.
///
/// Keys are [`crate::plan::PlanCache::key_for`]'s, so a profile recorded
/// under one key describes exactly the plan cached under the same key.
#[derive(Debug, Default)]
pub struct ProfileStore {
    profiles: Mutex<HashMap<ProfileKey, WorkloadProfile>>,
}

impl ProfileStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        ProfileStore::default()
    }

    /// Records one full run's per-line measured costs under `key`.
    pub fn record(&self, key: &ProfileKey, costs: &[LineCost]) {
        let mut profiles = self.profiles.lock().unwrap_or_else(PoisonError::into_inner);
        profiles.entry(key.clone()).or_default().record_run(costs);
    }

    /// A snapshot of the profile under `key` (empty default if absent).
    #[must_use]
    pub fn profile(&self, key: &ProfileKey) -> WorkloadProfile {
        self.profiles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
            .unwrap_or_default()
    }
}

/// A cheap, cloneable handle that routes one execution's measured line
/// costs into a [`ProfileStore`] under a fixed key.
///
/// Disabled by default ([`ProfileRecorder::disabled`]) so profiling is
/// strictly opt-in: the fig5 golden runs, and every caller that never
/// asks for re-planning, pay nothing and observe nothing.
#[derive(Debug, Clone, Default)]
pub struct ProfileRecorder {
    inner: Option<Arc<RecorderInner>>,
}

#[derive(Debug)]
struct RecorderInner {
    store: Arc<ProfileStore>,
    key: ProfileKey,
}

impl ProfileRecorder {
    /// A recorder that drops everything (the default).
    #[must_use]
    pub fn disabled() -> Self {
        ProfileRecorder { inner: None }
    }

    /// A recorder feeding `store` under `key`.
    #[must_use]
    pub fn to_store(store: Arc<ProfileStore>, key: ProfileKey) -> Self {
        ProfileRecorder {
            inner: Some(Arc::new(RecorderInner { store, key })),
        }
    }

    /// Whether observations are being kept.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one full run's per-line measured costs (no-op when
    /// disabled).
    pub fn record(&self, costs: &[LineCost]) {
        if let Some(inner) = &self.inner {
            inner.store.record(&inner.key, costs);
        }
    }
}

/// Like [`isp_obs::Tracer`], equality is identity: two enabled recorders
/// are equal only when they share the same `Arc`, and disabled recorders
/// are all equal. Options structs deriving `PartialEq` stay comparable.
impl PartialEq for ProfileRecorder {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(scale: u64) -> LineCost {
        LineCost {
            compute_ops: 100 * scale,
            storage_bytes: 80 * scale,
            bytes_in: 40 * scale,
            bytes_out: 10 * scale,
            copy_bytes: 20 * scale,
            eliminable_copy_bytes: 20 * scale,
            calls: 2,
        }
    }

    #[test]
    fn observation_means_are_exact_integer_division() {
        let mut obs = LineObservation::default();
        obs.record(&cost(1));
        obs.record(&cost(3));
        let mean = obs.mean_cost();
        assert_eq!(obs.count, 2);
        assert_eq!(mean.compute_ops, 200);
        assert_eq!(mean.bytes_out, 20);
        assert_eq!(mean.calls, 2);
    }

    #[test]
    fn empty_observation_means_zero() {
        assert_eq!(LineObservation::default().mean_cost(), LineCost::zero());
    }

    #[test]
    fn profile_versions_bump_per_run_and_key_isolation_holds() {
        let store = ProfileStore::new();
        let key_a: ProfileKey = ("w".into(), 1);
        let key_b: ProfileKey = ("w".into(), 2);
        assert_eq!(store.profile(&key_a).version, 0);
        store.record(&key_a, &[cost(1), cost(2)]);
        store.record(&key_a, &[cost(1), cost(2)]);
        store.record(&key_b, &[cost(5)]);
        assert_eq!(store.profile(&key_a).version, 2);
        assert_eq!(store.profile(&key_b).version, 1);
        let profile = store.profile(&key_a);
        assert_eq!(profile.observation(0).expect("line 0").count, 2);
        assert_eq!(profile.observation(1).expect("line 1").mean_cost(), cost(2));
        assert!(profile.observation(2).is_none());
        assert!(store.profile(&("other".into(), 1)).is_empty());
    }

    #[test]
    fn recording_order_cannot_change_the_aggregate() {
        let mut forward = WorkloadProfile::default();
        forward.record_run(&[cost(1)]);
        forward.record_run(&[cost(4)]);
        let mut backward = WorkloadProfile::default();
        backward.record_run(&[cost(4)]);
        backward.record_run(&[cost(1)]);
        assert_eq!(forward, backward);
    }

    #[test]
    fn recorder_identity_equality_matches_the_tracer_pattern() {
        let store = Arc::new(ProfileStore::new());
        let a = ProfileRecorder::to_store(Arc::clone(&store), ("w".into(), 7));
        let b = a.clone();
        let c = ProfileRecorder::to_store(store, ("w".into(), 7));
        assert_eq!(a, b, "clones share the Arc");
        assert_ne!(a, c, "independent recorders differ even on equal keys");
        assert_eq!(ProfileRecorder::disabled(), ProfileRecorder::default());
        assert_ne!(a, ProfileRecorder::disabled());
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = ProfileRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(&[cost(1)]);
        let store = Arc::new(ProfileStore::new());
        let live = ProfileRecorder::to_store(Arc::clone(&store), ("w".into(), 1));
        assert!(live.is_enabled());
        live.record(&[cost(1)]);
        assert_eq!(store.profile(&("w".into(), 1)).version, 1);
    }
}
