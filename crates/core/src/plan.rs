//! Offload plans and the keyed plan cache.
//!
//! Planning — sampling at the paper's down-scales, curve fitting,
//! calibration, Eq.1 estimation, and Algorithm 1 — depends only on the
//! program, the workload's input generator, the platform
//! [`SystemConfig`], and the planning-relevant runtime option (the
//! cost-model constants). It does *not* depend on the
//! contention scenario, the monitoring policy, or preemption timing:
//! those only shape execution. [`OffloadPlan`] captures the full planning
//! product once, so every execution variant of the same (workload,
//! platform) pair — contended, uncontended, with or without migration —
//! replays it instead of re-sampling.
//!
//! [`PlanCache`] keys plans by workload name plus a fingerprint of the
//! platform config and planning options, computes misses under the cache
//! lock so each key is planned exactly once even under concurrent sweeps,
//! and counts hits and misses. A cached plan never changes: re-planning
//! from measured costs is an explicit [`ActivePy::replan`] call.

use isp_obs::wal::fnv1a;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::assign::Assignment;
use crate::error::Result;
use crate::estimate::{Calibration, LineEstimate};
use crate::fit::LinePrediction;
use crate::persist::{program_fingerprint, WarmSeed};
use crate::profile::ProfileKey;
use crate::runtime::ActivePy;
use crate::sampling::{InputSource, SamplingReport};
use crate::shard::{derive_sharded_plan, ShardedPlan};
use alang::builtins::Storage;
use alang::shard::ShardMap;
use alang::{LoweredProgram, Program};
use csd_sim::fleet::DEFAULT_BUDGET_LINKS;
use csd_sim::SystemConfig;

/// Host wall-clock spent in each planning phase, in nanoseconds.
///
/// These are *real* (measurement-host) times for the cache's bookkeeping,
/// distinct from the simulated seconds charged to the virtual clock
/// (`sampling_secs` / `compile_secs` on [`OffloadPlan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanTimings {
    /// Sampling runs over the down-scaled inputs.
    pub sampling_nanos: u64,
    /// Complexity fitting and full-scale extrapolation.
    pub fit_nanos: u64,
    /// Calibration, copy-elimination analysis, Eq.1 estimation, and
    /// Algorithm 1 assignment.
    pub assign_nanos: u64,
    /// Materializing the full-scale input.
    pub materialize_nanos: u64,
}

/// The complete product of the planning half of the pipeline.
///
/// Everything needed to execute under any contention scenario: the
/// program, the fitted predictions and estimates, the Algorithm-1
/// assignment, the simulated pipeline overheads, and the materialized
/// full-scale input.
#[derive(Debug, Clone)]
pub struct OffloadPlan {
    /// The planned program.
    pub program: Program,
    /// The program lowered to register bytecode with this plan's
    /// copy-elimination flags baked in — generated once while planning,
    /// reused by every execution of the plan.
    pub lowered: LoweredProgram,
    /// Raw sampling measurements at the down-scales.
    pub sampling: SamplingReport,
    /// Full-scale predictions with their fitted curves.
    pub predictions: Vec<LinePrediction>,
    /// The calibrated CSE-slowdown constant.
    pub calibration: Calibration,
    /// Per-line copy-elimination decisions for the generated code.
    pub copy_elim: Vec<bool>,
    /// Per-line estimates fed to Algorithm 1 and the monitor.
    pub estimates: Vec<LineEstimate>,
    /// The Algorithm-1 assignment.
    pub assignment: Assignment,
    /// Simulated seconds spent in the sampling phase.
    pub sampling_secs: f64,
    /// Simulated seconds spent generating code.
    pub compile_secs: f64,
    /// The materialized full-scale input.
    pub full_storage: Storage,
    /// Host wall-clock spent building this plan.
    pub timings: PlanTimings,
    /// Per-line Eq. 1 terms exactly as Algorithm 1 consumed them — the
    /// audit layer's capture ([`crate::audit::capture_terms`]). Appended
    /// last so the field prefix existing constructors name is unchanged.
    pub eq1: Vec<crate::audit::Eq1Term>,
}

/// Snapshot of a [`PlanCache`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups satisfied from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
}

impl PlanCacheStats {
    /// Hits as a fraction of all lookups (0 when the cache is unused).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type PlanKey = ProfileKey;

/// A sharded-plan key extends the base key with the [`ShardMap`]
/// fingerprint, which covers shard count, bounds, and the set of sharded
/// sources — so an N=1 and an N=4 plan (or two maps sharding different
/// sources over the same rows) can never collide.
type ShardedPlanKey = (String, u64, u64);

/// A thread-safe cache of [`OffloadPlan`]s keyed by workload name and a
/// fingerprint of the platform config plus planning options.
///
/// Misses are computed while holding the cache lock, so concurrent
/// lookups of the same key plan exactly once; the loser of the race
/// observes a hit. Execution-only options (monitoring, preemption,
/// overhead charging, fault/recovery plans, the data-parallel kernel
/// policy) are deliberately outside the key: runs that differ only in
/// those share one plan.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<OffloadPlan>>>,
    sharded: Mutex<HashMap<ShardedPlanKey, Arc<ShardedPlan>>>,
    /// Warm-start seeds loaded from a persisted cache: per-key sampling
    /// reports that let a miss on the program they sampled plan through
    /// [`ActivePy::plan_from_sampling`], drawing the full-scale input and
    /// none of the samples.
    warm: Mutex<HashMap<PlanKey, WarmSeed>>,
    hits: AtomicU64,
    misses: AtomicU64,
    warm_starts: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the cached plan for (`name`, `runtime`'s planning options,
    /// `config`), building it via [`ActivePy::plan`] on first use.
    ///
    /// # Errors
    ///
    /// Propagates planning failures; failed plans are not cached.
    pub fn plan_for(
        &self,
        runtime: &ActivePy,
        name: &str,
        program: &Program,
        input: &dyn InputSource,
        config: &SystemConfig,
    ) -> Result<Arc<OffloadPlan>> {
        let key = Self::key_for(runtime, name, input, config);
        let tracer = &runtime.options().tracer;
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cached) = plans.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            tracer.counter_add("plan_cache.hits", 1);
            return Ok(Arc::clone(cached));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        tracer.counter_add("plan_cache.misses", 1);
        // Warm start: a persisted sampling report for this key, sampled
        // from this very program, re-plans through phases 2–5 after one
        // `storage_at(1.0)` call — no sampling run. A seed of any other
        // program (a stale file, a reused name) is passed over.
        let sampling = self
            .warm
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .filter(|seed| seed.program == program_fingerprint(program))
            .map(|seed| seed.sampling.clone());
        let plan = Arc::new(match sampling {
            Some(sampling) => {
                self.warm_starts.fetch_add(1, Ordering::Relaxed);
                tracer.counter_add("plan_cache.warm_starts", 1);
                runtime.plan_from_sampling(program, sampling, input.storage_at(1.0), config)?
            }
            None => runtime.plan(program, input, config)?,
        });
        plans.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Returns the cached fleet plan for (`name`, planning options,
    /// `config`, `map`), deriving it from the base [`OffloadPlan`] —
    /// which is itself looked up (or built) under the *unchanged* base
    /// key, so single-device sampling is reused across every shard
    /// count. The sharded key appends [`ShardMap::fingerprint`], which
    /// covers shard count, bounds, and sharded sources: plans for
    /// different fleet shapes can never collide.
    ///
    /// # Errors
    ///
    /// Propagates base-planning failures; failed plans are not cached.
    pub fn sharded_plan_for(
        &self,
        runtime: &ActivePy,
        name: &str,
        program: &Program,
        input: &dyn InputSource,
        config: &SystemConfig,
        map: &ShardMap,
    ) -> Result<Arc<ShardedPlan>> {
        let (name_key, fp) = Self::key_for(runtime, name, input, config);
        let key = (name_key, fp, map.fingerprint());
        {
            let sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(plan) = sharded.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                runtime.options().tracer.counter_add("plan_cache.hits", 1);
                return Ok(Arc::clone(plan));
            }
        }
        // The base lookup below does its own hit/miss accounting.
        let base = self.plan_for(runtime, name, program, input, config)?;
        let budget = config.d2h_bandwidth().scale(DEFAULT_BUDGET_LINKS);
        let mut sharded = self.sharded.lock().unwrap_or_else(PoisonError::into_inner);
        let plan = sharded
            .entry(key)
            .or_insert_with(|| Arc::new(derive_sharded_plan(&base, map.clone(), config, budget)));
        Ok(Arc::clone(plan))
    }

    /// Current counter values.
    #[must_use]
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct plans held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the cache holds no plans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plans warm-started from persisted seeds (a subset of `misses`).
    #[must_use]
    pub fn warm_starts(&self) -> u64 {
        self.warm_starts.load(Ordering::Relaxed)
    }

    /// The cache key [`PlanCache::plan_for`] derives for (`name`,
    /// `runtime`'s planning options, `config`) — the identity persisted
    /// warm-start seeds are matched against, and the key a caller records
    /// a [`crate::profile::ProfileStore`] under.
    #[must_use]
    pub fn key_for(
        runtime: &ActivePy,
        name: &str,
        input: &dyn InputSource,
        config: &SystemConfig,
    ) -> ProfileKey {
        (
            name.to_string(),
            Self::fingerprint(runtime, config, input.wire_fingerprint()),
        )
    }

    /// Persists this cache's warm-start state to `path`: for every cached
    /// plan, its sampling report and its program's fingerprint, keyed by
    /// the plan's cache key — what a restarted process needs to re-plan
    /// identical plans without a sampling run. The format is the
    /// checksummed binary codec of [`crate::persist`].
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn save_warm(&self, path: &Path) -> std::io::Result<()> {
        let seeds: Vec<(ProfileKey, WarmSeed)> = {
            let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
            let mut v: Vec<_> = plans
                .iter()
                .map(|(k, plan)| {
                    (
                        k.clone(),
                        WarmSeed {
                            program: program_fingerprint(&plan.program),
                            sampling: plan.sampling.clone(),
                        },
                    )
                })
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        crate::persist::save_warm_file(path, &seeds)
    }

    /// Loads warm-start state saved by [`PlanCache::save_warm`]: seeds
    /// install into this cache's warm map, consulted on a plan miss and
    /// used when the seed sampled the program being planned. Returns the
    /// number of seeds loaded.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; a corrupt or truncated file surfaces
    /// as [`std::io::ErrorKind::InvalidData`] (warm start is strictly
    /// optional, so callers typically fall back to cold planning).
    pub fn load_warm(&self, path: &Path) -> std::io::Result<usize> {
        let seeds = crate::persist::load_warm_file(path)?;
        let n = seeds.len();
        self.warm
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(seeds);
        Ok(n)
    }

    /// FNV-1a over the `Debug` forms of the platform config and the one
    /// planning-relevant option (the cost-model constants), plus the
    /// input's declared wire-format fingerprint
    /// ([`InputSource::wire_fingerprint`]) — re-encoding a dataset (codec,
    /// shuffle, byte order, fill sentinel) changes decode costs and
    /// therefore invalidates cached plans, without the key ever needing to
    /// materialize storage. The program is not in the key: a warm seed
    /// carries its own program's fingerprint instead. `Debug` output
    /// of the plain-data config structs is deterministic, which is all a
    /// cache key needs. The key holds nothing a build cannot vary (the
    /// sampling scales and the evaluator are fixed), so, like every
    /// fingerprint here, it is comparable only between runs of one build: a
    /// warm file whose keys another build wrote re-plans cold.
    fn fingerprint(runtime: &ActivePy, config: &SystemConfig, wire: u64) -> u64 {
        let text = format!("{config:?}|{:?}|wire:{wire:#x}", runtime.options().params);
        fnv1a(text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::test_input as input;
    use alang::parser::parse;
    use csd_sim::ContentionScenario;

    const SRC: &str = "a = scan('v')\ns = sum(a)\n";

    #[test]
    fn same_key_hits_and_plans_once() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let first = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        let second = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        assert!(
            Arc::ptr_eq(&first, &second),
            "second lookup must reuse the plan"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_config_misses() {
        let program = parse(SRC).expect("parse");
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let base = SystemConfig::paper_default();
        let degraded = SystemConfig::nvmeof_default();
        cache
            .plan_for(&rt, "w", &program, &input(), &base)
            .expect("plan");
        cache
            .plan_for(&rt, "w", &program, &input(), &degraded)
            .expect("plan");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "same workload under a different SystemConfig must be a distinct plan"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn different_workload_name_misses() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        cache
            .plan_for(&rt, "w1", &program, &input(), &config)
            .expect("plan");
        cache
            .plan_for(&rt, "w2", &program, &input(), &config)
            .expect("plan");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn execution_only_options_share_a_plan_key() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let cache = PlanCache::new();
        let with_migration = ActivePy::new();
        let without_migration =
            ActivePy::with_options(crate::runtime::ActivePyOptions::default().without_migration());
        cache
            .plan_for(&with_migration, "w", &program, &input(), &config)
            .expect("plan");
        cache
            .plan_for(&without_migration, "w", &program, &input(), &config)
            .expect("plan");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 1),
            "monitor policy must not split the plan key"
        );
        // Faults are execution-only too: a runtime that will inject faults
        // still reuses the fault-free plan.
        let faulted = ActivePy::with_options(
            crate::runtime::ActivePyOptions::default().with_faults(
                csd_sim::fault::FaultPlan::none()
                    .with_seed(9)
                    .with_flash_read_error_prob(0.2),
            ),
        );
        cache
            .plan_for(&faulted, "w", &program, &input(), &config)
            .expect("plan");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (2, 1),
            "fault plan must not split the plan key"
        );
        // The data-parallel kernel policy only changes how the repro host
        // executes kernels, never what they compute: same plan.
        let parallel = ActivePy::with_options(
            crate::runtime::ActivePyOptions::default()
                .with_parallelism(alang::ParallelPolicy::with_threads(8)),
        );
        cache
            .plan_for(&parallel, "w", &program, &input(), &config)
            .expect("plan");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (3, 1),
            "parallel policy must not split the plan key"
        );
    }

    #[test]
    fn shard_count_splits_the_sharded_key_but_not_the_base_plan() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let storage = input().storage_at(1.0);
        let map1 = alang::shard::ShardMap::auto(&storage, 1, alang::shard::ShardStrategy::Range);
        let map4 = alang::shard::ShardMap::auto(&storage, 4, alang::shard::ShardStrategy::Range);
        let p1 = cache
            .sharded_plan_for(&rt, "w", &program, &input(), &config, &map1)
            .expect("N=1 plan");
        let p4 = cache
            .sharded_plan_for(&rt, "w", &program, &input(), &config, &map4)
            .expect("N=4 plan");
        assert!(
            !Arc::ptr_eq(&p1, &p4),
            "N=1 and N=4 fleet plans must never share a cache slot"
        );
        assert_eq!(p1.count(), 1);
        assert_eq!(p4.count(), 4);
        // The expensive half is shared: both fleet shapes derive from ONE
        // base plan (sampling ran exactly once).
        assert!(
            Arc::ptr_eq(&p1.base, &p4.base),
            "both fleet shapes must reuse the single base plan"
        );
        assert_eq!(
            cache.stats().misses,
            1,
            "only the base plan is ever built from scratch"
        );
        // Same map → hit on the sharded key.
        let p4_again = cache
            .sharded_plan_for(&rt, "w", &program, &input(), &config, &map4)
            .expect("N=4 again");
        assert!(Arc::ptr_eq(&p4, &p4_again));
    }

    #[test]
    fn a_seed_plans_only_the_program_it_sampled() {
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let sampled = parse(SRC).expect("parse");
        let cache = PlanCache::new();
        let plan = cache
            .plan_for(&rt, "w", &sampled, &input(), &config)
            .expect("plan");
        let path =
            std::env::temp_dir().join(format!("activepy_seed_program_{}.bin", std::process::id()));
        cache.save_warm(&path).expect("save");
        // Under the sampled program's name: one line more, then the same
        // lines with one call edited.
        let longer = parse("a = scan('v')\nb = (a * 2)\ns = sum(b)\n").expect("parse");
        let edited = parse("a = scan('v')\ns = mean(a)\n").expect("parse");
        for (other, what) in [(&longer, "one line more"), (&edited, "one call edited")] {
            let fresh = PlanCache::new();
            fresh.load_warm(&path).expect("load");
            let warm = fresh
                .plan_for(&rt, "w", other, &input(), &config)
                .expect(what);
            assert_eq!(
                (fresh.stats().misses, fresh.warm_starts()),
                (1, 0),
                "{what}"
            );
            let cold = rt.plan(other, &input(), &config).expect(what);
            let fp = crate::resume::plan_fingerprint;
            assert_eq!(fp(&warm), fp(&cold), "{what}");
        }
        // Handed another program's report, planning refuses it.
        let err = rt
            .plan_from_sampling(
                &longer,
                plan.sampling.clone(),
                input().storage_at(1.0),
                &config,
            )
            .expect_err("a report of two lines planned a program of three");
        assert!(err.to_string().contains("0..3"), "{err}");
        // The program it sampled warm starts.
        let fresh = PlanCache::new();
        fresh.load_warm(&path).expect("load");
        std::fs::remove_file(&path).ok();
        fresh
            .plan_for(&rt, "w", &sampled, &input(), &config)
            .expect("warm plan");
        assert_eq!(fresh.warm_starts(), 1);
    }

    #[test]
    fn cached_plan_executes_identically_to_direct_run() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let direct_plan = rt.plan(&program, &input(), &config).expect("direct plan");
        let direct = rt
            .execute_plan(&direct_plan, &config, ContentionScenario::none())
            .expect("direct run");
        let cache = PlanCache::new();
        let plan = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("plan");
        let via_plan = rt
            .execute_plan(&plan, &config, ContentionScenario::none())
            .expect("execute plan");
        assert_eq!(direct, via_plan);
        assert_eq!(direct_plan.assignment, plan.assignment);
        assert_eq!(direct_plan.estimates, plan.estimates);
        assert_eq!(direct_plan.predictions, plan.predictions);
        assert_eq!(direct_plan.calibration, plan.calibration);
        assert_eq!(direct_plan.sampling, plan.sampling);
        assert_eq!(
            (direct_plan.sampling_secs, direct_plan.compile_secs),
            (plan.sampling_secs, plan.compile_secs)
        );
    }

    #[test]
    fn refitted_plan_computes_identical_values() {
        let program = parse(SRC).expect("parse");
        let config = SystemConfig::paper_default();
        let rt = ActivePy::new();
        let cache = PlanCache::new();
        let cold = cache
            .plan_for(&rt, "w", &program, &input(), &config)
            .expect("cold plan");
        let cold_run = rt
            .execute_plan(&cold, &config, ContentionScenario::none())
            .expect("cold run");
        // Feed the *actual* measured costs back, as execute() would with a
        // live recorder, then refit.
        let store = crate::profile::ProfileStore::new();
        let key = PlanCache::key_for(&rt, "w", &input(), &config);
        let mut measured = vec![alang::LineCost::zero(); cold.program.len()];
        for l in &cold_run.report.lines {
            measured[l.line] = l.cost;
        }
        store.record(&key, &measured);
        let warm = rt
            .replan(&cold, &config, &store.profile(&key))
            .expect("warm plan");
        let warm_run = rt
            .execute_plan(&warm, &config, ContentionScenario::none())
            .expect("warm run");
        // Re-planning moves costs, never answers.
        assert_eq!(
            cold_run.report.values_fingerprint,
            warm_run.report.values_fingerprint
        );
        // The refit keeps the modelled projection at least as good as the
        // prior assignment's projection under the same blended model.
        assert!(warm.assignment.t_csd <= warm.assignment.t_host + 1e-12);
    }
}
