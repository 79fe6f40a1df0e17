//! A repro-style run of every plan-consuming experiment against one
//! shared [`PlanCache`] must plan each (workload, platform) pair exactly
//! once — the acceptance criterion for the planning cache.

use activepy::PlanCache;
use alang::ParallelPolicy;
use csd_sim::SystemConfig;
use isp_bench::experiments as ex;

#[test]
fn shared_cache_plans_each_workload_once_across_experiments() {
    let config = SystemConfig::paper_default();
    let cache = PlanCache::new();

    // fig4 plans the nine Table-I workloads.
    let fig4 = ex::fig4::run(&config, &cache);
    assert_eq!(fig4.len(), 9);
    let after_fig4 = cache.stats();
    assert_eq!(
        after_fig4.misses, 9,
        "fig4 plans each Table-I workload once"
    );
    assert_eq!(after_fig4.hits, 0);

    // fig5 adds SparseMV and the two wire-format workloads; the other
    // nine lookups hit.
    let fig5 = ex::fig5::run(&config, &cache, ParallelPolicy::default());
    assert_eq!(fig5.len(), 24);
    let after_fig5 = cache.stats();
    assert_eq!(
        after_fig5.misses, 12,
        "only SparseMV, TPC-H-6-gz, and LogGrep are new after fig4"
    );
    assert_eq!(after_fig5.hits, 9);

    // regret and audit replay cached plans entirely. Under regret's phase
    // trace the monitored runs keep every answer, beat Alg. 1's static
    // plans in sum, and migrate both ways.
    let regret = ex::regret::run(&config, &cache);
    assert_eq!(ex::regret::check(&regret), Ok(()));
    let _ = ex::audit::run(&config, &cache);
    let stats = cache.stats();
    assert_eq!(
        stats.misses, 12,
        "no experiment may replan a cached workload"
    );
    assert_eq!(
        stats.hits,
        9 + 12 + 12,
        "regret (12) and audit (12) all hit"
    );
    assert_eq!(cache.len(), 12);
}
