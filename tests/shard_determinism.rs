//! Shard differential: random programs × random placements × every fleet
//! size × pinned per-shard fault plans. The invariants the scatter-gather
//! fleet must hold, for every draw:
//!
//! 1. **One answer** — every fleet size N ∈ {1, 2, 4, 8}, sharded by
//!    range or hash, faulted or clean, produces the same
//!    `values_fingerprint` as the unsharded single-device run.
//! 2. **Consistent failure** — a program that errors unsharded (reads of
//!    undefined names) errors at every fleet size too.
//! 3. **Accounting sums** — the transient faults the per-shard recovery
//!    layers absorbed, summed across the fleet, equal the transient
//!    errors the per-device injectors actually delivered.
//! 4. **Crashes latch per device** — each device counts at most one CSE
//!    crash, shard isolation keeps a crash from spreading, and every
//!    hard-faulted shard still contributes the right slice.

mod common;

use activepy::exec::{execute, ExecOptions};
use activepy::execute_sharded_raw;
use alang::parser::parse;
use alang::shard::ShardMap;
use common::{expr, fault_params, placements, shard_strategy, source, storage, VARS};
use csd_sim::fault::FaultPlan;
use csd_sim::SystemConfig;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_fleet_size_reproduces_the_unsharded_answer(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..6),
        on_csd in prop::collection::vec(any::<bool>(), 6..7),
        params in fault_params(0.2),
        shard_strategy in shard_strategy(),
    ) {
        let src = source(&lines);
        let program = parse(&src).expect("generated source parses");
        let placements = placements(&on_csd, lines.len());
        let st = storage();
        let config = SystemConfig::paper_default();

        let opts = ExecOptions::activepy();

        // The unsharded single-device reference.
        let mut system = config.build();
        let reference = execute(
            &program, &st, &placements, &mut system, &opts, None, &[],
        );

        for &n in &SHARD_COUNTS {
            let map = ShardMap::auto(&st, n, shard_strategy);
            prop_assert_eq!(map.count(), n);
            let faults: Vec<FaultPlan> =
                (0..n).map(|s| params.plan_for_shard(s)).collect();
            let clean = execute_sharded_raw(
                &program, &st, &map, &placements, &config, &opts, &[], n,
            );
            let faulted = execute_sharded_raw(
                &program, &st, &map, &placements, &config, &opts, &faults, n,
            );
            match (&reference, clean, faulted) {
                (Ok(reference), Ok(clean), Ok(faulted)) => {
                    // Invariant 1: one answer everywhere.
                    prop_assert_eq!(
                        clean.values_fingerprint,
                        reference.values_fingerprint,
                        "clean N={} diverged for:\n{}", n, src
                    );
                    prop_assert_eq!(
                        faulted.values_fingerprint,
                        reference.values_fingerprint,
                        "faulted N={} diverged for:\n{}", n, src
                    );
                    // Invariant 3: fleet-wide recovery accounting
                    // matches what the injectors delivered.
                    prop_assert_eq!(
                        faulted.recovered_transients(),
                        faulted.injected.transient_total(),
                        "recovery accounting missed faults for:\n{}", src
                    );
                    prop_assert_eq!(clean.injected.transient_total(), 0);
                    // Invariant 4: a crash latches per device.
                    prop_assert!(faulted.injected.cse_crashes <= n as u64);
                    for shard in &faulted.shards {
                        if shard.report.metrics.recovery.hard_faults > 0 {
                            prop_assert!(
                                shard.report.migration.is_some(),
                                "shard {} absorbed a hard fault without \
                                 migrating for:\n{}", shard.shard, src
                            );
                        }
                    }
                }
                (Err(_), Err(_), Err(_)) => {
                    // Invariant 2: invalid programs fail at every
                    // fleet size, faulted or not.
                }
                (reference, clean, faulted) => {
                    return Err(TestCaseError::fail(format!(
                        "sharding changed success at N={n} for:\n{src}\n\
                         reference: {reference:?}\nclean: {clean:?}\n\
                         faulted: {faulted:?}"
                    )));
                }
            }
        }
    }
}
