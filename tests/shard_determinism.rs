//! Shard differential: random programs × random placements × every fleet
//! size × three cells — clean, pinned per-shard fault plans, and a
//! contention burst at half progress with each shard's monitor on. The
//! invariants the scatter-gather fleet must hold, for every draw:
//!
//! 1. **One answer** — every fleet size N ∈ {1, 2, 4, 8}, in every cell,
//!    produces the same `values_fingerprint` as the unsharded
//!    single-device run.
//! 2. **Consistent failure** — a program that errors unsharded (reads of
//!    undefined names) errors at every fleet size too.
//! 3. **Accounting sums** — the transient faults the per-shard recovery
//!    layers absorbed, summed across the fleet, equal the transient
//!    errors the per-device injectors actually delivered.
//! 4. **Crashes latch per device** — each device counts at most one CSE
//!    crash, shard isolation keeps a crash from spreading, and every
//!    hard-faulted shard still contributes the right slice.
//! 5. **Spelling is free** — the program respelled single-assignment
//!    simulates to the same fleet report in every field but the
//!    fingerprints: what a shard stages, what the gather pulls and where
//!    the fence falls follow the values read, not the names reused.

mod common;

use activepy::exec::{execute, ExecOptions};
use activepy::execute_sharded_raw;
use alang::parser::parse;
use alang::shard::{ShardMap, ShardStrategy};
use common::{
    all_placements, expr, fault_params, masked_fleet, placements, single_assignment, source,
    storage, REASSIGNING, VARS,
};
use csd_sim::fault::FaultPlan;
use csd_sim::{ContentionScenario, SystemConfig};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Invariant 5 where it bites: few drawn programs both run to completion
/// and read a name they reassign, so the same assertion over programs that
/// do, under every placement at N = 4.
#[test]
fn respelling_a_reassigning_program_moves_no_fleet_under_any_placement() {
    let st = storage();
    let config = SystemConfig::paper_default();
    let opts = ExecOptions::activepy();
    let map = ShardMap::auto(&st, 4, ShardStrategy::Range);
    for src in REASSIGNING {
        let program = parse(src).expect("parse");
        let respelled = single_assignment(&program);
        let single = parse(&respelled).expect("respelled source parses");
        for placements in all_placements(program.len()) {
            let run = |p| execute_sharded_raw(p, &st, &map, &placements, &config, &opts, &[]);
            let named = run(&program);
            assert!(named.is_ok(), "{named:?} for:\n{src}");
            assert_eq!(
                masked_fleet(&named),
                masked_fleet(&run(&single)),
                "respelling moved the fleet under {placements:?} for:\n{src}as:\n{respelled}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_fleet_size_reproduces_the_unsharded_answer(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..6),
        on_csd in prop::collection::vec(any::<bool>(), 6..7),
        params in fault_params(0.2),
    ) {
        let src = source(&lines);
        let program = parse(&src).expect("generated source parses");
        let respelled = single_assignment(&program);
        let single = parse(&respelled).expect("respelled source parses");
        let placements = placements(&on_csd, lines.len());
        let st = storage();
        let config = SystemConfig::paper_default();

        let opts = ExecOptions::activepy();
        // The monitor is on in every cell; only the contended one sees a
        // burst, from half of each region's progress on.
        let contended = opts
            .clone()
            .with_scenario(ContentionScenario::after_progress(0.5, 0.1));

        // The unsharded single-device reference.
        let mut system = config.build();
        let reference = execute(
            &program, &st, &placements, &mut system, &opts, None, &[],
        );

        for &n in &SHARD_COUNTS {
            let map = ShardMap::auto(&st, n, ShardStrategy::Range);
            prop_assert_eq!(map.count(), n);
            let faults: Vec<FaultPlan> =
                (0..n).map(|s| params.plan_for_shard(s)).collect();
            let cells = [
                ("clean", &opts, &[][..]),
                ("faulted", &opts, &faults[..]),
                ("contended", &contended, &[][..]),
            ];
            let run = |p, (_, o, plans): &(&str, &ExecOptions, &[FaultPlan])| {
                execute_sharded_raw(p, &st, &map, &placements, &config, o, plans)
            };
            let runs: Vec<_> = cells.iter().map(|cell| run(&program, cell)).collect();
            // Invariant 5: names carry no cost.
            for (cell, named) in cells.iter().zip(&runs) {
                prop_assert_eq!(
                    masked_fleet(named), masked_fleet(&run(&single, cell)),
                    "respelling moved the {} N={} fleet for:\n{}as:\n{}",
                    cell.0, n, src, respelled
                );
            }
            match (&reference, &runs[..]) {
                (Ok(reference), [Ok(clean), Ok(faulted), Ok(contended)]) => {
                    // Invariant 1: one answer everywhere.
                    for (cell, report) in [("clean", clean), ("faulted", faulted), ("contended", contended)] {
                        prop_assert_eq!(
                            report.values_fingerprint,
                            reference.values_fingerprint,
                            "{} N={} diverged for:\n{}", cell, n, src
                        );
                    }
                    // Invariant 3: fleet-wide recovery accounting
                    // matches what the injectors delivered.
                    prop_assert_eq!(
                        faulted.recovered_transients(),
                        faulted.injected().transient_total(),
                        "recovery accounting missed faults for:\n{}", src
                    );
                    prop_assert_eq!(clean.injected().transient_total(), 0);
                    // Invariant 4: a crash latches per device.
                    prop_assert!(faulted.injected().cse_crashes <= n as u64);
                    for (s, shard) in faulted.shards.iter().enumerate() {
                        if shard.report.metrics.recovery.hard_faults > 0 {
                            prop_assert!(
                                shard.report.migration().is_some(),
                                "shard {} absorbed a hard fault without \
                                 migrating for:\n{}", s, src
                            );
                        }
                    }
                }
                (Err(_), [Err(_), Err(_), Err(_)]) => {
                    // Invariant 2: invalid programs fail at every
                    // fleet size, in every cell.
                }
                (reference, runs) => {
                    return Err(TestCaseError::fail(format!(
                        "sharding changed success at N={n} for:\n{src}\n\
                         reference: {reference:?}\nclean, faulted, contended: {runs:?}"
                    )));
                }
            }
        }
    }
}
