//! Re-planning determinism: profile-guided refits and phase-shifting
//! availability traces may steer *where* lines run — host-ward under a
//! burst, device-ward on reclaim, or to a different assignment after a
//! refit — but never *what* they compute. Random programs run under
//! random burst/recovery traces through the full feedback loop (cold
//! plan → monitored run recording into a `ProfileStore` →
//! `ActivePy::replan` → re-planned run) and every cell must report the
//! uncontended reference's `values_fingerprint`. The refitted plan must
//! also honor the warm-never-worse contract: under the blended cost model
//! its modelled sim-time never exceeds the cold assignment's.

mod common;

use activepy::assign::projected_cost;
use activepy::estimate::Link;
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{InputSource, PlanCache, ProfileRecorder, ProfileStore};
use alang::parser::parse;
use common::{ident, scaled_storage, source, SCALED_V, SCALED_W, VARS};
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Builtins safe on every value the grammar can produce (`sort` panics
/// on NaNs, `len` rejects scalars; both stay out). The reductions only
/// ever wrap expressions the grammar keeps array-shaped.
const MAPS: [&str; 2] = ["sqrt", "abs"];
const REDUCES: [&str; 2] = ["sum", "mean"];

/// Arithmetic only: comparison masks feeding back into arithmetic or
/// `sqrt`/`abs` error out in sampling, which would skip the case — the
/// planning loop, not the type checker, is under test here.
const OPS: [&str; 4] = ["+", "-", "*", "/"];

/// A random expression in source form, up to three levels deep: the
/// shared grammar's leaves under this test's arithmetic-only operators.
fn expr() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        (0u32..50).prop_map(|n| n.to_string()),
        (1u32..40).prop_map(|n| format!("{n}.5")),
        ident(),
        Just("scan('v')".to_owned()),
        Just("scan('w')".to_owned()),
    ];
    leaf.boxed().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| format!("-({e})")),
            (inner.clone(), inner.clone(), 0usize..OPS.len())
                .prop_map(|(l, r, op)| format!("({l} {} {r})", OPS[op])),
            (inner.clone(), 0usize..MAPS.len()).prop_map(|(e, f)| format!("{}({e})", MAPS[f])),
            (inner, 0usize..REDUCES.len())
                .prop_map(|(e, f)| format!("{}((scan('v') + {e}))", REDUCES[f])),
        ]
    })
}

fn input() -> impl InputSource {
    |scale: f64| scaled_storage(scale, &[SCALED_V, SCALED_W])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replanning_never_changes_values_and_warm_is_never_worse(
        lines in prop::collection::vec((0usize..VARS.len(), expr()), 1..5),
        drop_frac in 0.05f64..0.6,
        recover_span in 0.1f64..0.9,
        burst in 0.02f64..0.3,
    ) {
        // The prelude defines every identifier the grammar can reference
        // (use-before-definition is a sampling error, not an interesting
        // case) and guarantees real device-resident inputs in every plan.
        let prelude = "a = scan('v')\nb = scan('w')\nc = (a * 2) - 1\nd = mean(b)\n";
        let src = format!("{prelude}{}", source(&lines));
        let program = parse(&src).expect("generated source parses");
        let config = SystemConfig::paper_default();

        // Fingerprints from every cell; all equal.
        let mut fingerprints: Vec<(String, u64)> = Vec::new();
        let cache = PlanCache::new();
        let static_rt =
            ActivePy::with_options(ActivePyOptions::default().without_migration());
        // Programs whose sampling runs fail (e.g. sqrt of a boolean
        // mask comparison chain that errors) can't be planned; skipping
        // here discards the whole case.
        let Ok(cold) = cache.plan_for(&static_rt, "prop", &program, &input(), &config)
        else {
            return Ok(());
        };
        let clean = static_rt
            .execute_plan(&cold, &config, ContentionScenario::none())
            .expect("planned programs run");
        // Burst and recovery land at random points of the clean run.
        let total = clean.report.total_secs;
        let drop_at = drop_frac * total;
        let recover_at = drop_at + recover_span * (total - drop_at).max(1e-6);
        let scenario =
            ContentionScenario::at_time(SimTime::from_secs(drop_at), burst)
                .with_recovery_at(SimTime::from_secs(recover_at));

        let static_run = static_rt
            .execute_plan(&cold, &config, scenario)
            .expect("static run");
        let store = Arc::new(ProfileStore::new());
        let key = PlanCache::key_for(&static_rt, "prop", &input(), &config);
        let monitored_rt = ActivePy::with_options(
            ActivePyOptions::default()
                .with_profile(ProfileRecorder::to_store(Arc::clone(&store), key.clone())),
        );
        let monitored = monitored_rt
            .execute_plan(&cold, &config, scenario)
            .expect("monitored run");

        // The monitored run recorded once; the refit blends that run in.
        let profile = store.profile(&key);
        prop_assert_eq!(
            profile.version, 1,
            "one monitored run must record exactly one profile run for:\n{}", src
        );
        let replan_rt = ActivePy::new();
        let warm = replan_rt
            .replan(&cold, &config, &profile)
            .expect("refit succeeds");
        let replanned = replan_rt
            .execute_plan(&warm, &config, scenario)
            .expect("re-planned run");

        // Warm-never-worse, under the model both plans now share: the
        // refit evaluated the cold assignment as a candidate, so its
        // pick can't project slower than the cold placements do.
        let link = Link::d2h(&config);
        let prior_placements = cold.assignment.placements(program.len());
        let prior_cost = projected_cost(&program, &warm.estimates, &prior_placements, link);
        prop_assert!(
            warm.assignment.t_csd <= prior_cost + 1e-9,
            "refit regressed the modelled sim-time: warm {} vs cold-under-warm-model {} for:\n{}",
            warm.assignment.t_csd, prior_cost, src
        );

        for (cell, outcome) in [
            ("clean", &clean),
            ("static", &static_run),
            ("monitored", &monitored),
            ("replanned", &replanned),
        ] {
            fingerprints.push((cell.to_owned(), outcome.report.values_fingerprint));
        }
        let (first_tag, first_fp) = fingerprints[0].clone();
        for (tag, fp) in &fingerprints[1..] {
            prop_assert_eq!(
                *fp, first_fp,
                "placement policy leaked into values ({} vs {}) for:\n{}",
                first_tag, tag, src
            );
        }
    }
}
