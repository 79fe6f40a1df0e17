//! A high-priority preemption (§III-D, case 1) lands at the first chunk
//! boundary at or after the requested time, wherever in the CSD region that
//! time falls, and never changes the answer.

use activepy::exec::{evaluate, simulate, ExecOptions, MigrationReason, RunReport};
use activepy::runtime::ActivePy;
use activepy::PlanCache;
use csd_sim::{EngineKind, SystemConfig};
use isp_obs::{TraceEvent, Tracer};

#[test]
fn a_preemption_anywhere_in_the_region_breaks_at_the_next_chunk_boundary() {
    let config = SystemConfig::paper_default();
    let w = isp_workloads::by_name("TPC-H-6").expect("registered");
    let program = w.program().expect("parse");
    let plan = PlanCache::new()
        .plan_for(&ActivePy::new(), w.name(), &program, &w, &config)
        .expect("plan");
    let placements = plan.assignment.placements(plan.program.len());
    assert!(placements.contains(&EngineKind::Cse), "TPC-H-6 offloads");
    let opts = ExecOptions::activepy();
    let evaluation =
        evaluate(&plan.program, &plan.lowered, &plan.full_storage, &opts).expect("evaluate");
    let run = |opts: &ExecOptions| -> RunReport {
        let mut system = config.build();
        simulate(
            &plan.program,
            &evaluation,
            &placements,
            &mut system,
            opts,
            Some(&plan.estimates),
            None,
        )
        .expect("simulate")
    };

    // The unpreempted run, traced for the simulated end of every chunk.
    let (tracer, sink) = Tracer::to_memory();
    let reference = run(&opts.clone().with_tracer(tracer));
    assert!(
        reference.migrations.is_empty(),
        "{:?}",
        reference.migrations
    );
    let chunks: Vec<(f64, f64)> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Span(s) if s.name == "exec.chunk" => {
                let start = s.sim_secs.expect("sim clock");
                Some((start, start + s.sim_dur_secs.expect("sim clock")))
            }
            _ => None,
        })
        .collect();
    assert_eq!(chunks.len(), 64, "one CSD region of 64 chunks");

    // Every chunk boundary but the last can break; the last one ends the
    // region. Two points inside each chunk before it: 126 times.
    let mut swept = 0;
    for &(start, end) in &chunks[..chunks.len() - 1] {
        for f in [0.25, 0.75] {
            let t = start + f * (end - start);
            let rep = run(&opts.clone().with_preemption_at(t));
            let reasons: Vec<MigrationReason> = rep.migrations.iter().map(|m| m.reason).collect();
            assert_eq!(reasons, [MigrationReason::Preempted], "preempt_at {t}");
            let at = rep.migrations[0].at_secs;
            assert!(at >= t, "recorded at {at}, before {t}");
            assert!(
                (at - end).abs() <= 1e-9 * end,
                "preempt_at {t} broke at {at}, not at the boundary {end}"
            );
            assert_eq!(rep.values_fingerprint, reference.values_fingerprint);
            swept += 1;
        }
    }
    assert!(swept >= 64);

    // Inside the last chunk and past the region's end nothing breaks.
    let (last_start, last_end) = chunks[chunks.len() - 1];
    for t in [(last_start + last_end) / 2.0, last_end + 1e-3] {
        let rep = run(&opts.clone().with_preemption_at(t));
        assert!(
            rep.migrations.is_empty(),
            "preempt_at {t}: {:?}",
            rep.migrations
        );
        assert_eq!(rep, reference, "preempt_at {t}");
    }
}
