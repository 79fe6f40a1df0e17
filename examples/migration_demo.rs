//! Dynamic task migration in action: a competing tenant grabs 90 % of the
//! CSD halfway through PageRank's offloaded work; ActivePy's monitor
//! notices the throughput collapse, re-estimates, and pulls the remaining
//! stream back to the host (the Figure 5 mechanism).
//!
//! ```sh
//! cargo run --release --example migration_demo
//! ```

use activepy::runtime::{ActivePy, ActivePyOptions};
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::run_c_baseline;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::paper_default();
    let w = isp_workloads::by_name("PageRank").expect("registered");
    let program = w.program()?;

    let baseline = run_c_baseline(&w, &config)?.total_secs;
    println!("no-CSD baseline:              {baseline:.2}s");

    // Uncontended reference run: find when half the CSD work is done.
    let reference = ActivePy::new().run(&program, &w, &config, ContentionScenario::none())?;
    println!(
        "ActivePy, quiet CSD:          {:.2}s ({:.2}x)",
        reference.report.total_secs,
        baseline / reference.report.total_secs
    );
    let t_half = reference.report.time_at_csd_progress(0.5);
    println!("half the ISP work is done at  {t_half:.2}s — the tenant arrives then\n");

    // The same run, but a competing tenant takes 90% of the CSD at t_half.
    let scenario = ContentionScenario::at_time(SimTime::from_secs(t_half), 0.1);
    let with_mig = ActivePy::new().run(&program, &w, &config, scenario)?;
    match with_mig.report.migration() {
        Some(m) => println!(
            "WITH migration:    {:.2}s ({:.2}x) — broke after line {}, moved {} B of live \
             state, {:.0} ms regenerating host code",
            with_mig.report.total_secs,
            baseline / with_mig.report.total_secs,
            m.after_line,
            m.state_bytes,
            m.regen_secs * 1e3,
        ),
        None => println!(
            "WITH migration:    {:.2}s — the monitor decided staying was cheaper",
            with_mig.report.total_secs
        ),
    }

    let without = ActivePy::with_options(ActivePyOptions::default().without_migration())
        .run(&program, &w, &config, scenario)?;
    println!(
        "WITHOUT migration: {:.2}s ({:.2}x) — the static plan rides the starved device \
         to the end",
        without.report.total_secs,
        baseline / without.report.total_secs
    );
    println!(
        "\nmigration advantage: {:.2}x",
        without.report.total_secs / with_mig.report.total_secs
    );

    // The other §III-D trigger: the device itself needs the CSE for a
    // high-priority request. No contention at all — the request forces the
    // ISP task out at the next status update.
    let preempting = ActivePy::with_options(ActivePyOptions::default().with_preemption_at(t_half))
        .run(&program, &w, &config, ContentionScenario::none())?;
    match preempting.report.migration() {
        Some(m) => println!(
            "\nhigh-priority preemption at {t_half:.2}s: vacated after line {} ({:?}), \
             finished in {:.2}s",
            m.after_line, m.reason, preempting.report.total_secs
        ),
        None => println!("\nhigh-priority preemption did not fire (nothing left to preempt)"),
    }
    Ok(())
}
