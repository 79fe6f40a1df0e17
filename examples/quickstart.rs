//! Quickstart: hand ActivePy an unannotated program and watch it decide
//! what the computational storage device should run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use activepy::runtime::ActivePy;
use activepy::sampling::InputSource;
use alang::builtins::Storage;
use alang::value::ArrayVal;
use alang::{ExecTier, Value};
use csd_sim::{ContentionScenario, SystemConfig};

/// A synthetic 8 GB sensor log: readings in [0, 100).
struct SensorLog;

impl InputSource for SensorLog {
    fn storage_at(&self, scale: f64) -> Storage {
        let logical = ((scale * 1e9) as u64).max(4000);
        let data: Vec<f64> = (0..4000).map(|i| f64::from((i * 37) % 100)).collect();
        let mut st = Storage::new();
        st.insert(
            "readings",
            Value::Array(ArrayVal::with_logical(data, logical)),
        );
        st
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An ordinary program: no device annotations, no pragmas, no hints.
    let program = alang::parser::parse(
        "r = scan('readings')\n\
         m = r > 90\n\
         spikes = select(r, m)\n\
         n = count(m)\n\
         avg = mean(spikes)\n",
    )?;

    let config = SystemConfig::paper_default();
    let rt = ActivePy::new();
    let plan = rt.plan(&program, &SensorLog, &config)?;
    let outcome = rt.execute_plan(&plan, &config, ContentionScenario::none())?;

    println!("ActivePy decided, per line:");
    for line in program.lines() {
        let place = if plan.assignment.csd_lines.contains(&line.index) {
            "CSD "
        } else {
            "host"
        };
        let est = &plan.estimates[line.index];
        println!(
            "  [{place}] {line}   (est host {:.3}s / device {:.3}s)",
            est.ct_host, est.ct_device
        );
    }
    println!(
        "\nsampling {:.3}s + codegen {:.3}s overhead, end-to-end {:.3}s",
        plan.sampling_secs, plan.compile_secs, outcome.report.total_secs
    );

    // Compare with running everything on the host in native code.
    let storage = SensorLog.storage_at(1.0);
    let mut host_sys = config.build();
    let host =
        activepy::exec::execute_all_host(&program, &storage, &mut host_sys, ExecTier::Native, &[])?;
    println!(
        "host-only C baseline {:.3}s  ->  speedup {:.2}x",
        host.total_secs,
        host.total_secs / outcome.report.total_secs
    );
    Ok(())
}
