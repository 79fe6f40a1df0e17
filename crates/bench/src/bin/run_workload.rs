//! A small CLI for running any registered workload through ActivePy (or a
//! baseline) under configurable conditions.
//!
//! ```sh
//! cargo run --release -p isp-bench --bin run_workload -- TPC-H-6
//! cargo run --release -p isp-bench --bin run_workload -- PageRank --availability 0.1 --at-progress 0.5
//! cargo run --release -p isp-bench --bin run_workload -- KMeans --no-migration --baseline
//! cargo run --release -p isp-bench --bin run_workload -- MixedGEMM --nvmeof --json
//! ```

use activepy::runtime::{ActivePy, ActivePyOptions};
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, SystemConfig};
use isp_baselines::run_c_baseline;
use std::process::ExitCode;

struct Args {
    workload: String,
    availability: f64,
    at_progress: Option<f64>,
    no_migration: bool,
    baseline: bool,
    nvmeof: bool,
    json: bool,
    timeline: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run_workload <WORKLOAD> [--availability F] [--at-progress F] \
         [--no-migration] [--baseline] [--nvmeof] [--json] [--timeline]\n\
         workloads: {}",
        isp_workloads::with_sparsemv()
            .iter()
            .map(|w| w.name().to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        availability: 1.0,
        at_progress: None,
        no_migration: false,
        baseline: false,
        nvmeof: false,
        json: false,
        timeline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--availability" => {
                args.availability = it
                    .next()
                    .ok_or("--availability needs a value")?
                    .parse()
                    .map_err(|e| format!("--availability: {e}"))?;
            }
            "--at-progress" => {
                args.at_progress = Some(
                    it.next()
                        .ok_or("--at-progress needs a value")?
                        .parse()
                        .map_err(|e| format!("--at-progress: {e}"))?,
                );
            }
            "--no-migration" => args.no_migration = true,
            "--baseline" => args.baseline = true,
            "--nvmeof" => args.nvmeof = true,
            "--json" => args.json = true,
            "--timeline" => args.timeline = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            name if args.workload.is_empty() => args.workload = name.to_owned(),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing workload name".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let Some(w) = isp_workloads::by_name(&args.workload) else {
        eprintln!("error: unknown workload `{}`", args.workload);
        return usage();
    };
    let config = if args.nvmeof {
        SystemConfig::nvmeof_default()
    } else {
        SystemConfig::paper_default()
    };

    let baseline = match run_c_baseline(&w, &config) {
        Ok(r) => r.total_secs,
        Err(e) => {
            eprintln!("error: baseline failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.baseline {
        println!("{}: no-CSD C baseline {baseline:.3}s", w.name());
    }

    let mut options = ActivePyOptions::default();
    if args.no_migration {
        options = options.without_migration();
    }
    let rt = ActivePy::with_options(options);
    let program = w.program().expect("registered workloads parse");
    let plan = match rt.plan(&program, &w, &config) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: ActivePy failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let scenario = if args.availability >= 1.0 {
        ContentionScenario::none()
    } else {
        match args.at_progress {
            None => ContentionScenario::constant(args.availability),
            Some(p) => {
                // Compute the absolute stress time from an uncontended run.
                let reference = ActivePy::new()
                    .execute_plan(&plan, &config, ContentionScenario::none())
                    .expect("reference run");
                let t = reference.report.time_at_csd_progress(p);
                ContentionScenario::at_time(SimTime::from_secs(t), args.availability)
            }
        }
    };

    let outcome = match rt.execute_plan(&plan, &config, scenario) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: ActivePy failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.json {
        match serde_json::to_string_pretty(&outcome.report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("error: serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "{}: {} lines, offloaded {:?} under {scenario}",
        w.name(),
        program.len(),
        plan.assignment.csd_lines
    );
    println!(
        "end-to-end {:.3}s (baseline {baseline:.3}s -> {:.2}x); sampling {:.3}s, codegen {:.3}s",
        outcome.report.total_secs,
        baseline / outcome.report.total_secs,
        plan.sampling_secs,
        plan.compile_secs,
    );
    if args.timeline {
        print!(
            "{}",
            activepy::report::render_timeline(&program, &outcome.report)
        );
    }
    if let Some(m) = outcome.report.migration() {
        println!(
            "migrated ({:?}) after line {} at {:.3}s, {} B of state, {:.0} ms regen",
            m.reason,
            m.after_line,
            m.at_secs,
            m.state_bytes,
            m.regen_secs * 1e3
        );
    }
    ExitCode::SUCCESS
}
