//! The repository benchmark driver. See `benchmark/README.md`.

mod catalogue;
mod driver;
mod panel;
mod rng;
mod source;
mod spans;
mod stats;
mod suite;
mod workloads;

use catalogue::{Values, END_TO_END, PER_LAYER};
use driver::{Outcome, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The arguments of one measured run, as the benchmark contract passes them.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: catalogue::RUN_SECONDS,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()?.clamp(1, 60),
            "--trace" => run.traced = number()? != 0,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(run)
}

fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let (seed, seconds, traced) = (args.seed, args.seconds, args.traced);
    match args.workload.as_str() {
        workloads::plan_cold::PlanCold::NAME => {
            driver::run::<workloads::plan_cold::PlanCold>(seed, seconds, traced)
        }
        workloads::exec_sweep::ExecSweep::NAME => {
            driver::run::<workloads::exec_sweep::ExecSweep>(seed, seconds, traced)
        }
        workloads::durable_exec::DurableExec::NAME => {
            driver::run::<workloads::durable_exec::DurableExec>(seed, seconds, traced)
        }
        workloads::bulk_decode::BulkDecode::NAME => {
            driver::run::<workloads::bulk_decode::BulkDecode>(seed, seconds, traced)
        }
        workloads::bulk_kernels::BulkKernels::NAME => {
            driver::run::<workloads::bulk_kernels::BulkKernels>(seed, seconds, traced)
        }
        other => Err(format!(
            "unknown workload {other:?}; one of {:?}",
            catalogue::WORKLOADS.map(|w| w.0)
        )),
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let table: &[catalogue::Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for m in table {
        let value = *outcome
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("{} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("{} measured {value}", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn print_values(metrics: &Values, table: &[catalogue::Metric]) {
    for m in table {
        // A layer the workload does not touch reads 0: leave it out.
        if let Some(v) = metrics.get(m.name).filter(|v| **v != 0.0) {
            eprintln!("  {:<48} {v:>16.4} {}", m.name, m.unit);
        }
    }
}

/// One measured run under the benchmark contract: every metric on
/// stderr for people, the result line last on stdout for the driver.
fn measured_run(args: &[String]) -> Result<bool, String> {
    let run = parse_run_args(args)?;
    let outcome = run_workload(&run)?;
    eprintln!(
        "{} seed {} ({}, {} s):",
        run.workload,
        run.seed,
        if run.traced { "traced" } else { "untraced" },
        run.seconds
    );
    print_values(
        &outcome.metrics,
        if run.traced { &PER_LAYER } else { &END_TO_END },
    );
    for note in &outcome.notes {
        eprintln!("  note: {note}");
    }
    println!("{}", result_line(&outcome, run.traced)?);
    Ok(outcome.correct)
}

const USAGE: &str = "usage:
  run.sh [SEED]                                   the whole benchmark: five workloads, untraced then traced
  run.sh --workload W --seed N --seconds S --trace 0|1   one measured run
  run.sh compare A.json B.json                    the A/A table of two whole-benchmark results
  run.sh manifest                                 BENCHMARK.json as the driver defines it";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    let passed = match first {
        Some("manifest") => {
            print!("{}", catalogue::manifest());
            Ok(true)
        }
        Some("compare") if args.len() == 3 => {
            suite::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some(flag) if flag.starts_with("--") => measured_run(&args),
        None | Some(_) if args.len() <= 2 => {
            let seed = first.map_or(Ok(1), str::parse::<u64>);
            let out = args
                .get(1)
                .map_or_else(|| PathBuf::from("benchmark/out/result.json"), PathBuf::from);
            match seed {
                Ok(seed) => suite::run_all(seed, catalogue::RUN_SECONDS, &out),
                Err(_) => Err(USAGE.to_owned()),
            }
        }
        _ => Err(USAGE.to_owned()),
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: an output, determinism or A/A check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
