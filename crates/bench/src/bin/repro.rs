//! Runs every experiment in sequence — the full evaluation of the paper.
//!
//! Everything this binary prints or writes is a function of the tree:
//! the experiments ([`isp_bench::EXPERIMENTS`]) advance a simulated clock
//! and never read the host's, so stdout and the `--json` report
//! (`BENCH_repro.json`) are byte-identical from run to run and host to
//! host. All figures share one [`PlanCache`], so each (workload,
//! platform) pair is sampled, fitted, and assigned exactly once across
//! the whole run. A failed `check` is reported on stderr once every
//! experiment has printed, and exits 1. Host time is the repository
//! benchmark's business (`benchmark/`), not this binary's.

use std::process::ExitCode;

use activepy::PlanCache;
use csd_sim::SystemConfig;
use isp_bench::experiments as ex;
use serde::Serialize;

const USAGE: &str = "\
repro — run the full ActivePy evaluation

USAGE:
    repro [--json]
    repro --trace PATH [--trace-format F] [--trace-mask-wall] [--trace-workload W]
    repro --journal PATH | --resume PATH

OPTIONS:
    --json                 also write the deterministic report, every
                           experiment's rows, to BENCH_repro.json
    --journal PATH         run the recovery workload recording an execution
                           journal at PATH (skips other experiments)
    --resume PATH          resume the recovery workload from the journal at
                           PATH, verifying replayed records (skips other
                           experiments)
    --trace PATH           trace the Figure 5 grid to PATH (skips other experiments)
    --trace-format F       trace format: jsonl (default) or chrome
    --trace-mask-wall      mask wall-clock timestamps in the trace
    --trace-workload W     trace only workload W
    --help                 print this help";

/// What the command line asked for.
enum Mode {
    /// Every experiment; `json` also writes `BENCH_repro.json`.
    Full {
        json: bool,
    },
    Trace(TraceRequest),
    Journal {
        path: String,
        resume: bool,
    },
}

/// What `--trace PATH [--trace-format F] [--trace-mask-wall]
/// [--trace-workload W]` asked for.
struct TraceRequest {
    path: String,
    format: TraceFormat,
    mask_wall: bool,
    workload: Option<String>,
}

enum TraceFormat {
    Jsonl,
    Chrome,
}

/// Parses the whole command line in one pass; `Ok(None)` is `--help`.
/// The focused modes (`--trace`, `--journal`, `--resume`) exclude each
/// other and `--json`: none of them writes the report.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Mode>, String> {
    let mut json = false;
    let mut focus: Option<(String, String)> = None;
    let mut format = None;
    let mut mask_wall = false;
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => return Ok(None),
            "--json" => json = true,
            "--trace" | "--journal" | "--resume" => {
                if focus.replace((flag.clone(), value()?)).is_some() {
                    return Err("--trace, --journal and --resume exclude each other".into());
                }
            }
            "--trace-format" => {
                format = Some(match value()?.as_str() {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    other => {
                        return Err(format!(
                            "--trace-format must be 'jsonl' or 'chrome', got '{other}'"
                        ))
                    }
                });
            }
            "--trace-mask-wall" => mask_wall = true,
            "--trace-workload" => workload = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some((flag, _)) = focus.as_ref().filter(|_| json) {
        return Err(format!("{flag} never writes the report; drop --json"));
    }
    let tracing = matches!(&focus, Some((flag, _)) if flag == "--trace");
    if !tracing && (format.is_some() || mask_wall || workload.is_some()) {
        return Err("--trace-format, --trace-mask-wall and --trace-workload modify --trace".into());
    }
    Ok(Some(match focus {
        None => Mode::Full { json },
        Some((_, path)) if tracing => Mode::Trace(TraceRequest {
            path,
            format: format.unwrap_or(TraceFormat::Jsonl),
            mask_wall,
            workload,
        }),
        Some((flag, path)) => Mode::Journal {
            path,
            resume: flag == "--resume",
        },
    }))
}

/// The `--trace` mode: runs the Figure 5 grid serially with a live tracer
/// threaded through every pipeline phase and writes the journal. Other
/// experiments are skipped and `BENCH_repro.json` is not written — trace
/// runs observe, they do not publish benchmark rows.
fn run_traced(req: &TraceRequest, config: &SystemConfig) -> ExitCode {
    let (tracer, sink) = isp_obs::Tracer::to_memory();
    let cache = PlanCache::new();
    let rows = ex::fig5::run_traced(config, &cache, &tracer, req.workload.as_deref());
    if rows.is_empty() {
        eprintln!(
            "--trace-workload '{}' matched no registered workload",
            req.workload.as_deref().unwrap_or("")
        );
        return ExitCode::from(2);
    }
    ex::fig5::print(&rows);
    let events = sink.events();
    let metrics = tracer.metrics_snapshot();
    let rendered = match req.format {
        TraceFormat::Jsonl => isp_obs::export::jsonl(&events, metrics.as_ref(), req.mask_wall),
        TraceFormat::Chrome => {
            isp_obs::export::chrome_trace(&events, metrics.as_ref(), req.mask_wall)
        }
    };
    std::fs::write(&req.path, rendered).expect("trace output path is writable");
    println!();
    println!("wrote {} trace events to {}", events.len(), req.path);
    ExitCode::SUCCESS
}

/// The `--journal PATH` / `--resume PATH` focused mode: runs the fixed
/// faulted recovery workload with the execution journal attached.
/// `--journal` records a fresh journal at PATH (the `ISP_WAL_KILL_AFTER`
/// env hook can kill the process mid-run to leave a torn tail);
/// `--resume PATH` replays an existing journal — verifying every
/// surviving record against the deterministic re-execution — and
/// appends the rest. Both print a parseable `run fingerprint: 0x…` line
/// so scripts can compare killed-and-resumed runs against uninterrupted
/// ones. Other experiments are skipped and `BENCH_repro.json` is not
/// written.
fn run_journal_focused(path: &str, resume: bool) -> ExitCode {
    use activepy::ExecJournal;
    let path = std::path::Path::new(path);
    let journal = if resume {
        let (journal, info) = ExecJournal::resume_from(path).unwrap_or_else(|e| {
            eprintln!("cannot resume from {}: {e}", path.display());
            std::process::exit(2);
        });
        println!(
            "resuming from {} journaled records (torn tail discarded: {})",
            info.records, info.torn_tail
        );
        journal
    } else {
        ExecJournal::record_to(path).unwrap_or_else(|e| {
            eprintln!("cannot create journal at {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let report = ex::recovery::run_once(journal.clone());
    if let Some(stats) = journal.stats() {
        println!(
            "journal: {} records replay-verified, {} appended",
            stats.replayed, stats.appended
        );
    }
    println!(
        "recovery: {} transients, {} retries, {} migrations",
        report.metrics.recovery.transient_faults,
        report.metrics.recovery.retries,
        report.metrics.recovery.fault_migrations
    );
    println!("run fingerprint: {:#018x}", report.values_fingerprint);
    ExitCode::SUCCESS
}

#[derive(Serialize)]
struct CacheReport {
    hits: u64,
    misses: u64,
    hit_rate: f64,
    plans: usize,
}

/// The full evaluation: every experiment through one loop and one plan
/// cache, then the cache summary, the report if asked for, and the
/// verdict of the checks.
fn run_full(json: bool, config: &SystemConfig) -> ExitCode {
    let cache = PlanCache::new();
    let (mut sections, failures) = isp_bench::run_all(&isp_bench::EXPERIMENTS, config, &cache);
    let stats = cache.stats();
    println!(
        "plan cache: {} plans, {} hits / {} misses ({:.0}% hit rate)",
        cache.len(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
    );
    if json {
        let plan_cache = CacheReport {
            hits: stats.hits,
            misses: stats.misses,
            hit_rate: stats.hit_rate(),
            plans: cache.len(),
        };
        sections.push((
            "plan_cache".to_owned(),
            serde_json::to_value(&plan_cache).expect("report serializes"),
        ));
        let rendered = serde_json::to_string_pretty(&serde_json::Value::Map(sections))
            .expect("report serializes");
        std::fs::write("BENCH_repro.json", rendered).expect("BENCH_repro.json is writable");
        println!("wrote BENCH_repro.json");
    }
    for failure in &failures {
        eprintln!("check failed — {failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mode = match parse_args(std::env::args().skip(1)) {
        Ok(Some(mode)) => mode,
        Ok(None) => {
            println!("{USAGE}\n\nEXPERIMENTS (in run order; each is a key of the report):");
            for e in &isp_bench::EXPERIMENTS {
                println!("    {:<14} {}", e.name, e.reproduces);
            }
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = SystemConfig::paper_default();
    match mode {
        Mode::Full { json } => run_full(json, &config),
        Mode::Trace(req) => run_traced(&req, &config),
        Mode::Journal { path, resume } => run_journal_focused(&path, resume),
    }
}
