//! Runs every experiment in sequence — the full evaluation of the paper.
//!
//! All figures share one [`PlanCache`], so each (workload, platform) pair
//! is sampled, fitted, and assigned exactly once across the whole run.
//! `--threads N` executes every Figure 5 plan under an N-worker
//! data-parallel kernel policy; the policy is execution-only, so the rows
//! are byte-identical to the serial grid's and only wall-clock moves.
//! With `--json`, the binary also times every experiment, re-runs Figure 5
//! through the original uncached serial path as a before/after control
//! (checking the rows are bit-identical), runs the kernel-scaling sweep,
//! and writes the measurements to `BENCH_repro.json`.

use std::time::Instant;

use activepy::PlanCache;
use alang::ParallelPolicy;
use csd_sim::SystemConfig;
use isp_bench::experiments as ex;
use serde::Serialize;

#[derive(Serialize)]
struct ExperimentTiming {
    name: String,
    wall_secs: f64,
}

#[derive(Serialize)]
struct CacheReport {
    hits: u64,
    misses: u64,
    hit_rate: f64,
    plans: usize,
    planning_secs: f64,
}

#[derive(Serialize)]
struct Fig5Comparison {
    serial_uncached_secs: f64,
    cached_secs: f64,
    speedup: f64,
    rows_identical: bool,
}

#[derive(Serialize)]
struct InterpComparison {
    ast_walk_secs: f64,
    vm_secs: f64,
    speedup: f64,
    lower_secs: f64,
    rows_identical: bool,
}

#[derive(Serialize)]
struct FaultsReport {
    seed: u64,
    rows: Vec<ex::faults::Row>,
    fault_migrations: u64,
    wrong_answers: usize,
}

#[derive(Serialize)]
struct BenchReport {
    experiments: Vec<ExperimentTiming>,
    total_secs: f64,
    threads: usize,
    plan_cache: CacheReport,
    fig5_before_after: Fig5Comparison,
    interp: InterpComparison,
    faults: FaultsReport,
    decode: ex::decode::Report,
    scaling: ex::scaling::Report,
    shards: ex::shards::Report,
    adapt: ex::adapt::Report,
    recovery: ex::recovery::Report,
    audit: ex::audit::Report,
}

/// Times per-line execution — the component of sampling wall-clock the
/// lowering pass removes — on the VM and on the reference AST walker.
///
/// The programs are dispatch-bound (scalar chains, tiny arrays, a
/// minimum-size TPC-H Q6 pipeline): per-line kernel work is negligible,
/// so the measurement isolates name resolution, input re-walks, and
/// builtin matching — exactly what the paper's Cython tier eliminates.
/// Each engine is timed over several interleaved rounds and the minimum
/// round is kept, the standard guard against scheduler noise. Lowering
/// is timed separately since plans lower once and execute many times.
fn measure_interp() -> InterpComparison {
    use alang::builtins::Storage;
    use alang::interp::Interpreter;
    use alang::table::{Column, Table};
    use alang::value::ArrayVal;
    use alang::{Value, Vm};
    use std::sync::Arc;

    let scalar: String = (0..24)
        .map(|i| match i % 4 {
            0 => format!("s{i} = {i} + 1\n"),
            1 => format!("s{i} = s{} * 2 - 3\n", i - 1),
            2 => format!("s{i} = s{} / (s{} + 1)\n", i - 1, i - 2),
            _ => format!("s{i} = -s{} + s{}\n", i - 1, i - 3),
        })
        .collect();
    let tiny_arrays = "a = scan('v')\nb = a * 2 + 1\nm = b < 5\nc = sum(b)\n\
                       d = mean(a)\ne = abs(a - d)\nf = sum(e) + c\n";
    let q6_micro = "t = scan('lineitem')\nq = col(t, 'qty')\nm = q < 24\n\
                    p = col(t, 'price')\ns = select(p, m)\nr = sum(s)\n";

    let mut st = Storage::new();
    st.insert(
        "v",
        Value::Array(ArrayVal::with_logical(vec![1.0, 2.0, 3.0, 4.0], 1_000_000)),
    );
    let table = Table::with_logical_rows(
        vec![
            (
                "qty".into(),
                Column::F64(Arc::new(vec![10.0, 30.0, 5.0, 40.0])),
            ),
            (
                "price".into(),
                Column::F64(Arc::new(vec![100.0, 200.0, 50.0, 400.0])),
            ),
        ],
        4_000_000,
    )
    .expect("table");
    st.insert("lineitem", Value::Table(table));

    let mut cases = Vec::new();
    let mut rows_identical = true;
    for src in [scalar.as_str(), tiny_arrays, q6_micro] {
        let program = alang::parser::parse(src).expect("parse");
        let flags = vec![false; program.len()];
        let lowered = alang::lower::lower(&program).expect("lowers");
        let ast = Interpreter::new(&st).run(&program, &flags).expect("ast");
        let vm = Vm::new(&lowered, &st).run().expect("vm");
        rows_identical &= ast == vm;
        cases.push((program, flags, lowered));
    }

    const ROUNDS: usize = 7;
    const ITERS: usize = 3000;
    let mut ast_walk_secs = f64::INFINITY;
    let mut vm_secs = f64::INFINITY;
    let mut lower_secs = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..ITERS {
            for (program, flags, _) in &cases {
                let mut interp = Interpreter::new(&st);
                std::hint::black_box(interp.run(program, flags).expect("ast"));
            }
        }
        ast_walk_secs = ast_walk_secs.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for _ in 0..ITERS {
            for (_, _, lowered) in &cases {
                let mut vm = Vm::new(lowered, &st);
                std::hint::black_box(vm.run().expect("vm"));
            }
        }
        vm_secs = vm_secs.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        for _ in 0..ITERS {
            for (program, _, _) in &cases {
                std::hint::black_box(alang::lower::lower(program).expect("lowers"));
            }
        }
        lower_secs = lower_secs.min(t.elapsed().as_secs_f64());
    }

    InterpComparison {
        ast_walk_secs,
        vm_secs,
        speedup: ast_walk_secs / vm_secs,
        lower_secs,
        rows_identical,
    }
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

/// Parses the `--trace*` flag family. Exits with a usage error on a
/// malformed combination.
fn parse_trace() -> Option<TraceRequest> {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |name: &str| -> Option<String> {
        args.iter().position(|a| a == name).map(|pos| {
            args.get(pos + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| {
                    eprintln!("{name} requires a value");
                    std::process::exit(2);
                })
        })
    };
    let path = flag_value("--trace")?;
    let format = match flag_value("--trace-format").as_deref() {
        None | Some("jsonl") => TraceFormat::Jsonl,
        Some("chrome") => TraceFormat::Chrome,
        Some(other) => {
            eprintln!("--trace-format must be 'jsonl' or 'chrome', got '{other}'");
            std::process::exit(2);
        }
    };
    Some(TraceRequest {
        path,
        format,
        mask_wall: args.iter().any(|a| a == "--trace-mask-wall"),
        workload: flag_value("--trace-workload"),
    })
}

/// The `--trace` mode: runs the Figure 5 grid serially with a live tracer
/// threaded through every pipeline phase and writes the journal. Other
/// experiments are skipped and `BENCH_repro.json` is not written — trace
/// runs observe, they do not publish benchmark rows.
fn run_traced(req: &TraceRequest, config: &SystemConfig, policy: ParallelPolicy) {
    let (tracer, sink) = isp_obs::Tracer::to_memory();
    let cache = PlanCache::new();
    let rows = ex::fig5::run_traced(config, &cache, policy, &tracer, req.workload.as_deref());
    if rows.is_empty() {
        eprintln!(
            "--trace-workload '{}' matched no registered workload",
            req.workload.as_deref().unwrap_or("")
        );
        std::process::exit(2);
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
}

/// Parses `--shards N`: narrows the shard-scaling sweep to fleet sizes
/// {1, N} (N=1 runs the baseline row alone). Without the flag the sweep
/// visits the full default grid.
fn parse_shards() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let pos = args.iter().position(|a| a == "--shards")?;
    let n = args
        .get(pos + 1)
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            eprintln!("--shards requires a positive integer");
            std::process::exit(2);
        });
    if n == 0 || n > 64 {
        eprintln!("--shards must be between 1 and 64, got {n}");
        std::process::exit(2);
    }
    Some(n)
}

/// The `--adapt` mode: runs only the adaptation sweep (optionally a
/// single workload via `--adapt-workload W`), prints the regret table,
/// and exits non-zero if an invariant fails. Other experiments are
/// skipped and `BENCH_repro.json` is not written.
fn run_adapt_focused(config: &SystemConfig) {
    let args: Vec<String> = std::env::args().collect();
    let workload = args
        .iter()
        .position(|a| a == "--adapt-workload")
        .and_then(|pos| args.get(pos + 1))
        .filter(|v| !v.starts_with("--"))
        .cloned();
    let report = match workload.as_deref() {
        Some(name) => ex::adapt::run_one(name, config).unwrap_or_else(|| {
            eprintln!("--adapt-workload '{name}' matched no registered workload");
            std::process::exit(2);
        }),
        None => ex::adapt::run(config),
    };
    ex::adapt::print(&report);
    if let Err(e) = ex::adapt::check(&report) {
        eprintln!("adaptation sweep check failed: {e}");
        std::process::exit(1);
    }
}

/// The `--audit` mode: runs only the planner-audit calibration sweep
/// (optionally a single workload via `--audit-workload W`), prints the
/// predicted-vs-measured table, and exits non-zero if a calibration
/// invariant fails — the CI smoke gate. Other experiments are skipped
/// and `BENCH_repro.json` is not written.
fn run_audit_focused(config: &SystemConfig) {
    let args: Vec<String> = std::env::args().collect();
    let workload = args
        .iter()
        .position(|a| a == "--audit-workload")
        .and_then(|pos| args.get(pos + 1))
        .filter(|v| !v.starts_with("--"))
        .cloned();
    let report = match workload.as_deref() {
        Some(name) => ex::audit::run_one(name, config).unwrap_or_else(|| {
            eprintln!("--audit-workload '{name}' matched no registered workload");
            std::process::exit(2);
        }),
        None => ex::audit::run(config),
    };
    ex::audit::print(&report);
    if let Err(e) = ex::audit::check(&report) {
        eprintln!("planner-audit check failed: {e}");
        std::process::exit(1);
    }
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
fn run_journal_focused(path: &str, resume: bool) {
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
}

fn usage() {
    println!(
        "repro — run the full ActivePy evaluation\n\n\
         USAGE:\n    repro [OPTIONS]\n\n\
         OPTIONS:\n\
         \x20   --json                 time every experiment and write BENCH_repro.json\n\
         \x20   --threads N            run Figure 5 plans under an N-worker kernel policy\n\
         \x20   --shards N             narrow the shard-scaling sweep to fleet sizes {{1, N}}\n\
         \x20                          (default grid: N in {:?})\n\
         \x20   --adapt                run only the adaptation sweep; exits non-zero if its\n\
         \x20                          regret/fingerprint checks fail\n\
         \x20   --adapt-workload W     narrow --adapt to a single workload\n\
         \x20   --audit                run only the planner-audit calibration sweep; exits\n\
         \x20                          non-zero if its error-band/flip/fingerprint checks fail\n\
         \x20   --audit-workload W     narrow --audit to a single workload\n\
         \x20   --journal PATH         run the recovery workload recording an execution\n\
         \x20                          journal at PATH (skips other experiments)\n\
         \x20   --resume PATH          resume the recovery workload from the journal at\n\
         \x20                          PATH, verifying replayed records (skips other\n\
         \x20                          experiments)\n\
         \x20   --trace PATH           trace the Figure 5 grid to PATH (skips other experiments)\n\
         \x20   --trace-format F       trace format: jsonl (default) or chrome\n\
         \x20   --trace-mask-wall      mask wall-clock timestamps in the trace\n\
         \x20   --trace-workload W     trace only workload W\n\
         \x20   --help                 print this help",
        ex::shards::SHARD_COUNTS
    );
}

/// Parses `--threads N` (default 1), validating against the engine's
/// policy rules.
fn parse_threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let Some(pos) = args.iter().position(|a| a == "--threads") else {
        return 1;
    };
    let threads = args
        .get(pos + 1)
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            eprintln!("--threads requires a positive integer");
            std::process::exit(2);
        });
    if let Err(e) = ParallelPolicy::with_threads(threads).validate() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    threads
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    let json = std::env::args().any(|a| a == "--json");
    let threads = parse_threads();
    let shard_focus = parse_shards();
    let policy = ParallelPolicy::with_threads(threads);
    let config = SystemConfig::paper_default();
    if let Some(req) = parse_trace() {
        run_traced(&req, &config, policy);
        return;
    }
    let args: Vec<String> = std::env::args().collect();
    for (flag, resume) in [("--journal", false), ("--resume", true)] {
        if let Some(pos) = args.iter().position(|a| a == flag) {
            let Some(path) = args.get(pos + 1).filter(|v| !v.starts_with("--")) else {
                eprintln!("{flag} requires a path");
                std::process::exit(2);
            };
            run_journal_focused(path, resume);
            return;
        }
    }
    if std::env::args().any(|a| a == "--adapt") {
        run_adapt_focused(&config);
        return;
    }
    if std::env::args().any(|a| a == "--audit" || a == "--audit-workload") {
        run_audit_focused(&config);
        return;
    }
    let cache = PlanCache::new();
    let mut experiments: Vec<ExperimentTiming> = Vec::new();
    let mut time = |name: &str, secs: f64| {
        experiments.push(ExperimentTiming {
            name: name.to_owned(),
            wall_secs: secs,
        });
    };

    let started = Instant::now();
    let t = Instant::now();
    let table1 = ex::table1::run();
    time("table1", t.elapsed().as_secs_f64());
    ex::table1::print(&table1);
    println!();

    let t = Instant::now();
    let fig2 = ex::fig2::run(&config);
    time("fig2", t.elapsed().as_secs_f64());
    ex::fig2::print(&fig2);
    println!();

    let t = Instant::now();
    let fig4 = ex::fig4::run_with(&config, &cache);
    time("fig4", t.elapsed().as_secs_f64());
    ex::fig4::print(&fig4);
    println!();

    let t = Instant::now();
    let fig5 = ex::fig5::run_with_policy(&config, &cache, policy);
    let fig5_cached_secs = t.elapsed().as_secs_f64();
    time("fig5", fig5_cached_secs);
    ex::fig5::print(&fig5);
    println!();

    let t = Instant::now();
    let runtime_opt = ex::runtime_opt::run(&config);
    time("runtime_opt", t.elapsed().as_secs_f64());
    ex::runtime_opt::print(&runtime_opt);
    println!();

    let t = Instant::now();
    let prediction = ex::prediction::run_with(&config, &cache);
    time("prediction", t.elapsed().as_secs_f64());
    ex::prediction::print(&prediction);
    println!();

    let t = Instant::now();
    let ablation = ex::ablation::run_with(&config, &cache);
    time("ablation", t.elapsed().as_secs_f64());
    ex::ablation::print(&ablation);
    println!();

    let t = Instant::now();
    let bw = ex::flexibility::run_bw_sweep_with(&cache);
    let gc = ex::flexibility::run_gc_with(&cache);
    time("flexibility", t.elapsed().as_secs_f64());
    ex::flexibility::print(&bw, &gc);
    println!();

    let t = Instant::now();
    let faults = ex::faults::run_with(&config, &cache);
    time("faults", t.elapsed().as_secs_f64());
    ex::faults::print(&faults);
    println!();

    let t = Instant::now();
    let decode = ex::decode::run_with(&config, &cache);
    time("decode", t.elapsed().as_secs_f64());
    ex::decode::print(&decode);
    if let Err(e) = ex::decode::check(&decode) {
        eprintln!("decode experiment check failed: {e}");
    }
    println!();

    let t = Instant::now();
    let scaling = ex::scaling::run();
    time("scaling", t.elapsed().as_secs_f64());
    ex::scaling::print(&scaling);
    if let Err(e) = ex::scaling::check(&scaling) {
        eprintln!("scaling sweep check failed: {e}");
    }
    println!();

    let t = Instant::now();
    let shards = match shard_focus {
        // --shards N: the baseline row plus the requested fleet size only.
        Some(n) => {
            let counts: Vec<usize> = if n == 1 { vec![1] } else { vec![1, n] };
            ex::shards::run_configured(
                &ex::shards::WORKLOADS,
                &counts,
                &cache,
                &ex::shards::RunCounters::default(),
            )
        }
        None => ex::shards::run_with(&cache),
    };
    time("shards", t.elapsed().as_secs_f64());
    ex::shards::print(&shards);
    // The floors assume the full grid; a narrowed --shards run skips them.
    if shard_focus.is_none() {
        if let Err(e) = ex::shards::check(&shards) {
            eprintln!("shard sweep check failed: {e}");
        }
    }
    println!();

    let t = Instant::now();
    let adapt = ex::adapt::run(&config);
    time("adapt", t.elapsed().as_secs_f64());
    ex::adapt::print(&adapt);
    if let Err(e) = ex::adapt::check(&adapt) {
        eprintln!("adaptation sweep check failed: {e}");
    }
    println!();

    let t = Instant::now();
    let recovery = ex::recovery::run();
    time("recovery", t.elapsed().as_secs_f64());
    ex::recovery::print(&recovery);
    if let Err(e) = ex::recovery::check(&recovery) {
        eprintln!("recovery benchmark check failed: {e}");
    }
    println!();

    let t = Instant::now();
    let audit = ex::audit::run(&config);
    time("audit", t.elapsed().as_secs_f64());
    ex::audit::print(&audit);
    if let Err(e) = ex::audit::check(&audit) {
        eprintln!("planner-audit check failed: {e}");
    }

    let total_secs = started.elapsed().as_secs_f64();
    let stats = cache.stats();
    println!();
    println!(
        "plan cache: {} plans, {} hits / {} misses ({:.0}% hit rate), {:.2}s planning",
        cache.len(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.planning_nanos as f64 / 1e9,
    );

    if !json {
        return;
    }

    // Before/after control: Figure 5 through the original uncached serial
    // path. The rows must be bit-identical to the cached parallel sweep.
    let t = Instant::now();
    let fig5_serial = ex::fig5::run_serial(&config);
    let serial_secs = t.elapsed().as_secs_f64();
    let rows_identical = serde_json::to_string(&fig5).expect("rows serialize")
        == serde_json::to_string(&fig5_serial).expect("rows serialize");
    let speedup = serial_secs / fig5_cached_secs;
    println!(
        "fig5 before/after: serial uncached {serial_secs:.2}s, cached sweep \
         {fig5_cached_secs:.2}s ({speedup:.2}x), rows identical: {rows_identical}"
    );

    let interp = measure_interp();
    println!(
        "interp engines: ast-walk {:.3}s, vm {:.3}s ({:.2}x), lowering {:.3}s, \
         rows identical: {}",
        interp.ast_walk_secs,
        interp.vm_secs,
        interp.speedup,
        interp.lower_secs,
        interp.rows_identical
    );

    let report = BenchReport {
        experiments,
        total_secs,
        threads,
        plan_cache: CacheReport {
            hits: stats.hits,
            misses: stats.misses,
            hit_rate: stats.hit_rate(),
            plans: cache.len(),
            planning_secs: stats.planning_nanos as f64 / 1e9,
        },
        fig5_before_after: Fig5Comparison {
            serial_uncached_secs: serial_secs,
            cached_secs: fig5_cached_secs,
            speedup,
            rows_identical,
        },
        interp,
        shards,
        adapt,
        recovery,
        audit,
        faults: FaultsReport {
            seed: ex::faults::FAULT_SEED,
            fault_migrations: faults.iter().map(|r| r.fault_migrations).sum(),
            wrong_answers: faults.iter().filter(|r| !r.values_match).count(),
            rows: faults,
        },
        decode,
        scaling,
    };
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_repro.json", rendered).expect("BENCH_repro.json is writable");
    println!("wrote BENCH_repro.json");
}
