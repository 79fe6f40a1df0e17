//! The determinism contract's harness (see the module docs of `common`).

use super::programs::Programs;
use super::{all_placements, single_assignment, storage, FaultParams, Scaled, REASSIGNING};
use activepy::assign::projected_cost;
use activepy::estimate::Link;
use activepy::exec::{execute, ExecOptions, MigrationReason, RunReport};
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::sampling::{observe_dataset_types, paper_scales, run_sampling};
use activepy::sampling::{InputSource, LineSamples, SamplePoint, SamplingReport};
use activepy::{execute_sharded_raw, ActivePyError, ExecJournal, FleetReport, PlanCache};
use activepy::{OffloadPlan, ProfileRecorder, ProfileStore};
use alang::ast::Expr;
use alang::builtins::signatures;
use alang::canonical::Fingerprinter;
use alang::interp::{Interpreter, LineRecord};
use alang::shape::Demand;
use alang::shard::{ShardMap, ShardStrategy};
use alang::{LangError, ParStatsSnapshot, ParallelPolicy, Program, Storage, Value, Vm};
use csd_sim::units::SimTime;
use csd_sim::{ContentionScenario, EngineKind, FaultCounters, SystemConfig};
use isp_obs::export::prometheus;
use isp_obs::wal::{parse_wal_bytes, WAL_MAGIC};
use isp_obs::Tracer;
use proptest::prelude::*;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One axis of the contract: the name its failures carry, how many cases
/// it draws, how many of those run to completion, and which builtins the
/// completed ones call.
pub struct Axis {
    pub name: &'static str,
    cases: u32,
    completed: u32,
    calls: Calls,
}

/// The builtins an axis's completed cases call.
pub enum Calls {
    /// Every row of the table.
    Every,
    /// Exactly these.
    Only(&'static [&'static str]),
}

pub const VM: Axis = Axis::new("vm", 256, 222, Calls::Every);
pub const THREADS: Axis = Axis::new("threads", 44, 43, Calls::Every);
pub const FLEET: Axis = Axis::new("fleet", 32, 29, Calls::Every);
pub const CHAOS: Axis = Axis::new("chaos", 48, 44, Calls::Every);
pub const WAL: Axis = Axis::new("wal", 48, 45, Calls::Every);
pub const AUDIT: Axis = Axis::new("audit", 32, 29, Calls::Every);
pub const SAMPLING: Axis = Axis::new("sampling", 512, 410, Calls::Every);
pub const REPLAN: Axis = Axis::new("replan", 48, 48, Calls::Every);
pub const DECODE: Axis = Axis::new(
    "decode",
    24,
    24,
    Calls::Only(&["count", "decode", "scan_raw", "select", "sum"]),
);

/// A case's end on an axis: the builtins it called when it ran to
/// completion, `None` when it failed alike everywhere.
pub type Ran = Option<BTreeSet<String>>;

impl Axis {
    const fn new(name: &'static str, cases: u32, completed: u32, calls: Calls) -> Self {
        Axis {
            name,
            cases,
            completed,
            calls,
        }
    }

    /// Runs `check` on the axis's draws of `strategy` and asserts how many
    /// ran to completion and which builtins those called, so a generator
    /// or storage change cannot silently drop the cases or the builtins
    /// that reach the axis.
    pub fn check<S: Strategy>(
        &self,
        strategy: S,
        mut check: impl FnMut(S::Value) -> Result<Ran, TestCaseError>,
    ) {
        let mut completed = 0;
        let mut called = BTreeSet::new();
        TestRunner::new(ProptestConfig::with_cases(self.cases)).run(&strategy, |case| {
            if let Some(calls) = check(case)? {
                completed += 1;
                called.extend(calls);
            }
            Ok(())
        });
        let pinned: BTreeSet<String> = match self.calls {
            Calls::Every => signatures().map(|sig| sig.name.to_owned()).collect(),
            Calls::Only(names) => names.iter().map(|name| (*name).to_owned()).collect(),
        };
        let uncalled: Vec<&String> = pinned.difference(&called).collect();
        let unpinned: Vec<&String> = called.difference(&pinned).collect();
        let what = format!(
            "{}: cases run to completion of {}, pinned builtins they do not call, \
             builtins they call unpinned",
            self.name, self.cases
        );
        assert_eq!(
            (completed, uncalled, unpinned),
            (self.completed, vec![], vec![]),
            "{what}"
        );
    }
}

/// The builtins `program` calls.
pub fn calls(program: &Program) -> BTreeSet<String> {
    fn walk(expr: &Expr, calls: &mut BTreeSet<String>) {
        match expr {
            Expr::Num(_) | Expr::Str(_) | Expr::Ident(_) => {}
            Expr::Call { name, args } => {
                calls.insert(name.clone());
                args.iter().for_each(|arg| walk(arg, calls));
            }
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, calls);
                walk(rhs, calls);
            }
            Expr::Unary { expr, .. } => walk(expr, calls),
        }
    }
    let mut set = BTreeSet::new();
    program
        .lines()
        .iter()
        .for_each(|line| walk(&line.expr, &mut set));
    set
}

/// What an axis compares: an answer, or an error's text.
pub type Outcome<T> = Result<T, String>;

/// The contract's three-way match: the outcome and its reference both ran
/// and agree, or both failed with one error text. Returns whether the case
/// ran to completion; anything else fails, naming the axis and the program.
pub fn agree<T: PartialEq + Debug>(
    axis: &str,
    case: &Case,
    reference: &Outcome<T>,
    outcome: &Outcome<T>,
) -> Result<bool, TestCaseError> {
    match (reference, outcome) {
        (Ok(r), Ok(o)) if r == o => Ok(true),
        (Err(r), Err(o)) if r == o => Ok(false),
        _ => Err(TestCaseError::fail(format!(
            "{axis} diverged for:\n{}reference: {reference:?}\n{axis}: {outcome:?}",
            case.src
        ))),
    }
}

/// One draw of the contract: a program, the storage it scans and its
/// placement. Its reference, the clean unsharded `execute`, runs once, when
/// an axis first reads it.
pub struct Case {
    pub src: String,
    pub program: Program,
    pub storage: Storage,
    pub placements: Vec<EngineKind>,
    reference: OnceCell<Result<RunReport, ActivePyError>>,
}

impl Case {
    pub fn new(src: impl Into<String>, storage: Storage, placements: Vec<EngineKind>) -> Self {
        let src = src.into();
        let program = alang::parser::parse(&src).expect("drawn source parses");
        let reference = OnceCell::new();
        Case {
            src,
            program,
            storage,
            placements,
            reference,
        }
    }

    /// A case of `src` alone, for the axes that draw its input per scale.
    pub fn program_only(src: impl Into<String>) -> Self {
        Case::new(src, Storage::new(), Vec::new())
    }

    /// One to five drawn lines over [`storage`], placed by six drawn bools:
    /// what the chaos, fleet, wal and audit axes draw first.
    pub fn placed() -> impl Strategy<Value = Case> {
        let on_csd = prop::collection::vec(any::<bool>(), 6..7);
        (Programs::over(&storage()), on_csd).prop_map(|(lines, on_csd)| {
            let placements = super::placements(&on_csd, lines.len());
            Case::new(super::source(&lines), storage(), placements)
        })
    }

    /// How the case ended on an axis: [`Ran`] when it `completed`.
    pub fn ran(&self, completed: bool) -> Ran {
        completed.then(|| calls(&self.program))
    }

    pub fn reference(&self) -> &Result<RunReport, ActivePyError> {
        (self.reference).get_or_init(|| self.run(&ExecOptions::activepy()))
    }

    /// The case unsharded under `opts`, on a fresh paper-default system.
    pub fn run(&self, opts: &ExecOptions) -> Result<RunReport, ActivePyError> {
        let system = &mut SystemConfig::paper_default().build();
        let (program, storage, placements) = (&self.program, &self.storage, &self.placements);
        execute(program, storage, placements, system, opts, None, &[])
    }

    /// The case range-sharded over `n` devices under `opts`, shard `s`
    /// under `faults`' plan for it.
    pub fn fleet(
        &self,
        n: usize,
        opts: &ExecOptions,
        faults: Option<&FaultParams>,
    ) -> Result<FleetReport, ActivePyError> {
        let (program, storage, placements) = (&self.program, &self.storage, &self.placements);
        let map = &ShardMap::auto(storage, n, ShardStrategy::Range);
        let plans = faults.map_or(vec![], |f| (0..n).map(|s| f.plan_for_shard(s)).collect());
        let config = &SystemConfig::paper_default();
        execute_sharded_raw(program, storage, map, placements, config, opts, &plans)
    }

    /// The case respelled single-assignment, same storage and placement.
    pub fn respelled(&self) -> Case {
        let src = single_assignment(&self.program);
        Case::new(src, self.storage.clone(), self.placements.clone())
    }

    /// [`agree`] between `run` and the reference's answer; a completed run
    /// must also keep its [`recovery_accounts`].
    pub fn agrees<R: Report>(
        &self,
        axis: &str,
        run: &Result<R, ActivePyError>,
    ) -> Result<bool, TestCaseError> {
        let completed = agree(axis, self, &answer(self.reference()), &answer(run))?;
        if let Ok(report) = run {
            recovery_accounts(axis, self, report)?;
        }
        Ok(completed)
    }
}

/// A run's or a fleet's report.
pub trait Report: Clone + Debug {
    fn fingerprint(&self) -> u64;
    /// The report with every values fingerprint zeroed (names are hashed
    /// into them).
    fn masked(&self) -> Self;
    /// Each device's report: a fleet's shards, then its tail.
    fn devices(&self) -> Vec<&RunReport>;
}

impl Report for RunReport {
    fn fingerprint(&self) -> u64 {
        self.values_fingerprint
    }

    fn masked(&self) -> Self {
        let mut report = self.clone();
        report.values_fingerprint = 0;
        report
    }

    fn devices(&self) -> Vec<&RunReport> {
        vec![self]
    }
}

impl Report for FleetReport {
    fn fingerprint(&self) -> u64 {
        self.values_fingerprint
    }

    fn masked(&self) -> Self {
        let mut report = self.clone();
        report.values_fingerprint = 0;
        report.tail.values_fingerprint = 0;
        for shard in &mut report.shards {
            shard.report.values_fingerprint = 0;
        }
        report
    }

    fn devices(&self) -> Vec<&RunReport> {
        let shards = self.shards.iter().map(|shard| &shard.report);
        shards.chain([&self.tail]).collect()
    }
}

/// A run's answer: its values fingerprint, or its error's text.
pub fn answer<R: Report>(run: &Result<R, ActivePyError>) -> Outcome<u64> {
    run.as_ref().map(R::fingerprint).map_err(|e| e.to_string())
}

/// A whole run, field for field, or its error's text.
pub fn whole<R: Debug>(run: &Result<R, ActivePyError>) -> Outcome<String> {
    run.as_ref()
        .map(|r| format!("{r:?}"))
        .map_err(|e| e.to_string())
}

/// Recovery accounting, device by device: each device recovered exactly
/// the transient faults its injector delivered, counted at most one CSE
/// crash (a crash latches), and turned a hard fault into a `DeviceFault`
/// migration.
pub fn recovery_accounts(axis: &str, case: &Case, run: &impl Report) -> Result<(), TestCaseError> {
    for (d, device) in run.devices().into_iter().enumerate() {
        let (recovery, injected) = (&device.metrics.recovery, &device.metrics.faults);
        let to_host = device.migration().map(|m| m.reason) == Some(MigrationReason::DeviceFault);
        let migrated = to_host && recovery.fault_migrations >= 1;
        let accounts = recovery.transient_faults == injected.transient_total()
            && injected.cse_crashes <= 1
            && (recovery.hard_faults == 0 || migrated);
        let src = &case.src;
        prop_assert!(
            accounts,
            "{axis}: device {d}: {recovery:?} of {injected:?} for:\n{src}"
        );
    }
    Ok(())
}

/// Spelling is free: the case respelled single-assignment, through `run`,
/// reports what `named`, the case through `run`, does in every field but
/// the fingerprints.
pub fn spelling_is_free<R: Report>(
    axis: &str,
    case: &Case,
    named: &Result<R, ActivePyError>,
    run: impl FnOnce(&Case) -> Result<R, ActivePyError>,
) -> Result<(), TestCaseError> {
    let respelled = case.respelled();
    let masked = |run: &Result<R, _>| format!("{:?}", run.as_ref().map(R::masked));
    let (placements, src, as_src) = (&case.placements, &case.src, &respelled.src);
    let moved =
        format!("{axis}: respelling moved the run under {placements:?} for:\n{src}as:\n{as_src}");
    prop_assert_eq!(masked(named), masked(&run(&respelled)), "{}", moved);
    Ok(())
}

/// [`spelling_is_free`] where it bites: few drawn programs both complete
/// and read a name they reassign, so every [`REASSIGNING`] program under
/// every placement, through `run`, which must complete.
pub fn reassigning_programs_respell_for_free<R: Report>(
    axis: &str,
    run: impl Fn(&Case) -> Result<R, ActivePyError>,
) {
    for src in REASSIGNING {
        for placements in all_placements(src.lines().count()) {
            let case = Case::new(src, storage(), placements);
            let named = run(&case);
            assert!(named.is_ok(), "{axis}: {named:?} for:\n{src}");
            spelling_is_free(axis, &case, &named, &run).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

/// One engine's run: its records, and each variable the interpreter
/// defined with its value's digest (the one `values_fingerprint` is made
/// of, bit-exact, so identical NaNs compare equal) and `var_bytes`.
pub type EngineRun = (Vec<LineRecord>, Vec<(String, Option<u64>, u64)>);

/// The engines axis (`tests/vm_differential.rs`): the case on the
/// interpreter and on the VM with copy-elimination `flags` under `policy`,
/// the two in [`agree`]ment; the VM's run is the outcome, returned with
/// the VM's chunked-execution counters.
pub fn engines(
    axis: &str,
    case: &Case,
    flags: &[bool],
    policy: ParallelPolicy,
) -> Result<(Outcome<EngineRun>, ParStatsSnapshot), TestCaseError> {
    let mut interp = Interpreter::with_policy(&case.storage, policy);
    let ast = interp.run(&case.program, flags);
    // Every drawn call names a registered builtin, so lowering cannot fail.
    let lowered = alang::lower::lower_with(&case.program, flags).expect("lowers");
    let mut vm = Vm::with_policy(&lowered, &case.storage, policy);
    let on_vm = vm.run();
    let names: Vec<String> = interp.var_names().map(str::to_owned).collect();
    let digest = |value: Option<&Value>| value.map(Fingerprinter::digest);
    let ast = ast.map(|records| {
        let var = |n: &String| (n.clone(), digest(interp.var(n)), interp.var_bytes(n));
        (records, names.iter().map(var).collect())
    });
    let on_vm = on_vm.map(|records| {
        let var = |n: &String| (n.clone(), digest(vm.var(n)), vm.var_bytes(n));
        (records, names.iter().map(var).collect())
    });
    let (ast, on_vm) = (
        ast.map_err(|e| e.to_string()),
        on_vm.map_err(|e| e.to_string()),
    );
    agree(axis, case, &ast, &on_vm)?;
    Ok((on_vm, vm.par_stats()))
}

/// The threads axis (`tests/thread_determinism.rs`): the engines axis at
/// each of `counts` threads, every run and its chunked-execution counters
/// equal to the first's. Returns whether the case ran to completion, and
/// the counters: the chunk grid is the data's, not the schedule's.
pub fn threads(
    case: &Case,
    flags: &[bool],
    counts: &[usize],
) -> Result<(bool, ParStatsSnapshot), TestCaseError> {
    let axis = |n: usize| format!("{} at {n}", THREADS.name);
    let at = |n: usize| engines(&axis(n), case, flags, ParallelPolicy::with_threads(n));
    let (first, stats) = at(counts[0])?;
    for &n in &counts[1..] {
        let (run, at_n) = at(n)?;
        agree(&axis(n), case, &first, &run)?;
        prop_assert_eq!(at_n, stats, "{}: chunked-execution counters", axis(n));
    }
    Ok((first.is_ok(), stats))
}

/// The fleet axis (`tests/shard_determinism.rs`): the case on `n` devices
/// in one `cell`, under `opts` and per-shard `faults`.
pub fn fleet(
    case: &Case,
    n: usize,
    cell: &str,
    opts: &ExecOptions,
    faults: Option<&FaultParams>,
) -> Result<(), TestCaseError> {
    let axis = &format!("{} N={n} {cell}", FLEET.name);
    let run = |case: &Case| case.fleet(n, opts, faults);
    let named = run(case);
    spelling_is_free(axis, case, &named, run)?;
    case.agrees(axis, &named)?;
    if let (Ok(report), None) = (&named, faults) {
        prop_assert_eq!(report.injected(), FaultCounters::default(), "{}", axis);
    }
    Ok(())
}

/// The faulted axis (`tests/chaos.rs`): the case under `faults`' plan.
pub fn faulted(case: &Case, faults: &FaultParams) -> Result<bool, TestCaseError> {
    let clean = ExecOptions::activepy();
    spelling_is_free(CHAOS.name, case, case.reference(), |c| c.run(&clean))?;
    let opts = clean.with_faults(faults.plan());
    let run = case.run(&opts);
    spelling_is_free(CHAOS.name, case, &run, |c| c.run(&opts))?;
    case.agrees(CHAOS.name, &run)
}

/// A fresh journal path: tests run concurrently in one process.
pub fn wal_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("activepy_wal_{}_{tag}_{n}.wal", std::process::id()))
}

/// Simulates a kill: keeps only the first `frac` of the journal's bytes
/// (always at least the magic, so the file reads as a valid-but-short
/// WAL; offsets inside a record exercise the torn-tail rule).
pub fn truncate_at_fraction(path: &Path, frac: f64) {
    let bytes = std::fs::read(path).expect("journal exists");
    let min = WAL_MAGIC.len();
    let keep = min + ((bytes.len() - min) as f64 * frac).floor() as usize;
    std::fs::write(path, &bytes[..keep]).expect("truncate journal");
}

/// The resumed axis (`tests/wal_resume.rs`): `run` records the case to a
/// journal, which is cut at `kill` of its bytes, and resumes from what is
/// left. Returns the uninterrupted and the resumed run, or `None` when the
/// uninterrupted run failed.
pub fn resumed<R: Report>(
    case: &Case,
    kill: f64,
    run: impl Fn(ExecJournal) -> Result<R, ActivePyError>,
) -> Result<Option<(R, R)>, TestCaseError> {
    let path = wal_path(WAL.name);
    let full = run(ExecJournal::record_to(&path).expect("create journal"));
    if !case.agrees(WAL.name, &full)? {
        std::fs::remove_file(&path).ok();
        return Ok(None);
    }
    let full = full.expect("agreed with a completed reference");
    let uninterrupted = std::fs::read(&path).expect("journal exists");
    let parsed = parse_wal_bytes(&uninterrupted);
    let records = parsed.records.len();
    prop_assert!(
        !parsed.torn && records >= 2,
        "a clean journal, RunStart to RunEnd"
    );
    truncate_at_fraction(&path, kill);
    let (journal, info) = ExecJournal::resume_from(&path).expect("resume");
    prop_assert!(info.records <= records);
    let resumed = run(journal);
    let healed = std::fs::read(&path).expect("journal exists");
    std::fs::remove_file(&path).ok();
    agree(WAL.name, case, &Ok(full.fingerprint()), &answer(&resumed))?;
    let diverged = format!(
        "healed journal diverged from the uninterrupted one for:\n{}",
        case.src
    );
    prop_assert!(healed == uninterrupted, "{diverged}");
    Ok(Some((full, resumed.expect("agreed with a completed run"))))
}

/// Same accounting: a resumed run migrates as the uninterrupted run did,
/// and its recovery layer counts alike, backoff to the bit.
pub fn same_accounting(full: &RunReport, resumed: &RunReport) -> Result<(), TestCaseError> {
    let (a, b) = (full.metrics.recovery, resumed.metrics.recovery);
    let a = (full.migration(), a, a.backoff_secs.to_bits());
    let b = (resumed.migration(), b, b.backoff_secs.to_bits());
    prop_assert_eq!(
        a,
        b,
        "resume moved the migration or the recovery accounting"
    );
    Ok(())
}

/// The traced axis (`tests/audit_determinism.rs`): the case unsharded and
/// on fleets of `sizes` devices under per-shard `faults`, with a live
/// tracer against without one.
pub fn traced(case: &Case, sizes: &[usize], faults: &FaultParams) -> Result<bool, TestCaseError> {
    let (tracer, _sink) = Tracer::to_memory();
    let traced = ExecOptions::activepy().with_tracer(tracer.clone());
    let solo = whole(&case.run(&traced));
    let completed = agree(AUDIT.name, case, &whole(case.reference()), &solo)?;
    for &n in sizes {
        let axis = &format!("{} N={n}", AUDIT.name);
        let run = case.fleet(n, &traced, Some(faults));
        case.agrees(axis, &run)?;
        let untraced = case.fleet(n, &ExecOptions::activepy(), Some(faults));
        agree(axis, case, &whole(&untraced), &whole(&run))?;
    }
    if let Some(snap) = tracer.metrics_snapshot() {
        let once = prometheus::render(&snap);
        let impure = "Prometheus rendering is not a pure function";
        prop_assert_eq!(&once, &prometheus::render(&snap), "{}", impure);
        prometheus::validate(&once).map_err(TestCaseError::fail)?;
    }
    Ok(completed)
}

/// Where a sample run stopped: the scale, the line and the error.
pub type Stop = (f64, usize, LangError);

/// The report of sample runs at `scales` that execute line by line, each
/// computing every line over the whole input or, with `costs_only`, what
/// the demand pass marks over the input projected to what it reads; the
/// first error stops them with its scale and line.
pub fn sample_by_lines(
    program: &Program,
    input: &dyn InputSource,
    scales: &[f64],
    costs_only: bool,
) -> Result<SamplingReport, Stop> {
    let lowered = alang::lower::lower(program).expect("lowers");
    let demand = Demand::of(&lowered);
    let mut lines: Vec<LineSamples> = (0..program.len())
        .map(|line| LineSamples {
            line,
            points: Vec::new(),
        })
        .collect();
    let mut dataset_types = alang::copyelim::DatasetTypes::new();
    for &scale in scales {
        let storage = if costs_only {
            input.projected_storage_at(scale, demand.stored())
        } else {
            input.storage_at(scale)
        };
        dataset_types.extend(observe_dataset_types(&storage));
        let mut vm = Vm::new(&lowered, &storage);
        if costs_only {
            vm = vm.costs_only(&demand);
        }
        for (line, samples) in lines.iter_mut().enumerate() {
            let cost = vm.exec_line(line).map_err(|e| (scale, line, e))?;
            samples.points.push(SamplePoint { scale, cost });
        }
    }
    Ok(SamplingReport {
        lines,
        dataset_types,
    })
}

/// The sampled axis (`tests/sampling_differential.rs`) over `input`. Line
/// by line, an error is placed at its scale and line. Returns the error
/// the case stopped at everywhere, if any.
pub fn sampled(
    case: &Case,
    input: &dyn InputSource,
) -> Result<Result<(), LangError>, TestCaseError> {
    let scales = paper_scales();
    let by_lines = |costs_only| sample_by_lines(&case.program, input, &scales, costs_only);
    fn text(e: &LangError) -> String {
        ActivePyError::from(e.clone()).to_string()
    }
    fn placed(run: &Result<SamplingReport, Stop>) -> Outcome<&SamplingReport> {
        run.as_ref()
            .map_err(|(scale, line, e)| format!("at {scale}, line {line}: {}", text(e)))
    }
    let (axis, reference) = (SAMPLING.name, by_lines(false));
    agree(axis, case, &placed(&reference), &placed(&by_lines(true)))?;
    let unplaced = reference.as_ref().map_err(|(_, _, e)| text(e));
    let sampled = run_sampling(&case.program, input, &scales);
    agree(
        axis,
        case,
        &unplaced,
        &sampled.as_ref().map_err(|e| e.to_string()),
    )?;
    Ok(reference.map(|_| ()).map_err(|(_, _, e)| e))
}

/// The replanned axis (`tests/replan_determinism.rs`) over `input`, under
/// a burst at `drop_frac` of the clean run that recovers `recover_span` of
/// the way to its end.
pub fn replanned(
    case: &Case,
    input: &Scaled,
    drop_frac: f64,
    recover_span: f64,
    burst: f64,
) -> Result<bool, TestCaseError> {
    let config = SystemConfig::paper_default();
    let static_rt = ActivePy::with_options(ActivePyOptions::default().without_migration());
    // A program whose sampling fails cannot be planned: nothing to re-plan.
    let plan = PlanCache::new().plan_for(&static_rt, "prop", &case.program, input, &config);
    let Ok(cold) = plan else { return Ok(false) };
    let run = |rt: &ActivePy, plan: &OffloadPlan, scenario| {
        let outcome = rt.execute_plan(plan, &config, scenario);
        outcome.map(|outcome| outcome.report)
    };
    let clean = run(&static_rt, &cold, ContentionScenario::none());
    // Burst and recovery land at random points of the clean run.
    let total = clean.as_ref().map_or(0.0, |r| r.total_secs);
    let drop_at = drop_frac * total;
    let recover_at = drop_at + recover_span * (total - drop_at).max(1e-6);
    let scenario = ContentionScenario::at_time(SimTime::from_secs(drop_at), burst)
        .with_recovery_at(SimTime::from_secs(recover_at));

    let static_run = run(&static_rt, &cold, scenario);
    let store = Arc::new(ProfileStore::new());
    let key = PlanCache::key_for(&static_rt, "prop", input, &config);
    let recorder = ProfileRecorder::to_store(Arc::clone(&store), key.clone());
    let monitored_rt = ActivePy::with_options(ActivePyOptions::default().with_profile(recorder));
    let monitored = run(&monitored_rt, &cold, scenario);
    // The monitored run recorded once; the refit blends that run in.
    let profile = store.profile(&key);
    prop_assert_eq!(profile.version, 1, "one profile run recorded");
    let replan_rt = ActivePy::new();
    let warm = replan_rt.replan(&cold, &config, &profile);
    let warm = warm.expect("refit succeeds");
    let replanned = run(&replan_rt, &warm, scenario);

    // Warm-never-worse, under the model both plans now share: the refit
    // evaluated the cold assignment as a candidate, so its pick can't
    // project slower than the cold placements do.
    let prior = cold.assignment.placements(case.program.len());
    let prior_cost = projected_cost(&case.program, &warm.estimates, &prior, Link::d2h(&config));
    let (warm_cost, src) = (warm.assignment.t_csd, &case.src);
    prop_assert!(
        warm_cost <= prior_cost + 1e-9,
        "refit regressed the modelled sim-time: warm {warm_cost} vs cold {prior_cost} for:\n{src}"
    );
    let reference = answer(&clean);
    let cells = [
        ("static", static_run),
        ("monitored", monitored),
        ("replanned", replanned),
    ];
    for (cell, run) in cells {
        let axis = format!("{} {cell}", REPLAN.name);
        agree(&axis, case, &reference, &answer(&run))?;
    }
    Ok(reference.is_ok())
}

/// The wire-format axis (`tests/decode_determinism.rs`): the case on the
/// host alone and on fleets of `sizes` devices under per-shard `faults`.
pub fn wire(
    axis: &str,
    case: &Case,
    sizes: &[usize],
    faults: &FaultParams,
) -> Result<bool, TestCaseError> {
    let host = vec![EngineKind::Host; case.program.len()];
    let on_host = Case::new(case.src.clone(), case.storage.clone(), host);
    case.agrees(axis, on_host.reference())?;
    for &n in sizes {
        let fleet = case.fleet(n, &ExecOptions::activepy(), Some(faults));
        case.agrees(&format!("{axis} N={n}"), &fleet)?;
    }
    Ok(case.reference().is_ok())
}
