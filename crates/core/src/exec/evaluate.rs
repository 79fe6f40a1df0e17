//! What a program computes: the only place the executor runs a [`Vm`].

use super::ExecOptions;
use crate::error::{ActivePyError, Result};
use alang::par::ParStatsSnapshot;
use alang::{Fingerprinter, LineCost, LoweredProgram, Program, Storage, Vm};

/// What `program` computes over `storage` — a function of those two alone
/// (placement, contention, faults and sharding affect only simulated
/// cost), so one `Evaluation` serves every schedule simulated over it: a
/// fleet's N shard runs and its tail, or every candidate of a placement
/// search. Built by [`evaluate`], consumed by [`simulate`](super::simulate).
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Per line, in program order: its cost on the full data, before any
    /// shard scaling. `bytes_out` is the volume of the value the line
    /// produced — the target's `virtual_bytes` once the line has run —
    /// which is the size of that value wherever a later line reads it.
    pub(super) lines: Vec<LineCost>,
    /// Every assigned variable's name and the digest of its final value,
    /// in first-assignment order, through one [`Fingerprinter`]. Bit
    /// patterns, not renderings: `-0.0` and NaN payloads count.
    pub(super) values_fingerprint: u64,
    /// What the kernels counted.
    pub(super) par: ParStatsSnapshot,
}

thread_local! {
    /// How many times [`evaluate`] has run on this thread.
    static EVALUATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times [`evaluate`] has run on the calling thread — what the
/// "one evaluation per logical execution" tests count, here and in the
/// crates whose searches sit on top of this one (where a `cfg(test)` of
/// this crate is off).
#[doc(hidden)]
#[must_use]
pub fn evaluations_on_this_thread() -> u64 {
    EVALUATIONS.with(std::cell::Cell::get)
}

/// Runs `lowered` over `storage`, line by line in program order, under
/// `opts.parallel`, with `kernel.par` spans going to `opts.tracer`. This
/// is the only place the executor constructs a [`Vm`].
///
/// # Errors
///
/// Rejects a lowering whose line count does not match `program` and
/// invalid options (before anything runs); returns the first failing
/// line's evaluation error, annotated with its line.
pub fn evaluate(
    program: &Program,
    lowered: &LoweredProgram,
    storage: &Storage,
    opts: &ExecOptions,
) -> Result<Evaluation> {
    if lowered.len() != program.len() {
        return Err(ActivePyError::exec(format!(
            "lowered program has {} lines, source has {}",
            lowered.len(),
            program.len()
        )));
    }
    opts.validate()?;
    EVALUATIONS.with(|n| n.set(n.get() + 1));
    let mut vm = Vm::with_policy(lowered, storage, opts.parallel);
    vm.set_tracer(opts.tracer.clone());
    let lines = (0..program.len())
        .map(|line| vm.exec_line(line))
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let mut fp = Fingerprinter::default();
    for target in program.targets() {
        match program.scanned_dataset(target) {
            // The variable is the stored value: take the digest the
            // storage keeps with it instead of re-reading the dataset.
            Some(dataset) => fp.var_digest(target, Some(storage.digest(dataset)?)),
            None => fp.var(target, vm.var(target)),
        }
    }
    Ok(Evaluation {
        lines,
        values_fingerprint: fp.finish(),
        par: vm.par_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::*;
    use crate::exec::*;
    use alang::parser::parse;
    use alang::value::ArrayVal;
    use alang::Value;
    use csd_sim::fault::FaultPlan;
    use csd_sim::units::SimTime;
    use csd_sim::SystemConfig;
    use isp_obs::Tracer;

    #[test]
    fn fingerprint_follows_names_and_bits_not_placement() {
        let run = |src: &str, st: &Storage, csd: &[usize]| {
            let opts = ExecOptions::activepy();
            let mut sys = SystemConfig::paper_default().build();
            let pl = placements(csd, 4);
            execute(
                &parse(src).expect("parse"),
                st,
                &pl,
                &mut sys,
                &opts,
                None,
                &[],
            )
            .expect("run")
            .values_fingerprint
        };
        let st = storage();
        let reference = run(SRC, &st, &[]);
        assert_eq!(reference, run(SRC, &st, &[0, 1, 2]));
        // Renaming an intermediate leaves every value alone and still counts.
        let renamed = SRC.replace("b =", "c =").replace("sum(b)", "sum(c)");
        assert_ne!(reference, run(&renamed, &st, &[]));
        // -0.0 < 50 like the 0.0 it replaces, so `m` and `s` stay equal:
        // only the bit pattern of one element of `a` and `b` differs.
        let mut data: Vec<f64> = (0..4096).map(|i| (i % 100) as f64).collect();
        data[0] = -0.0;
        let mut signed = Storage::new();
        signed.insert("v", Value::Array(ArrayVal::with_logical(data, 500_000_000)));
        assert_ne!(reference, run(SRC, &signed, &[]));
    }

    #[test]
    fn one_evaluation_serves_every_schedule() {
        let program = parse(SRC).expect("parse");
        let st = storage();
        let lowered = alang::lower::lower(&program).expect("lower");
        let faults = FaultPlan::none()
            .with_seed(11)
            .with_flash_read_error_prob(0.05)
            .with_nvme_error_prob(0.05)
            .with_dma_error_prob(0.05);
        let schedules = [
            (placements(&[0, 1], 4), ExecOptions::native_static()),
            (placements(&[0, 1, 2, 3], 4), ExecOptions::activepy()),
            (
                placements(&[0, 1, 2, 3], 4),
                ExecOptions::activepy().with_faults(faults),
            ),
        ];
        let evaluation =
            evaluate(&program, &lowered, &st, &ExecOptions::activepy()).expect("evaluate");
        for (pl, opts) in &schedules {
            let mut fresh_sys = SystemConfig::paper_default().build();
            let own = evaluate(&program, &lowered, &st, opts).expect("evaluate");
            let fresh =
                simulate(&program, &own, pl, &mut fresh_sys, opts, None, None).expect("fresh run");
            let mut sys = SystemConfig::paper_default().build();
            let shared =
                simulate(&program, &evaluation, pl, &mut sys, opts, None, None).expect("simulate");
            assert_eq!(shared, fresh, "placements {pl:?}");
            assert_eq!(
                shared.metrics.recovery.transient_faults > 0,
                !opts.faults.is_none(),
                "faults fire exactly where they were planned"
            );
        }
    }

    #[test]
    fn a_failing_line_errors_before_anything_is_simulated_or_traced() {
        let program = parse("a = scan('v')\nb = a + zzz\nc = sum(b)\n").expect("parse");
        let st = storage();
        let pl = placements(&[0], 3);
        let (tracer, sink) = Tracer::to_memory();
        let opts = ExecOptions::activepy().with_tracer(tracer);
        let mut sys = SystemConfig::paper_default().build();
        let e = execute(&program, &st, &pl, &mut sys, &opts, None, &[]).unwrap_err();
        assert_eq!(
            e,
            ActivePyError::Lang(alang::LangError::UnknownVariable {
                line: 2,
                name: "zzz".into()
            })
        );
        assert_eq!(sys.now(), SimTime::ZERO, "no simulated time was charged");
        assert!(sink.is_empty(), "nothing was opened: {:?}", sink.events());
        // The next run recorded through the same tracer starts at the root.
        let healthy = parse(SRC).expect("parse");
        let mut sys = SystemConfig::paper_default().build();
        execute(
            &healthy,
            &st,
            &placements(&[0, 1], 4),
            &mut sys,
            &opts,
            None,
            &[],
        )
        .expect("healthy run");
        let phase = sink
            .events()
            .into_iter()
            .find_map(|e| match e {
                isp_obs::TraceEvent::Span(s) if s.name == "phase.execute" => Some(s),
                _ => None,
            })
            .expect("phase.execute");
        assert_eq!(phase.parent, 0, "stale parent stack: {phase:?}");
    }

    #[test]
    fn lowered_line_count_mismatch_rejected() {
        let program = parse(SRC).expect("parse");
        let short = parse("a = 1\n").expect("parse");
        let lowered = alang::lower::lower(&short).expect("lower");
        let e = evaluate(
            &program,
            &lowered,
            &storage(),
            &ExecOptions::native_static(),
        )
        .unwrap_err();
        assert!(matches!(e, ActivePyError::Exec { .. }));
    }

    #[test]
    fn parallel_policy_is_execution_only() {
        // Same program, serial vs 8-thread kernels over an input large
        // enough to chunk: the chunk grid is the data's, so the reports,
        // chunk counters included, are equal. Only who ran the chunks
        // differs, and each chunked call's span records that.
        let program = parse(SRC).expect("parse");
        let mut st = Storage::new();
        let data: Vec<f64> = (0..16_384).map(|i| (i % 100) as f64).collect();
        st.insert("v", Value::Array(ArrayVal::with_logical(data, 500_000_000)));
        let pl = placements(&[0, 1, 2, 3], 4);
        let run = |opts: ExecOptions| {
            let (tracer, sink) = Tracer::to_memory();
            let mut sys = SystemConfig::paper_default().build();
            let report = execute(
                &program,
                &st,
                &pl,
                &mut sys,
                &opts.with_tracer(tracer),
                None,
                &[],
            )
            .expect("run");
            // The thread counts the chunked kernel calls ran at.
            let mut threads: Vec<_> = sink
                .events()
                .into_iter()
                .filter_map(|e| match e {
                    isp_obs::TraceEvent::Span(s) if s.name == "kernel.par" => {
                        s.attrs.into_iter().find(|(k, _)| k == "threads")
                    }
                    _ => None,
                })
                .map(|(_, v)| v)
                .collect();
            threads.dedup();
            (report, threads)
        };
        let (serial, serial_threads) = run(ExecOptions::activepy());
        let policy = alang::ParallelPolicy::with_threads(8);
        let (par, par_threads) = run(ExecOptions::activepy().with_parallelism(policy));
        assert_eq!(par, serial);
        assert!(
            par.metrics.par.par_calls > 0,
            "a 16 384-element input engages chunking: {:?}",
            par.metrics.par
        );
        // The policy reached the kernels.
        assert_eq!(serial_threads, [isp_obs::AttrValue::U64(1)]);
        assert_eq!(par_threads, [isp_obs::AttrValue::U64(8)]);
    }
}
