//! `durable_exec`: the executor used the other way round — observers
//! writing beside the run. The same 12 plans under a seeded transient
//! fault plan, bare, then with WAL + tracer + profile recorder attached,
//! then resumed from a cut WAL, then replayed through the journal tools.
//! A gain for `exec_sweep` that costs the WAL/tracer/resume path shows
//! here. WAL files live under `benchmark/out`: this measures the writer's
//! CPU and syscalls, not device durability.

use crate::catalogue::Values;
use crate::driver::{Ctx, Round, Trace, Workload, OP_SPAN};
use crate::rng::Rng;
use crate::stats;
use crate::stats::median_secs;
use crate::workloads::exec_sweep::{PlanSet, Planned};
use activepy::runtime::{ActivePy, ActivePyOptions};
use activepy::{ExecJournal, ProfileRecorder, ProfileStore, RunReport};
use csd_sim::fault::FaultPlan;
use csd_sim::ContentionScenario;
use isp_obs::export::{self, prometheus};
use isp_obs::wal::{read_wal, WalRecord, WalWriter};
use isp_obs::{diff_journals, parse_journal, Journal, SpanKind, Tracer};
use std::path::PathBuf;
use std::sync::Arc;

/// Per-access probability of each transient fault family.
const FAULT_PROB: f64 = 0.05;
const PLAIN_SPAN: &str = "core.exec.plain_faulted";
const JOURNALED_SPAN: &str = "core.exec.journaled";
const RESUME_OPEN_SPAN: &str = "core.resume.open";
const RESUMED_SPAN: &str = "core.resume.reexecute";
const WAL_READ_SPAN: &str = "obs.wal.read";
const JSONL_SPAN: &str = "obs.export.jsonl";
const PARSE_SPAN: &str = "obs.journal.parse";
const DIFF_SPAN: &str = "obs.journal.diff";
const PROM_SPAN: &str = "obs.export.prometheus";

pub struct DurableExec {
    set: PlanSet,
    faults: FaultPlan,
    faulted: ActivePy,
    store: Arc<ProfileStore>,
    wal: PathBuf,
    /// Seed-drawn share of each plan's WAL that survives the crash.
    keep: Vec<f64>,
    /// Each plan's journal from the previous round, to diff against.
    previous: Vec<Option<Journal>>,
}

impl DurableExec {
    fn options(&self) -> ActivePyOptions {
        ActivePyOptions::default().with_faults(self.faults.clone())
    }

    fn execute(&self, rt: &ActivePy, p: &Planned) -> Result<RunReport, String> {
        rt.execute_plan(&p.plan, &self.set.config, ContentionScenario::none())
            .map(|o| o.report)
            .map_err(|e| e.to_string())
    }
}

/// What one plan's four cells add to the round's exact counts.
#[derive(Default)]
struct Counts {
    retries: u64,
    migrations: u64,
    wal_records: u64,
    wal_bytes: u64,
    events: u64,
    jsonl_lines: u64,
}

impl Counts {
    fn tally(&mut self, report: &Result<RunReport, String>) {
        if let Ok(r) = report {
            self.retries += r.metrics.recovery.retries;
            self.migrations += r.migrations.len() as u64;
        }
    }
}

impl Workload for DurableExec {
    const NAME: &'static str = "durable_exec";
    const DOMINANT_LAYERS: &'static [&'static str] = &["core.exec", "core.resume"];

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let set = PlanSet::build(ctx.seed, &ctx.spans)?;
        let faults = FaultPlan::none()
            .with_seed(Rng::new(ctx.seed, 3).next_u64())
            .with_flash_read_error_prob(FAULT_PROB)
            .with_nvme_error_prob(FAULT_PROB)
            .with_dma_error_prob(FAULT_PROB);
        faults.validate()?;
        let mut cut = Rng::new(ctx.seed, 4);
        Ok(DurableExec {
            keep: set.planned.iter().map(|_| 0.1 + 0.8 * cut.unit()).collect(),
            previous: set.planned.iter().map(|_| None).collect(),
            faulted: ActivePy::with_options(ActivePyOptions::default().with_faults(faults.clone())),
            faults,
            store: Arc::new(ProfileStore::new()),
            wal: ctx
                .out_dir
                .join(format!("durable.{}.wal", std::process::id())),
            set,
        })
    }

    fn round(&mut self, ctx: &Ctx) -> Round {
        let spans = &ctx.spans;
        let mut round = Round::default();
        let mut counts = Counts::default();
        let base = spans.op();
        for &i in &self.set.order {
            let p = &self.set.planned[i];
            let answers = |r: &Result<RunReport, String>| {
                r.as_ref()
                    .is_ok_and(|r| r.values_fingerprint == p.fingerprint)
            };
            spans.set_op(base | i as u64);

            // plain_faulted: faults and recovery, no observer.
            let plain = {
                let _op = spans.enter(OP_SPAN);
                spans.time(PLAIN_SPAN, || self.execute(&self.faulted, p))
            };
            round.op(answers(&plain));
            counts.tally(&plain);

            // journaled: WAL + in-memory tracer + profile recorder.
            let (tracer, sink) = Tracer::to_memory();
            let journaled = {
                let _op = spans.enter(OP_SPAN);
                spans.time(JOURNALED_SPAN, || {
                    let journal = ExecJournal::record_to(&self.wal).map_err(|e| e.to_string())?;
                    let rt = ActivePy::with_options(
                        self.options()
                            .with_journal(journal)
                            .with_tracer(tracer.clone())
                            .with_profile(ProfileRecorder::to_store(
                                Arc::clone(&self.store),
                                (p.app.name().to_owned(), 0),
                            )),
                    );
                    self.execute(&rt, p)
                })
            };
            round.op(answers(&journaled));
            counts.tally(&journaled);
            let full = std::fs::read(&self.wal).unwrap_or_default();
            counts.wal_bytes += full.len() as u64;
            counts.events += sink.len() as u64;

            // resumed: crash at a seed-drawn byte, reopen, re-execute. The
            // resumed journal must end byte-identical to the uninterrupted one.
            let resumed = {
                let _op = spans.enter(OP_SPAN);
                let keep = (full.len() as f64 * self.keep[i]) as usize;
                std::fs::write(&self.wal, &full[..keep])
                    .map_err(|e| e.to_string())
                    .and_then(|()| {
                        let (journal, _) = spans
                            .time(RESUME_OPEN_SPAN, || ExecJournal::resume_from(&self.wal))
                            .map_err(|e| e.to_string())?;
                        let rt =
                            ActivePy::with_options(self.options().with_journal(journal.clone()));
                        let report = spans.time(RESUMED_SPAN, || self.execute(&rt, p))?;
                        let caught_up = journal.stats().is_some_and(|s| s.pending == 0);
                        drop(rt);
                        drop(journal);
                        let rewritten = std::fs::read(&self.wal).map_err(|e| e.to_string())?;
                        if caught_up && rewritten == full {
                            Ok(report)
                        } else {
                            Err("the resumed journal differs from the uninterrupted one".into())
                        }
                    })
            };
            round.op(answers(&resumed));
            counts.tally(&resumed);

            // replayed: read the WAL back, export the trace, parse it, diff
            // it against the previous round's, render the metrics.
            let replayed = {
                let _op = spans.enter(OP_SPAN);
                let wal = spans.time(WAL_READ_SPAN, || read_wal(&self.wal));
                let snapshot = tracer.metrics_snapshot();
                let text = spans.time(JSONL_SPAN, || {
                    export::jsonl(&sink.events(), snapshot.as_ref(), false)
                });
                let journal = spans.time(PARSE_SPAN, || parse_journal(&text));
                let exposition = spans.time(PROM_SPAN, || {
                    snapshot
                        .as_ref()
                        .map(prometheus::render)
                        .unwrap_or_default()
                });
                let ok = match (&wal, &journal) {
                    (Ok(wal), Ok(journal)) => {
                        counts.wal_records += wal.records.len() as u64;
                        counts.jsonl_lines += text.lines().count() as u64;
                        let same = spans.time(DIFF_SPAN, || {
                            diff_journals(self.previous[i].as_ref().unwrap_or(journal), journal)
                                .identical()
                        });
                        same && !wal.torn
                            && matches!(wal.records.last(), Some(WalRecord::RunEnd { fingerprint, .. })
                                if *fingerprint == p.fingerprint)
                            && !exposition.is_empty()
                    }
                    _ => false,
                };
                self.previous[i] = journal.ok();
                ok
            };
            round.op(replayed);
        }
        let plans = self.set.planned.len() as f64;
        round.exact = Values::from([
            ("core.recovery.retries", counts.retries as f64),
            ("core.exec.migrations", counts.migrations as f64),
            (
                "obs.wal.records_per_exec",
                counts.wal_records as f64 / plans,
            ),
            ("obs.wal.bytes_per_exec", counts.wal_bytes as f64 / plans),
            ("obs.span.events_per_exec", counts.events as f64 / plans),
            ("obs.export.jsonl_lines", counts.jsonl_lines as f64),
        ]);
        round
    }

    fn layers(&mut self, ctx: &Ctx, trace: &Trace, out: &mut Values) {
        let per_call = |name: &str, scale: f64| {
            let t = trace.totals(name);
            t.total_secs() * scale / t.count.max(1) as f64
        };
        out.insert(
            "core.exec.ms_per_cell.plain_faulted",
            per_call(PLAIN_SPAN, 1e3),
        );
        out.insert(
            "core.exec.ms_per_cell.journaled",
            per_call(JOURNALED_SPAN, 1e3),
        );
        let resume_ms = per_call(RESUME_OPEN_SPAN, 1e3) + per_call(RESUMED_SPAN, 1e3);
        out.insert("core.resume.ms_per_resume", resume_ms);
        out.insert(
            "core.resume.ratio",
            resume_ms / per_call(JOURNALED_SPAN, 1e3),
        );

        // Observer cost per plan, from the medians of the traced rounds.
        let plain = trace.median_secs_by_op(PLAIN_SPAN);
        let journaled = trace.median_secs_by_op(JOURNALED_SPAN);
        let ratios: Vec<f64> = plain
            .iter()
            .filter_map(|(op, p)| journaled.get(op).map(|j| j / p))
            .collect();
        out.insert(
            "obs.observer_overhead_pct",
            (stats::geomean(&ratios) - 1.0) * 100.0,
        );

        let rounds = trace.rounds as f64;
        let plans = self.set.planned.len() as f64;
        out.insert(
            "obs.wal.read_mb_per_s",
            trace.exact["obs.wal.bytes_per_exec"] * plans * rounds
                / 1e6
                / trace.totals(WAL_READ_SPAN).total_secs(),
        );
        let lines = trace.exact["obs.export.jsonl_lines"] * rounds;
        out.insert(
            "obs.export.jsonl_lines_per_s",
            lines / trace.totals(JSONL_SPAN).total_secs(),
        );
        out.insert(
            "obs.journal.parse_lines_per_s",
            lines / trace.totals(PARSE_SPAN).total_secs(),
        );
        out.insert("obs.journal.diff_ms", per_call(DIFF_SPAN, 1e3));
        out.insert("obs.export.prometheus_us", per_call(PROM_SPAN, 1e6));

        // The two observer primitives on their own.
        const APPENDS: u64 = 20_000;
        let path = ctx
            .out_dir
            .join(format!("probe.{}.wal", std::process::id()));
        let secs = median_secs(5, || {
            let mut writer = WalWriter::create(&path).expect("probe WAL inside the checkout");
            for n in 0..APPENDS {
                let rec = WalRecord::PlanCommit {
                    lane: 0,
                    plan_fp: n,
                    shard_fp: 0,
                };
                writer.append(&rec).expect("append to the probe WAL");
            }
        });
        std::fs::remove_file(&path).ok();
        out.insert("obs.wal.appends_per_s", APPENDS as f64 / secs);
        const EVENTS: u64 = 50_000;
        let secs = median_secs(5, || {
            let (tracer, sink) = Tracer::to_memory();
            for _ in 0..EVENTS {
                let span = tracer.begin("probe", SpanKind::Phase, None);
                tracer.end(span, None);
            }
            std::hint::black_box(sink.len());
        });
        out.insert("obs.span.events_per_s", EVENTS as f64 / secs);
    }
}

impl Drop for DurableExec {
    fn drop(&mut self) {
        std::fs::remove_file(&self.wal).ok();
    }
}
