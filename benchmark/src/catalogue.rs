//! The benchmark's vocabulary: workloads and metrics, with unit, clock,
//! direction and bound. `BENCHMARK.json` is rendered from these tables
//! (`isp-benchmark manifest`) and a test keeps the committed file equal to
//! that rendering, so the contract file and the driver cannot drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What one measured run of the driver lasts, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// What our Rust takes on the measuring host.
    Host,
    /// What the modelled CSD platform takes: deterministic, repeats exactly.
    Sim,
    /// A count or ratio of counts: repeats exactly.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    pub clock: Clock,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    clock: Clock,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        higher,
        clock,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        higher,
        clock,
        bound: 0.0,
    }
}

pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "plan_cold",
        "12 uncached plans per round: datagen and sampling do the work, the executor none; the paper's pipeline overhead",
    ),
    (
        "exec_sweep",
        "40 plan executions per round on 4096-row data: core.exec, csd_sim and the monitor do the work, planning none",
    ),
    (
        "durable_exec",
        "the same plans under seeded transient faults with WAL, tracer and profile observers, resume and journal replay",
    ),
    (
        "bulk_decode",
        "2 MiB gzip/zlib/shuffled columns through the VM and the codec directly: csd_sim::wire does the work, no planner",
    ),
    (
        "bulk_kernels",
        "six plain programs over 2^18-element inputs, serial and nproc threads: lang kernels do the work, no codec or executor",
    ),
];

/// Host bounds are what the reference VM resolves, not what one would
/// like: between identical runs a round's plain median moved 15–40 % as
/// neighbours came and went, and even the best-time estimators below
/// moved up to 23 % through a slow phase lasting minutes (README,
/// "Steadiness"). `setup_s` carries the largest bound, as the benchmark
/// contract asks. The sim-clock metrics read `sim_s`/`x`/`ppm`, not `s`:
/// they repeat exactly by construction and must not be mistaken for host
/// timings; `sim_speedup_drop` alone moves with the seed-drawn drop point
/// (0.92–1.01 over 40 seeds).
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", false, Clock::Host, 0.25),
    e2e("ops_per_s", "1/s", true, Clock::Host, 0.24),
    e2e("op_ms_p50", "ms", false, Clock::Host, 0.24),
    e2e("peak_rss_mb", "MB", false, Clock::Host, 0.15),
    e2e("sim_speedup_clean", "x", true, Clock::Sim, 0.01),
    e2e("sim_speedup_drop", "x", true, Clock::Sim, 0.15),
    e2e("eq1_err_ppm", "ppm", false, Clock::Sim, 0.01),
    e2e("sim_pipeline_overhead_s", "sim_s", false, Clock::Sim, 0.01),
];

/// The line kinds `lang.builtins.melem_per_s.*` is reported for.
pub const LINE_KINDS: [&str; 14] = [
    "compare",
    "and",
    "select",
    "filter",
    "sum",
    "mean",
    "arith",
    "transcendental",
    "groupby",
    "to_csr",
    "spmv",
    "kmeans_step",
    "matmul",
    "decode",
];

pub const PER_LAYER: [Metric; 90] = [
    layer("lang.parser.lines_per_s", "lines/s", true, Clock::Host),
    layer("lang.lower.lines_per_s", "lines/s", true, Clock::Host),
    layer("lang.lower.instrs", "count", false, Clock::Exact),
    layer("workloads.datagen.ms_per_plan", "ms", false, Clock::Host),
    layer(
        "workloads.datagen.calls_per_plan",
        "count",
        false,
        Clock::Exact,
    ),
    layer("core.sampling.self_ms_per_plan", "ms", false, Clock::Host),
    layer("core.sampling.share", "%", false, Clock::Host),
    layer("core.fit.us_per_plan", "us", false, Clock::Host),
    layer("core.fit.lines_per_s", "lines/s", true, Clock::Host),
    layer("core.estimate.us_per_plan", "us", false, Clock::Host),
    layer("core.assign.us_per_plan", "us", false, Clock::Host),
    layer("core.plan.cache_hit_ns", "ns", false, Clock::Host),
    layer("core.plan.warm_load_ms", "ms", false, Clock::Host),
    layer("core.plan.replan_us", "us", false, Clock::Host),
    layer(
        "core.exec.ms_per_cell.activepy_clean",
        "ms",
        false,
        Clock::Host,
    ),
    layer(
        "core.exec.ms_per_cell.activepy_drop",
        "ms",
        false,
        Clock::Host,
    ),
    layer("core.exec.ms_per_cell.static_c", "ms", false, Clock::Host),
    layer("core.exec.ms_per_cell.fleet4", "ms", false, Clock::Host),
    layer(
        "core.exec.ms_per_cell.plain_faulted",
        "ms",
        false,
        Clock::Host,
    ),
    layer("core.exec.ms_per_cell.journaled", "ms", false, Clock::Host),
    layer("core.exec.vm_ratio", "x", false, Clock::Host),
    layer("core.exec.sim_lines_per_s", "lines/s", true, Clock::Host),
    layer("core.exec.migrations", "count", false, Clock::Exact),
    layer("core.exec.reclaims", "count", false, Clock::Exact),
    layer("core.recovery.retries", "count", false, Clock::Exact),
    layer("csd-sim.system.build_us", "us", false, Clock::Host),
    layer("csd-sim.system.calls_per_s", "1/s", true, Clock::Host),
    layer("core.audit.calibrate_us", "us", false, Clock::Host),
    layer("core.audit.lines_audited", "count", true, Clock::Exact),
    layer("core.audit.flips", "count", false, Clock::Exact),
    layer("baselines.c_baseline_ms", "ms", false, Clock::Host),
    layer("obs.wal.appends_per_s", "1/s", true, Clock::Host),
    layer("obs.wal.read_mb_per_s", "MB/s", true, Clock::Host),
    layer("obs.wal.records_per_exec", "count", false, Clock::Exact),
    layer("obs.wal.bytes_per_exec", "B", false, Clock::Exact),
    layer("obs.span.events_per_s", "1/s", true, Clock::Host),
    layer("obs.span.events_per_exec", "count", false, Clock::Exact),
    layer("obs.export.jsonl_lines_per_s", "lines/s", true, Clock::Host),
    layer(
        "obs.journal.parse_lines_per_s",
        "lines/s",
        true,
        Clock::Host,
    ),
    layer("obs.journal.diff_ms", "ms", false, Clock::Host),
    layer("obs.export.prometheus_us", "us", false, Clock::Host),
    layer("core.resume.ms_per_resume", "ms", false, Clock::Host),
    layer("core.resume.ratio", "x", false, Clock::Host),
    layer("obs.observer_overhead_pct", "%", false, Clock::Host),
    layer("csd-sim.wire.inflate_mb_per_s", "MB/s", true, Clock::Host),
    layer("csd-sim.wire.deflate_mb_per_s", "MB/s", true, Clock::Host),
    layer("csd-sim.wire.unshuffle_mb_per_s", "MB/s", true, Clock::Host),
    layer("csd-sim.wire.crc32_mb_per_s", "MB/s", true, Clock::Host),
    layer(
        "csd-sim.wire.decode_mb_per_s.gzip_shuffle",
        "MB/s",
        true,
        Clock::Host,
    ),
    layer(
        "csd-sim.wire.decode_mb_per_s.be_shuffle_fill",
        "MB/s",
        true,
        Clock::Host,
    ),
    layer(
        "csd-sim.wire.decode_mb_per_s.zlib_plain",
        "MB/s",
        true,
        Clock::Host,
    ),
    layer(
        "csd-sim.wire.decode_mb_per_s.raw",
        "MB/s",
        true,
        Clock::Host,
    ),
    layer("csd-sim.wire.compression_ratio", "x", true, Clock::Exact),
    layer("lang.bytecode.ns_per_line", "ns", false, Clock::Host),
    layer("lang.interp.ns_per_line", "ns", false, Clock::Host),
    layer(
        "lang.builtins.melem_per_s.compare",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.and",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.select",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.filter",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.sum",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.mean",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.arith",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.transcendental",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.groupby",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.to_csr",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.spmv",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.kmeans_step",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.matmul",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer(
        "lang.builtins.melem_per_s.decode",
        "Melem/s",
        true,
        Clock::Host,
    ),
    layer("lang.simd.sum8_melem_per_s", "Melem/s", true, Clock::Host),
    layer("lang.simd.dot8_melem_per_s", "Melem/s", true, Clock::Host),
    layer("lang.simd.speedup_vs_ref.sum8", "x", true, Clock::Host),
    layer("lang.simd.speedup_vs_ref.dot8", "x", true, Clock::Host),
    layer("lang.par.speedup_nproc.q6_plain", "x", true, Clock::Host),
    layer("lang.par.speedup_nproc.q1_groupby", "x", true, Clock::Host),
    layer(
        "lang.par.speedup_nproc.blackscholes",
        "x",
        true,
        Clock::Host,
    ),
    layer("lang.par.speedup_nproc.sparsemv", "x", true, Clock::Host),
    layer("lang.par.speedup_nproc.kmeans", "x", true, Clock::Host),
    layer("lang.par.speedup_nproc.matrixmul", "x", true, Clock::Host),
    layer("lang.par.par_calls", "count", true, Clock::Exact),
    layer("lang.par.chunks", "count", true, Clock::Exact),
    layer("driver.rounds_timed", "count", true, Clock::Host),
    layer("driver.round_ms_p50", "ms", false, Clock::Host),
    layer("driver.ops_per_s_wall", "1/s", true, Clock::Host),
    layer("driver.round_ms_tail", "ms", false, Clock::Host),
    layer("driver.round_ms_tail_pct", "%", true, Clock::Host),
    layer("driver.trace_overhead_pct", "%", false, Clock::Host),
    layer("driver.attributed_pct", "%", true, Clock::Host),
    layer("driver.dominant_layer_pct", "%", true, Clock::Host),
    layer("paper.fig4_gap_pct", "%", false, Clock::Sim),
];

/// Values measured by one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

fn json_metric_list(out: &mut String, key: &str, metrics: &[Metric], bounded: bool) {
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, m) in metrics.iter().enumerate() {
        let better = if m.higher { "higher" } else { "lower" };
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            m.name, m.unit
        );
        if bounded {
            let _ = write!(out, ", \"bound\": {}", m.bound);
        }
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        let _ = writeln!(out, "}}{comma}");
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n");
    json_metric_list(&mut out, "end_to_end", &END_TO_END, true);
    out.push_str("  ],\n");
    json_metric_list(&mut out, "per_layer", &PER_LAYER, false);
    out.push_str("  ]\n}\n");
    out
}

/// Looks a metric up in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for kind in LINE_KINDS {
            let name = format!("lang.builtins.melem_per_s.{kind}");
            assert!(find(&name).is_some(), "{name}");
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `bash benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }
}
