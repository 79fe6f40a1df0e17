//! The whole benchmark in one command, and the A/A comparison of two such
//! runs. Every workload runs in a process of its own (so `peak_rss_mb` is
//! per workload), untraced for the end-to-end metrics and again traced for
//! the per-layer metrics.

use crate::catalogue::{Clock, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use isp_obs::journal::{parse_json, JsonValue};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and with what the numbers were measured.
fn provenance(seed: u64, seconds: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let features: Vec<&str> = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .iter()
    .filter_map(|(name, on)| on.then_some(*name))
    .collect();
    format!(
        "{{\"seed\": {seed}, \"run_seconds\": {seconds}, \"min_setups\": {}, \
         \"warmup_rounds\": {}, \"git_sha\": \"{}\", \"nproc\": {}, \"cpu\": \"{}\", \
         \"target\": \"{}-{}\", \"target_features\": \"{}\", \"rustc\": \"{}\"}}",
        crate::driver::MIN_SETUPS,
        crate::driver::WARMUP_ROUNDS,
        command_line("git", &["rev-parse", "HEAD"]),
        std::thread::available_parallelism().map_or(1, usize::from),
        cpu.replace(['"', '\\'], ""),
        std::env::consts::ARCH,
        std::env::consts::OS,
        features.join(","),
        command_line("rustc", &["--version"]),
    )
}

/// Runs this executable on one workload and returns its result line.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", output.status))?;
    Ok((output.status.success(), line.to_owned()))
}

/// Runs all five workloads, prints every metric by name with its unit,
/// writes the collected result to `out`, and reports whether every check
/// passed.
pub fn run_all(seed: u64, seconds: u64, out: &Path) -> Result<bool, String> {
    let mut all_ok = true;
    let mut doc = format!(
        "{{\"provenance\": {},\n \"workloads\": {{",
        provenance(seed, seconds)
    );
    for (i, (workload, _)) in WORKLOADS.iter().enumerate() {
        let (ok_plain, plain) = child(workload, seed, seconds, false)?;
        let (ok_traced, traced) = child(workload, seed, seconds, true)?;
        all_ok &= ok_plain && ok_traced;
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            doc,
            "{comma}\n  \"{workload}\": {{\"untraced\": {plain},\n   \"traced\": {traced}}}"
        );
    }
    doc.push_str("\n }}\n");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, &doc).map_err(|e| format!("{}: {e}", out.display()))?;
    let parsed = parse_json(&doc)?;
    print_table(&parsed);
    println!("result written to {}", out.display());
    Ok(all_ok)
}

fn value_of(doc: &JsonValue, workload: &str, pass: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn clock_name(clock: Clock) -> &'static str {
    match clock {
        Clock::Host => "host",
        Clock::Sim => "sim",
        Clock::Exact => "exact",
    }
}

/// Every metric a workload measured, by name, with unit and clock. A
/// per-layer metric that reads 0 belongs to a layer the workload does not
/// call and is left out.
fn print_table(doc: &JsonValue) {
    for (workload, _) in WORKLOADS {
        let field = |key: &str| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("untraced"))
                .and_then(|w| w.get(key))
        };
        println!(
            "\n== {workload}: attempted {}, failed {}, correct {}",
            field("attempted").and_then(JsonValue::as_u64).unwrap_or(0),
            field("failed").and_then(JsonValue::as_u64).unwrap_or(0),
            field("correct") == Some(&JsonValue::Bool(true)),
        );
        for (pass, table) in [("untraced", &END_TO_END[..]), ("traced", &PER_LAYER[..])] {
            for m in table {
                match value_of(doc, workload, pass, m.name) {
                    Some(v) if v != 0.0 || pass == "untraced" => println!(
                        "  {:<48} {v:>18.4} {:<8} [{}]",
                        m.name,
                        m.unit,
                        clock_name(m.clock)
                    ),
                    _ => {}
                }
            }
        }
    }
}

/// `b` against `a`: how much worse, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    if m.higher {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The A/A table: per metric × workload the two values, how much worse B
/// reads than A (negative = better) and pass/fail — host end-to-end
/// metrics fail when B is worse by more than their bound, sim-clock and
/// exact metrics unless identical. Host per-layer metrics carry no bound
/// and are listed without a verdict.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|text| parse_json(&text))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut all_ok = true;
    println!(
        "| workload | metric | clock | A | B | gap | bound | verdict |\n|---|---|---|---|---|---|---|---|"
    );
    for (workload, _) in WORKLOADS {
        for (pass, table) in [("untraced", &END_TO_END[..]), ("traced", &PER_LAYER[..])] {
            for m in table {
                let (Some(va), Some(vb)) = (
                    value_of(&a, workload, pass, m.name),
                    value_of(&b, workload, pass, m.name),
                ) else {
                    all_ok = false;
                    println!("| {workload} | {} | | | | | | MISSING |", m.name);
                    continue;
                };
                if va == 0.0 && vb == 0.0 {
                    continue;
                }
                let gap = worsening(m, va, vb);
                let (bound, verdict) = match (m.clock, pass) {
                    (Clock::Host, "untraced") => (
                        format!("{}", m.bound),
                        if gap <= m.bound { "pass" } else { "FAIL" },
                    ),
                    (Clock::Host, _) => ("-".to_owned(), "-"),
                    _ => (
                        "exact".to_owned(),
                        if va.to_bits() == vb.to_bits() {
                            "pass"
                        } else {
                            "FAIL"
                        },
                    ),
                };
                all_ok &= verdict != "FAIL";
                println!(
                    "| {workload} | {} | {} | {va:.6} | {vb:.6} | {:+.2}% | {bound} | {verdict} |",
                    m.name,
                    clock_name(m.clock),
                    gap * 100.0
                );
            }
        }
        for pass in ["untraced", "traced"] {
            for doc in [&a, &b] {
                let run = doc
                    .get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get(pass));
                let failed = run
                    .and_then(|r| r.get("failed"))
                    .and_then(JsonValue::as_u64);
                let correct = run.and_then(|r| r.get("correct")) == Some(&JsonValue::Bool(true));
                if failed != Some(0) || !correct {
                    all_ok = false;
                    println!("| {workload} | failed_ops ({pass}) | exact | | | | 0 | FAIL |");
                }
            }
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue;

    #[test]
    fn worsening_is_direction_aware() {
        let up = catalogue::find("ops_per_s").expect("metric");
        let down = catalogue::find("op_ms_p50").expect("metric");
        assert!((worsening(up, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(up, 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert!((worsening(down, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(down, 0.0, 0.0), 0.0);
    }

    #[test]
    fn provenance_is_valid_json_with_the_frozen_settings() {
        let p = parse_json(&provenance(7, 12)).expect("valid JSON");
        assert_eq!(p.get("seed").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(p.get("run_seconds").and_then(JsonValue::as_u64), Some(12));
        for key in ["git_sha", "cpu", "rustc", "target_features", "nproc"] {
            assert!(p.get(key).is_some(), "{key}");
        }
    }
}
