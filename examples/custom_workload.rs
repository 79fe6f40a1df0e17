//! Bring your own workload: define a new application (a fraud-screening
//! pipeline over stored transactions), register its data generator, and
//! let ActivePy place it — the workflow a downstream user of this library
//! follows.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use activepy::runtime::ActivePy;
use alang::shape::StoredReads;
use alang::table::{Column, Table};
use alang::{Storage, Value};
use csd_sim::{ContentionScenario, SystemConfig};
use isp_workloads::spec::Workload;
use std::sync::Arc;

/// Transactions: amount, merchant risk score, hour-of-day, country code —
/// 32 bytes per row, 4 GB of them.
fn transactions(scale: f64) -> Storage {
    const ROWS: usize = 4096;
    let logical = ((scale * 4e9 / 32.0) as u64).max(ROWS as u64);
    let mut amount = Vec::with_capacity(ROWS);
    let mut risk = Vec::with_capacity(ROWS);
    let mut hour = Vec::with_capacity(ROWS);
    let mut country = Vec::with_capacity(ROWS);
    // A cheap deterministic generator keeps the example dependency-free.
    let mut x: u64 = 0x243F_6A88_85A3_08D3 ^ scale.to_bits();
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..ROWS {
        amount.push((next() % 100_000) as f64 / 100.0);
        risk.push((next() % 1000) as f64 / 1000.0);
        hour.push((next() % 24) as f64);
        country.push((next() % 40) as f64);
    }
    let table = Table::with_logical_rows(
        vec![
            ("amount".into(), Column::F64(Arc::new(amount))),
            ("risk".into(), Column::F64(Arc::new(risk))),
            ("hour".into(), Column::F64(Arc::new(hour))),
            ("country".into(), Column::F64(Arc::new(country))),
        ],
        logical,
    )
    .expect("columns are equal-length");
    let mut st = Storage::new();
    st.insert("txns", Value::Table(table));
    st
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The screening rules, written like any analyst would: no device code.
    let source = "\
t = scan('txns')
r = col(t, 'risk')
m1 = r > 0.8
h = col(t, 'hour')
m2 = h < 6
a = col(t, 'amount')
m3 = a > 500
m = m1 and m2 and m3
hits = filter(t, m)
flagged = col(hits, 'amount')
exposure = sum(flagged)
worst = maxv(flagged)
";
    let workload = Workload::new(
        "fraud-screen",
        4.0,
        "night-time high-risk high-value transaction screening",
        source,
        // Every column at every scale: a generator may instead leave zeros
        // in the columns the `StoredReads` says a sample run never reads.
        Arc::new(|scale: f64, _: &StoredReads| transactions(scale)),
    );

    let config = SystemConfig::paper_default();
    let program = workload.program()?;
    let rt = ActivePy::new();
    let plan = rt.plan(&program, &workload, &config)?;
    let outcome = rt.execute_plan(&plan, &config, ContentionScenario::none())?;

    println!(
        "fraud-screen: {} lines, {} offloaded to the CSD",
        program.len(),
        plan.assignment.csd_lines.len()
    );
    for (pred, line) in plan.predictions.iter().zip(program.lines()) {
        println!(
            "  line {:>2} [{}] {:<28} fit {} -> {:>12} B out",
            line.index,
            if plan.assignment.csd_lines.contains(&line.index) {
                "CSD "
            } else {
                "host"
            },
            line.source.chars().take(28).collect::<String>(),
            pred.compute_curve.complexity,
            pred.cost.bytes_out,
        );
    }
    println!(
        "\nend-to-end {:.3}s (projected all-host {:.3}s, projected split {:.3}s)",
        outcome.report.total_secs, plan.assignment.t_host, plan.assignment.t_csd
    );
    Ok(())
}
