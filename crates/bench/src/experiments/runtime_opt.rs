//! §V, "ActivePy's optimizations in its language runtime": the three-tier
//! ladder between plain interpretation and C.
//!
//! Paper results (host-only, no ISP): the unoptimized Python baseline is
//! 41 % slower than the C baseline; Cython-style compilation shrinks the
//! gap to 20 %; eliminating the redundant memory copies makes the Python
//! program match C, modulo ≈1 % compilation overhead.

use super::Band;
use crate::mean;
use alang::compile::compile_secs_for;
use alang::ExecTier;
use csd_sim::SystemConfig;
use isp_baselines::run_host_only;
use serde::Serialize;

/// Mean slowdown of plain interpretation over C.
const INTERPRETED: Band = Band {
    what: "interpreted mean",
    paper: "1.41 (41 % slower)",
    lo: 1.26,
    hi: 1.56,
};

/// Mean slowdown of the compiled tier over C.
const COMPILED: Band = Band {
    what: "compiled mean",
    paper: "1.20 (20 % slower)",
    lo: 1.12,
    hi: 1.28,
};

/// Mean slowdown of the copy-eliminated tier over C.
const COPY_ELIM: Band = Band {
    what: "copy-eliminated mean",
    paper: "≈ 1.01 (C parity)",
    lo: 0.99,
    hi: 1.02,
};

/// Compilation overhead over the native run, per workload.
const COMPILE_OVERHEAD: Band = Band {
    what: "compile overhead",
    paper: "≈ 1 %",
    lo: 0.0,
    hi: 0.05,
};

/// One workload's ladder.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Workload name.
    pub name: String,
    /// C baseline, seconds.
    pub native_secs: f64,
    /// Interpreted / C slowdown.
    pub interpreted_ratio: f64,
    /// Cython-compiled / C slowdown.
    pub compiled_ratio: f64,
    /// Copy-eliminated / C slowdown.
    pub copy_elim_ratio: f64,
    /// Compilation overhead as a fraction of the native run.
    pub compile_overhead_ratio: f64,
}

/// Runs the ladder over the nine Table-I workloads.
///
/// # Panics
///
/// Panics if a registered workload fails to run.
#[must_use]
pub fn run(config: &SystemConfig) -> Vec<Row> {
    crate::sweep::run_grid(isp_workloads::table1(), |w| {
        let native = run_host_only(&w, config, ExecTier::Native)
            .expect("native")
            .total_secs;
        let interp = run_host_only(&w, config, ExecTier::Interpreted)
            .expect("interpreted")
            .total_secs;
        let compiled = run_host_only(&w, config, ExecTier::Compiled)
            .expect("compiled")
            .total_secs;
        let elim = run_host_only(&w, config, ExecTier::CompiledCopyElim)
            .expect("copy-elim")
            .total_secs;
        let lines = w.program().expect("parse").len();
        Row {
            name: w.name().to_owned(),
            native_secs: native,
            interpreted_ratio: interp / native,
            compiled_ratio: compiled / native,
            copy_elim_ratio: elim / native,
            compile_overhead_ratio: compile_secs_for(lines) / native,
        }
    })
}

/// Prints the ladder.
pub fn print(rows: &[Row]) {
    println!("== Runtime optimizations: slowdown vs the C baseline (host only) ==");
    println!(
        "{:<14} {:>8} {:>9} {:>9} {:>10} {:>10}",
        "workload", "C-base", "python/C", "cython/C", "copyelim/C", "compile%"
    );
    for r in rows {
        println!(
            "{:<14} {:>7.2}s {:>9.3} {:>9.3} {:>10.3} {:>9.2}%",
            r.name,
            r.native_secs,
            r.interpreted_ratio,
            r.compiled_ratio,
            r.copy_elim_ratio,
            r.compile_overhead_ratio * 100.0
        );
    }
    let i: Vec<f64> = rows.iter().map(|r| r.interpreted_ratio).collect();
    let c: Vec<f64> = rows.iter().map(|r| r.compiled_ratio).collect();
    let e: Vec<f64> = rows.iter().map(|r| r.copy_elim_ratio).collect();
    println!(
        "mean: python {:.2} (paper 1.41), cython {:.2} (paper 1.20), copy-elim {:.2} (paper ~1.01)",
        mean(&i),
        mean(&c),
        mean(&e)
    );
}

/// §V's ladder: on every row copy elimination is no slower than
/// compilation, which is faster than interpretation, and the compile
/// overhead sits inside `COMPILE_OVERHEAD`; the three means sit inside
/// their bands around the paper's.
///
/// # Errors
///
/// Names the first workload or mean that fails.
pub fn check(rows: &[Row]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("no rows".to_owned());
    }
    for r in rows {
        if !(r.copy_elim_ratio <= r.compiled_ratio && r.compiled_ratio < r.interpreted_ratio) {
            return Err(format!(
                "{}: ladder out of order: python {:.4}, cython {:.4}, copy-elim {:.4}",
                r.name, r.interpreted_ratio, r.compiled_ratio, r.copy_elim_ratio
            ));
        }
        COMPILE_OVERHEAD
            .check(r.compile_overhead_ratio)
            .map_err(|e| format!("{}: {e}", r.name))?;
    }
    let tier_mean = |tier: fn(&Row) -> f64| mean(&rows.iter().map(tier).collect::<Vec<_>>());
    INTERPRETED.check(tier_mean(|r| r.interpreted_ratio))?;
    COMPILED.check(tier_mean(|r| r.compiled_ratio))?;
    COPY_ELIM.check(tier_mean(|r| r.copy_elim_ratio))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fails_naming;

    #[test]
    fn ladder_means_land_near_the_paper() {
        let rows = run(&SystemConfig::paper_default());
        assert_eq!(rows.len(), 9);
        assert_eq!(check(&rows), Ok(()));
    }

    /// The paper's ladder, exactly.
    fn row() -> Row {
        Row {
            name: "W".to_owned(),
            native_secs: 2.0,
            interpreted_ratio: 1.41,
            compiled_ratio: 1.20,
            copy_elim_ratio: 1.01,
            compile_overhead_ratio: 0.01,
        }
    }

    fn edited(edit: impl FnOnce(&mut Row)) -> Result<(), String> {
        let mut r = row();
        edit(&mut r);
        check(&[r])
    }

    #[test]
    fn check_fails_a_row_outside_each_claim() {
        assert_eq!(check(&[row()]), Ok(()));
        let order = "W: ladder out of order";
        fails_naming(edited(|r| r.copy_elim_ratio = 1.21), order);
        fails_naming(edited(|r| r.compiled_ratio = 1.41), order);
        fails_naming(
            edited(|r| r.compile_overhead_ratio = 0.06),
            "W: compile overhead",
        );
        fails_naming(
            edited(|r| r.interpreted_ratio = 1.6),
            "interpreted mean 1.6000",
        );
        fails_naming(
            edited(|r| r.interpreted_ratio = 1.25),
            "interpreted mean 1.2500",
        );
        fails_naming(edited(|r| r.compiled_ratio = 1.3), "compiled mean 1.3000");
        fails_naming(edited(|r| r.compiled_ratio = 1.1), "compiled mean 1.1000");
        fails_naming(
            edited(|r| r.copy_elim_ratio = 1.03),
            "copy-eliminated mean 1.0300",
        );
        fails_naming(
            edited(|r| r.copy_elim_ratio = 0.98),
            "copy-eliminated mean 0.9800",
        );
    }
}
