//! Table I: the applications, their input data sizes, and their
//! single-entry-single-exit code regions.

use super::Band;
use isp_workloads::Workload;
use serde::Serialize;

/// Generated input over the size Table I declares.
const VOLUME: Band = Band {
    what: "generated / Table I volume",
    paper: "Table I's GB",
    lo: 0.99,
    hi: 1.01,
};

/// Fewest SESE code regions an application may have: with fewer the
/// planner has almost no split to choose.
const MIN_SESE_REGIONS: usize = 4;

/// One Table-I row.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Application name.
    pub name: String,
    /// Input size declared in the paper's Table I, GB.
    pub paper_gb: f64,
    /// Input size the generators actually produce at scale 1.0, GB.
    pub generated_gb: f64,
    /// Number of SESE code regions (program lines).
    pub sese_regions: usize,
    /// One-line description.
    pub description: String,
}

/// Builds the table from the workload registry.
#[must_use]
pub fn run() -> Vec<Row> {
    isp_workloads::table1()
        .iter()
        .map(|w: &Workload| {
            let program = w.program().expect("registered workloads parse");
            let generated_gb = w.storage_at(1.0).total_virtual_bytes() as f64 / 1e9;
            Row {
                name: w.name().to_owned(),
                paper_gb: w.table1_gb(),
                generated_gb,
                sese_regions: program.len(),
                description: w.description().to_owned(),
            }
        })
        .collect()
}

/// Prints the table in the paper's layout.
pub fn print(rows: &[Row]) {
    println!("== Table I: applications, input sizes, SESE code regions ==");
    println!(
        "{:<14} {:>9} {:>9} {:>6}  description",
        "name", "paper-GB", "gen-GB", "SESE"
    );
    for r in rows {
        println!(
            "{:<14} {:>9.1} {:>9.2} {:>6}  {}",
            r.name, r.paper_gb, r.generated_gb, r.sese_regions, r.description
        );
    }
}

/// Table I's claims: every generated input within 1 % of the size the
/// paper declares, every program split into at least
/// `MIN_SESE_REGIONS` regions.
///
/// # Errors
///
/// Names the first application outside a band.
pub fn check(rows: &[Row]) -> Result<(), String> {
    for r in rows {
        VOLUME
            .check(r.generated_gb / r.paper_gb)
            .map_err(|e| format!("{}: {e}", r.name))?;
        if r.sese_regions < MIN_SESE_REGIONS {
            return Err(format!(
                "{}: {} SESE regions, fewer than {MIN_SESE_REGIONS}",
                r.name, r.sese_regions
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fails_naming;

    #[test]
    fn generated_sizes_match_paper_sizes() {
        let rows = run();
        assert_eq!(rows.len(), 9);
        assert_eq!(check(&rows), Ok(()));
    }

    fn row(generated_gb: f64, sese_regions: usize) -> Row {
        Row {
            name: "W".to_owned(),
            paper_gb: 10.0,
            generated_gb,
            sese_regions,
            description: String::new(),
        }
    }

    #[test]
    fn check_fails_a_volume_off_table_i_or_too_few_regions() {
        assert_eq!(check(&[row(9.95, 4), row(10.05, 20)]), Ok(()));
        for gb in [9.8, 10.2] {
            fails_naming(
                check(&[row(10.0, 4), row(gb, 4)]),
                "W: generated / Table I volume",
            );
        }
        fails_naming(check(&[row(10.0, 3)]), "W: 3 SESE regions");
    }
}
