//! The sim-clock panel: the four end-to-end values that read the modelled
//! platform's clock. They are a property of the build and the seed, not of
//! the workload being timed, so every workload measures them once, before
//! set-up and outside `setup_s`, from the same 12 plans.

use crate::spans::Spans;
use crate::workloads::exec_sweep::{eq1_err_ppm, ppm, sim_speedup, PlanSet};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Panel {
    /// Geomean over the Table-I programs of C-baseline ÷ ActivePy
    /// seconds, CSD fully available (Fig. 4; the paper prints 1.34×).
    pub sim_speedup_clean: f64,
    /// The same ratio when availability drops to 10 % mid-run and the
    /// monitor migrates (Fig. 5's cell).
    pub sim_speedup_drop: f64,
    /// Mean clean Eq. 1 calibration error over the 12 programs.
    pub eq1_err_ppm: f64,
    /// Σ over the 12 plans of sampling + code-generation seconds.
    pub sim_pipeline_overhead_s: f64,
}

impl Panel {
    pub fn measure(seed: u64) -> Result<Panel, String> {
        let set = PlanSet::build(seed, &Spans::with_capacity(0))?;
        let (mut clean_secs, mut drop_secs, mut err) = (Vec::new(), Vec::new(), Vec::new());
        for p in &set.planned {
            let clean = set.clean(p)?;
            let dropped = set.dropped(p)?;
            if clean.values_fingerprint != p.fingerprint
                || dropped.values_fingerprint != p.fingerprint
            {
                return Err(format!("{}: placement changed the answer", p.app.name()));
            }
            err.push(ppm(&activepy::calibrate(
                p.app.name(),
                &p.plan,
                &clean,
                None,
            )));
            clean_secs.push(clean.total_secs);
            drop_secs.push(dropped.total_secs);
        }
        Ok(Panel {
            sim_speedup_clean: sim_speedup(&set.planned, &clean_secs),
            sim_speedup_drop: sim_speedup(&set.planned, &drop_secs),
            eq1_err_ppm: eq1_err_ppm(&err),
            sim_pipeline_overhead_s: pipeline_overhead(&set),
        })
    }

    pub fn values(&self) -> [(&'static str, f64); 4] {
        [
            ("sim_speedup_clean", self.sim_speedup_clean),
            ("sim_speedup_drop", self.sim_speedup_drop),
            ("eq1_err_ppm", self.eq1_err_ppm),
            ("sim_pipeline_overhead_s", self.sim_pipeline_overhead_s),
        ]
    }
}

fn pipeline_overhead(set: &PlanSet) -> f64 {
    set.planned
        .iter()
        .map(|p| p.plan.sampling_secs + p.plan.compile_secs)
        .sum()
}
