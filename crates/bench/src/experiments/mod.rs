//! Experiment implementations, one module per table/figure.

pub mod audit;
pub mod decode;
pub mod faults;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod flexibility;
pub mod recovery;
pub mod regret;
pub mod runtime_opt;
pub mod shards;
pub mod table1;

/// A figure the paper reports and the range a reproduced value may take
/// around it. A `check` writes each of its bands once, as a constant.
#[derive(Debug, Clone, Copy)]
pub struct Band {
    /// What is measured; an `Err` names it.
    pub what: &'static str,
    /// The paper's figure, as EXPERIMENTS.md's **Paper:** line quotes it.
    pub paper: &'static str,
    /// The lowest admitted value.
    pub lo: f64,
    /// The highest admitted value.
    pub hi: f64,
}

impl Band {
    /// Whether `value` lies in `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Names the band, `value` and the paper's figure when it does not
    /// (a NaN never does).
    pub fn check(&self, value: f64) -> Result<(), String> {
        if (self.lo..=self.hi).contains(&value) {
            Ok(())
        } else {
            Err(format!(
                "{} {value:.4} outside [{}, {}] (paper {})",
                self.what, self.lo, self.hi, self.paper
            ))
        }
    }
}

/// Asserts that `result` is an `Err` naming `cause`.
#[cfg(test)]
pub(crate) fn fails_naming(result: Result<(), String>, cause: &str) {
    match result {
        Err(e) => assert!(e.contains(cause), "{e:?} does not name {cause:?}"),
        Ok(()) => panic!("check passed a report that should fail on {cause:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_band_admits_its_ends_and_names_what_leaves_it() {
        let band = Band {
            what: "stub ratio",
            paper: "≈ 1.5×",
            lo: 1.0,
            hi: 2.0,
        };
        for inside in [1.0, 1.5, 2.0] {
            assert_eq!(band.check(inside), Ok(()));
        }
        let outside = band.check(2.5).unwrap_err();
        assert_eq!(outside, "stub ratio 2.5000 outside [1, 2] (paper ≈ 1.5×)");
        fails_naming(band.check(0.5), "stub ratio 0.5000");
        fails_naming(band.check(f64::NAN), "stub ratio NaN");
    }
}
