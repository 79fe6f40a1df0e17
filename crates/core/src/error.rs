//! The single error taxonomy for the ActivePy runtime *and* the
//! baselines (which used to carry a near-duplicate enum; it is now a
//! re-export of this one).
//!
//! Device faults are not errors here: the recovery layer retries or
//! migrates on [`csd_sim::fault::DeviceFault::is_transient`], and a run
//! that survives them returns a report, not an error.

use alang::LangError;
use std::fmt;

/// Any failure raised by the ActivePy pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ActivePyError {
    /// The program itself failed to parse or execute.
    Lang(LangError),
    /// The sampling phase could not produce usable statistics.
    Sampling {
        /// Explanation.
        message: String,
    },
    /// Curve fitting failed (e.g. no sample points).
    Fit {
        /// Explanation.
        message: String,
    },
    /// The execution engine hit an inconsistency (e.g. assignment length
    /// mismatch).
    Exec {
        /// Explanation.
        message: String,
    },
    /// An option or policy failed validation at construction.
    Config {
        /// Explanation.
        message: String,
    },
    /// An offload-assignment search failed (baselines).
    Search {
        /// Explanation.
        message: String,
    },
}

impl ActivePyError {
    /// Shorthand for an execution-engine error.
    #[must_use]
    pub fn exec(message: impl Into<String>) -> Self {
        ActivePyError::Exec {
            message: message.into(),
        }
    }

    /// Shorthand for a sampling error.
    #[must_use]
    pub fn sampling(message: impl Into<String>) -> Self {
        ActivePyError::Sampling {
            message: message.into(),
        }
    }

    /// Shorthand for a configuration-validation error.
    #[must_use]
    pub fn config(message: impl Into<String>) -> Self {
        ActivePyError::Config {
            message: message.into(),
        }
    }

    /// Shorthand for an offload-search error.
    #[must_use]
    pub fn search(message: impl Into<String>) -> Self {
        ActivePyError::Search {
            message: message.into(),
        }
    }
}

impl fmt::Display for ActivePyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActivePyError::Lang(e) => write!(f, "language error: {e}"),
            ActivePyError::Sampling { message } => write!(f, "sampling error: {message}"),
            ActivePyError::Fit { message } => write!(f, "fit error: {message}"),
            ActivePyError::Exec { message } => write!(f, "execution error: {message}"),
            ActivePyError::Config { message } => write!(f, "invalid configuration: {message}"),
            ActivePyError::Search { message } => write!(f, "offload search error: {message}"),
        }
    }
}

impl std::error::Error for ActivePyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ActivePyError::Lang(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<LangError> for ActivePyError {
    fn from(e: LangError) -> Self {
        ActivePyError::Lang(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ActivePyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = ActivePyError::sampling("no scales");
        assert!(format!("{e}").contains("sampling"));
        let e: ActivePyError = LangError::runtime("boom").into();
        assert!(format!("{e}").contains("boom"));
    }

    #[test]
    fn lang_errors_expose_source() {
        use std::error::Error;
        let e: ActivePyError = LangError::runtime("boom").into();
        assert!(e.source().is_some());
    }
}
