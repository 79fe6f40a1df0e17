//! Error handling for the baseline implementations.
//!
//! The baselines used to carry their own near-duplicate error enum; it is
//! now folded into the core taxonomy — [`activepy::ActivePyError`] grew a
//! structured `Search` variant, so this module is only the aliases keeping
//! the baselines' vocabulary intact.

/// Failures raised while building or running a baseline — an alias for the
/// unified runtime taxonomy.
pub use activepy::error::ActivePyError as BaselineError;

/// Convenience alias used throughout the crate.
pub use activepy::error::Result;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_errors_keep_their_shape_through_the_alias() {
        let e = BaselineError::search("none");
        assert!(matches!(e, BaselineError::Search { .. }));
        let msg = format!("{e}");
        assert!(msg.contains("offload search"), "got: {msg}");
        assert!(msg.contains("none"), "got: {msg}");
    }

    #[test]
    fn lang_errors_still_convert() {
        let e: BaselineError = alang::LangError::runtime("x").into();
        use std::error::Error;
        assert!(e.source().is_some());
    }
}
