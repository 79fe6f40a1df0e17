//! Test oracles for this crate's two JSON codecs: the implementations
//! [`crate::export`] and [`crate::journal`] replaced, kept as they were,
//! and the differentials that hold the replacements to them — the same
//! bytes out of the writers, the same [`crate::journal::Journal`] or the
//! same error text out of the reader, on seeded hostile inputs.
//! `#[cfg(test)]` only: nothing here is reachable from a build.

pub mod read;
pub mod write;

mod tests;
