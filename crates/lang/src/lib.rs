//! # alang — a line-oriented interpreted language with a cost model
//!
//! ALang is this reproduction's stand-in for Python (and its compiled
//! Cython form) in the ActivePy system (DAC 2023). It deliberately mirrors
//! the properties the paper relies on:
//!
//! * **One statement per line**, each a single-entry-single-exit region —
//!   the unit ActivePy assigns to host or CSD (§III-B).
//! * **Bulk kernels behind library boundaries** ([`builtins`]), like NumPy:
//!   calls marshal arguments and materialize results, which is where the
//!   interpreter overhead the paper measures (41 % over C) comes from.
//! * **Per-line profiling** ([`interp`]): execution time surrogates
//!   (operation counts), stored bytes, input/output volumes — what
//!   `line_profiler` collects during ActivePy's sampling phase.
//! * **A compile path** ([`lower`], priced by [`compile`]): Cython-style
//!   lowering plus the redundant-copy elimination pass ([`copyelim`]) that
//!   closes the gap to native code (§III-C0c, §V).
//!
//! Bulk values carry a *logical* (paper-scale) size next to their small
//! materialized data, so selectivity, sparsity, and tree depth stay
//! data-dependent while data volumes match the paper's Table I.
//!
//! ```
//! use alang::builtins::Storage;
//! use alang::interp::Interpreter;
//! use alang::value::Value;
//!
//! let mut storage = Storage::new();
//! storage.insert("v", Value::from(vec![1.0, 2.0, 3.0]));
//! let program = alang::parser::parse("a = scan('v')\ns = sum(a * 2)\n")?;
//! let mut interp = Interpreter::new(&storage);
//! let records = interp.run(&program, &[])?;
//! assert_eq!(interp.var("s").expect("s").as_num()?, 12.0);
//! assert_eq!(records.len(), 2);
//! # Ok::<(), alang::error::LangError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod builtins;
pub mod bytecode;
pub mod canonical;
pub mod compile;
pub mod copyelim;
pub mod cost;
pub mod error;
pub mod forest;
pub mod interp;
#[cfg(test)]
mod kernels_oracle;
pub mod lower;
pub mod matrix;
pub mod memo;
pub mod par;
pub mod parser;
mod pool;
pub mod shape;
pub mod shard;
pub mod simd;
pub mod table;
pub mod token;
pub mod value;

pub use ast::Program;
pub use builtins::Storage;
pub use bytecode::{LoweredProgram, Vm};
pub use canonical::{CanonicalSink, Fingerprinter};
pub use cost::{CostParams, ExecTier, LineCost};
pub use error::LangError;
pub use interp::Interpreter;
pub use memo::KernelMemo;
pub use par::{ParEngine, ParStatsSnapshot, ParallelPolicy};
pub use shard::{ShardAnalysis, ShardMap, ShardStrategy};
pub use value::Value;

#[cfg(test)]
mod tests {
    #[test]
    fn key_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Value>();
        assert_send_sync::<crate::Storage>();
        assert_send_sync::<crate::Program>();
    }
}
