//! The cost of the ahead-of-time compiler (the Cython analog).
//!
//! ActivePy "compiles the resulting host application and the composed CSD
//! functions into machine code to avoid the overhead of continuous runtime
//! interpretation" (§I), leveraging Cython-style code generation invoked
//! *after* the program has started and task/data allocation is decided
//! (§III-C0d). The lowering itself is [`crate::lower::lower_with`]; this
//! module prices it: an estimated binary size (what gets DMA'd into device
//! memory for CSD functions) and the compilation time — the ≈0.1 s / ≈1 %
//! overhead the paper reports.

/// Estimated machine-code bytes emitted per source line.
const BINARY_BYTES_PER_LINE: u64 = 2048;
/// Fixed binary preamble (runtime stubs, queue-pair glue).
const BINARY_BYTES_BASE: u64 = 16 * 1024;
/// Compilation wall-clock seconds per line (Cython + C compiler).
const COMPILE_SECS_PER_LINE: f64 = 1e-3;
/// Fixed compilation start-up seconds.
const COMPILE_SECS_BASE: f64 = 5e-3;

/// Estimated size of the machine code emitted for `line_count` lines, in
/// bytes (charged when distributing the CSD functions into device memory).
#[must_use]
pub fn binary_bytes_for(line_count: usize) -> u64 {
    BINARY_BYTES_BASE + line_count as u64 * BINARY_BYTES_PER_LINE
}

/// Estimated compilation wall-clock time in seconds for `line_count`
/// lines (so partition-sized regions can be costed).
#[must_use]
pub fn compile_secs_for(line_count: usize) -> f64 {
    COMPILE_SECS_BASE + line_count as f64 * COMPILE_SECS_PER_LINE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_size_and_compile_time_scale_with_lines() {
        assert!(binary_bytes_for(4) > binary_bytes_for(1));
        assert!(compile_secs_for(4) > compile_secs_for(1));
        // Roughly the paper's 0.1 s scale for a ~20-line program.
        assert!(compile_secs_for(20) < 0.2);
    }
}
