//! Lane-strided reduction kernels: the SIMD fast path for the hottest
//! chunk bodies.
//!
//! A sequential `fold` over f64s is latency-bound: every add waits on
//! the previous one (a 4-cycle dependency chain on current cores). These
//! kernels break the chain by accumulating into [`LANES`] independent
//! accumulators — element `i` always lands in lane `i % LANES` — which
//! the compiler autovectorizes into wide vector adds and the hardware
//! pipelines. Lane totals are then combined *in lane order*, so the
//! floating-point evaluation tree is fixed by the data shape alone.
//!
//! ## The determinism rule
//!
//! Each kernel here has a strided scalar twin (`*_ref`) that performs
//! the same per-lane accumulation with plain sequential scalar ops.
//! Because IEEE-754 addition over an identical operand sequence is
//! exact, `simd kernel == reference twin` **bit-for-bit** — asserted by
//! tests here and in `benches/kernels.rs` at 1/2/4/8 threads. The fast
//! path changes *how fast* a chunk reduces, never *what* it reduces to.
//!
//! These kernels replace the in-chunk loops of the engaged (chunked)
//! path in [`crate::par::ParEngine`]; the below-threshold serial path is
//! untouched, so small inputs produce exactly the bytes they always did.

/// Number of independent accumulator lanes. Wide enough to cover an
/// AVX-512 register of f64s (and two NEON/SSE2 registers unrolled).
pub const LANES: usize = 8;

/// Lane-strided sum: `Σ xs[i]` with element `i` accumulated in lane
/// `i % LANES`, lanes combined in lane order.
#[must_use]
pub fn sum8(xs: &[f64]) -> f64 {
    sum8_by(xs, |x| x)
}

/// Strided scalar twin of [`sum8`]; bit-identical by construction.
#[must_use]
pub fn sum8_ref(xs: &[f64]) -> f64 {
    sum8_by_ref(xs, |x| x)
}

/// Lane-strided mapped sum: `Σ f(xs[i])`. With an inlineable arithmetic
/// `f` (square, abs, …) the loop autovectorizes the same way [`sum8`]
/// does.
#[must_use]
pub fn sum8_by<F: Fn(f64) -> f64>(xs: &[f64], f: F) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for j in 0..LANES {
            acc[j] += f(chunk[j]);
        }
    }
    for (j, &x) in chunks.remainder().iter().enumerate() {
        acc[j] += f(x);
    }
    combine_sum(&acc)
}

/// Strided scalar twin of [`sum8_by`]; bit-identical by construction.
#[must_use]
pub fn sum8_by_ref<F: Fn(f64) -> f64>(xs: &[f64], f: F) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (i, &x) in xs.iter().enumerate() {
        acc[i % LANES] += f(x);
    }
    combine_sum(&acc)
}

/// Lane-strided dot product: `Σ xs[i]·ys[i]` over the common prefix.
#[must_use]
pub fn dot8(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    let (xs, ys) = (&xs[..n], &ys[..n]);
    let mut acc = [0.0f64; LANES];
    let mut xi = xs.chunks_exact(LANES);
    let mut yi = ys.chunks_exact(LANES);
    for (cx, cy) in (&mut xi).zip(&mut yi) {
        for j in 0..LANES {
            acc[j] += cx[j] * cy[j];
        }
    }
    for (j, (&x, &y)) in xi.remainder().iter().zip(yi.remainder()).enumerate() {
        acc[j] += x * y;
    }
    combine_sum(&acc)
}

/// Strided scalar twin of [`dot8`]; bit-identical by construction.
#[must_use]
pub fn dot8_ref(xs: &[f64], ys: &[f64]) -> f64 {
    let mut acc = [0.0f64; LANES];
    for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
        acc[i % LANES] += x * y;
    }
    combine_sum(&acc)
}

/// Lane-strided minimum over `init` and every element. Comparisons are
/// plain `<` (no NaN propagation — inputs are workload data, never NaN),
/// which compiles to vector min ops.
#[must_use]
pub fn min8(xs: &[f64], init: f64) -> f64 {
    fold_cmp(xs, init, |cur, x| if x < cur { x } else { cur })
}

/// Lane-strided maximum over `init` and every element.
#[must_use]
pub fn max8(xs: &[f64], init: f64) -> f64 {
    fold_cmp(xs, init, |cur, x| if x > cur { x } else { cur })
}

#[inline]
fn fold_cmp<F: Fn(f64, f64) -> f64>(xs: &[f64], init: f64, pick: F) -> f64 {
    let mut acc = [init; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for j in 0..LANES {
            acc[j] = pick(acc[j], chunk[j]);
        }
    }
    for (j, &x) in chunks.remainder().iter().enumerate() {
        acc[j] = pick(acc[j], x);
    }
    let mut out = acc[0];
    for &lane in &acc[1..] {
        out = pick(out, lane);
    }
    out
}

/// Repacks a row-major `rows × cols` matrix as `cols.div_ceil(L)`
/// column panels, each `rows × L` row-major and zero-padded past the
/// last column. A kernel that walks one panel row by row advances `L`
/// accumulators of fixed width — a register block — however wide the
/// matrix is; the padding lanes compute values nobody reads.
pub(crate) fn column_panels<const L: usize>(data: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    let mut panels = vec![0.0; cols.div_ceil(L) * rows * L];
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        for (p, lanes) in row.chunks(L).enumerate() {
            let at = (p * rows + r) * L;
            panels[at..at + lanes.len()].copy_from_slice(lanes);
        }
    }
    panels
}

/// Combines lane accumulators in lane order — the one place the
/// reduction tree narrows, fixed so every path produces the same bytes.
#[inline]
fn combine_sum(acc: &[f64; LANES]) -> f64 {
    let mut total = acc[0];
    for &lane in &acc[1..] {
        total += lane;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strided scalar twin of [`min8`]; bit-identical by construction.
    fn min8_ref(xs: &[f64], init: f64) -> f64 {
        fold_cmp_ref(xs, init, |cur, x| if x < cur { x } else { cur })
    }

    /// Strided scalar twin of [`max8`]; bit-identical by construction.
    fn max8_ref(xs: &[f64], init: f64) -> f64 {
        fold_cmp_ref(xs, init, |cur, x| if x > cur { x } else { cur })
    }

    fn fold_cmp_ref<F: Fn(f64, f64) -> f64>(xs: &[f64], init: f64, pick: F) -> f64 {
        let mut acc = [init; LANES];
        for (i, &x) in xs.iter().enumerate() {
            acc[i % LANES] = pick(acc[i % LANES], x);
        }
        let mut out = acc[0];
        for &lane in &acc[1..] {
            out = pick(out, lane);
        }
        out
    }

    fn data(n: usize) -> Vec<f64> {
        // Patterned but irregular enough that reassociation shows up:
        // mixed magnitudes make float addition visibly non-associative.
        (0..n)
            .map(|i| {
                let base = ((i * 37) % 1009) as f64 - 504.0;
                base * (1.0 + ((i % 7) as f64) * 1e-7) * if i % 3 == 0 { 1e6 } else { 1e-3 }
            })
            .collect()
    }

    #[test]
    fn simd_matches_reference_bit_for_bit() {
        // Includes every remainder length 0..LANES and the empty slice.
        for n in [0, 1, 5, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097, 20_000] {
            let xs = data(n);
            let ys: Vec<f64> = xs.iter().map(|x| x * 0.5 + 1.0).collect();
            assert_eq!(sum8(&xs).to_bits(), sum8_ref(&xs).to_bits(), "sum n={n}");
            assert_eq!(
                sum8_by(&xs, |x| x * x).to_bits(),
                sum8_by_ref(&xs, |x| x * x).to_bits(),
                "sumsq n={n}"
            );
            assert_eq!(
                dot8(&xs, &ys).to_bits(),
                dot8_ref(&xs, &ys).to_bits(),
                "dot n={n}"
            );
            assert_eq!(
                min8(&xs, f64::INFINITY).to_bits(),
                min8_ref(&xs, f64::INFINITY).to_bits(),
                "min n={n}"
            );
            assert_eq!(
                max8(&xs, f64::NEG_INFINITY).to_bits(),
                max8_ref(&xs, f64::NEG_INFINITY).to_bits(),
                "max n={n}"
            );
        }
    }

    #[test]
    fn lane_kernels_agree_with_plain_folds_numerically() {
        let xs = data(10_000);
        let ys: Vec<f64> = xs.iter().map(|x| x * 0.25 - 2.0).collect();
        let serial_sum: f64 = xs.iter().sum();
        let rel = (sum8(&xs) - serial_sum).abs() / serial_sum.abs().max(1.0);
        assert!(rel < 1e-10, "sum relative error {rel}");
        let serial_dot: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        let rel = (dot8(&xs, &ys) - serial_dot).abs() / serial_dot.abs().max(1.0);
        assert!(rel < 1e-10, "dot relative error {rel}");
        // Min/max are exact regardless of grouping (no rounding).
        let serial_min = xs.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let serial_max = xs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        assert_eq!(min8(&xs, f64::INFINITY), serial_min);
        assert_eq!(max8(&xs, f64::NEG_INFINITY), serial_max);
    }

    #[test]
    fn min_max_respect_init() {
        assert_eq!(min8(&[], 3.0), 3.0);
        assert_eq!(max8(&[], 3.0), 3.0);
        assert_eq!(min8(&[5.0, 4.0], 3.0), 3.0);
        assert_eq!(max8(&[5.0, 4.0], 3.0), 5.0);
        assert_eq!(sum8(&[]), 0.0);
        assert_eq!(dot8(&[], &[]), 0.0);
    }

    #[test]
    fn lane_assignment_is_index_mod_lanes() {
        // A one-hot probe per index: lane structure means element i only
        // ever meets elements ≡ i (mod LANES) before the final combine.
        // Summing 2^lane-weighted one-hots recovers the lane pattern.
        let n = 27;
        for hot in 0..n {
            let mut xs = vec![0.0; n];
            xs[hot] = 1.0;
            assert_eq!(sum8(&xs), 1.0);
            assert_eq!(sum8(&xs).to_bits(), sum8_ref(&xs).to_bits());
        }
    }
}
