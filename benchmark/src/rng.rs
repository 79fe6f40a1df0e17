//! The driver's seeded generator (SplitMix64): every input the crates
//! receive is derived from `--seed` through this, so the same seed gives
//! the same bytes on any host.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: `salt` separates the streams drawn from
    /// one `--seed` so adding a draw in one place moves no other input.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A seeded order of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i as u64 + 1) as usize);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_differ() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(9, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(9, 1), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(9, 1).next_u64(), Rng::new(9, 2).next_u64());
        assert_ne!(Rng::new(9, 1).next_u64(), Rng::new(10, 1).next_u64());
    }

    #[test]
    fn draws_stay_in_range_and_permutations_are_complete() {
        let mut rng = Rng::new(3, 0);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!(rng.below(7) < 7);
        }
        let mut p = rng.permutation(12);
        p.sort_unstable();
        assert_eq!(p, (0..12).collect::<Vec<_>>());
    }
}
