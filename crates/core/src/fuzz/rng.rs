//! Deterministic xorshift64* PRNG for the fuzzer.
//!
//! Every random decision the fuzzer makes — generation, mutation choice,
//! corpus scheduling — flows through one [`FuzzRng`] seeded from `--seed`.
//! No wall-clock, no OS entropy: the same seed replays the same campaign
//! bit for bit.

/// xorshift64* generator (the same recurrence the property-test suite
/// uses), with fuzzing-oriented helpers.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Seeded constructor; a zero seed is remapped to a fixed non-zero
    /// value (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> FuzzRng {
        FuzzRng {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    #[allow(clippy::should_implement_trait)] // not an Iterator: never exhausts
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next() % n as u64) as usize
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn below_in_range() {
        let mut r = FuzzRng::new(7);
        for _ in 0..1000 {
            assert!(r.below(5) < 5);
        }
    }

    #[test]
    fn zero_seed_ok() {
        let mut r = FuzzRng::new(0);
        assert_ne!(r.next(), 0);
    }
}
