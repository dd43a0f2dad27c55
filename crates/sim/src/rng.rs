//! Deterministic random-number generation.
//!
//! Every stochastic process in the emulator (job runtimes, availability
//! transitions, server downtime, estimate errors, …) draws from its own
//! *named stream*, derived from the scenario seed. Two runs of the same
//! scenario are bit-identical, and adding draws to one component does not
//! perturb another — essential for the paper's debugging workflow, where a
//! volunteer-reported anomaly must reproduce exactly under a debugger.
//!
//! The generator is xoshiro256++ (public-domain reference algorithm by
//! Blackman & Vigna), seeded through SplitMix64, implemented here to keep
//! the simulation core dependency-free and its output stable forever.

/// SplitMix64 step: used for seeding and for hashing stream names.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// FNV-1a, for turning stream names into seed material.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    h
}

/// A xoshiro256++ generator.
///
/// ```
/// use bce_sim::Rng;
/// // Named streams: adding draws to one component never perturbs another.
/// let mut runtimes = Rng::stream(42, "runtimes");
/// let mut avail = Rng::stream(42, "availability");
/// let x = runtimes.uniform();
/// assert!((0.0..1.0).contains(&x));
/// // Reproducible: same seed + stream name, same values.
/// assert_eq!(Rng::stream(42, "runtimes").next_u64(), Rng::stream(42, "runtimes").next_u64());
/// assert_ne!(runtimes.next_u64(), avail.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create from a raw 64-bit seed (expanded via SplitMix64).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            Rng { s: [1, 2, 3, 4] }
        } else {
            Rng { s }
        }
    }

    /// Create the named stream `name` of the scenario-level seed. Streams
    /// with different names are statistically independent.
    pub fn stream(seed: u64, name: &str) -> Self {
        Rng::from_seed(seed ^ fnv1a(name.as_bytes()))
    }

    /// Derive a child stream, e.g. one per project: `rng.fork("p3")`.
    pub fn fork(&mut self, name: &str) -> Rng {
        let salt = self.next_u64();
        Rng::from_seed(salt ^ fnv1a(name.as_bytes()))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. `n` must be positive.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // small `n` used in job-mix selection.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Pick a position from non-negative weights (sum > 0). The weights
    /// are walked twice, once to sum them and once to pick, so callers can
    /// pass a filtered view without collecting it.
    pub fn pick_weighted(&mut self, weights: impl Iterator<Item = f64> + Clone) -> usize {
        let total: f64 = weights.clone().sum();
        debug_assert!(total > 0.0, "pick_weighted needs positive total weight");
        let mut x = self.uniform() * total;
        let mut last = 0;
        for (i, w) in weights.enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
            last = i;
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Rng::from_seed(42);
        let mut b = Rng::from_seed(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ() {
        let mut a = Rng::stream(42, "runtimes");
        let mut b = Rng::stream(42, "availability");
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = Rng::from_seed(7);
        for _ in 0..10_000 {
            let x = r.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = Rng::from_seed(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_bounds() {
        let mut r = Rng::from_seed(13);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let i = r.below(10);
            assert!(i < 10);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
    }

    #[test]
    fn weighted_pick_respects_weights() {
        let mut r = Rng::from_seed(17);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.pick_weighted(w.iter().copied())] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn fork_independent_of_later_parent_use() {
        let mut p1 = Rng::from_seed(5);
        let mut p2 = Rng::from_seed(5);
        let mut c1 = p1.fork("child");
        let mut c2 = p2.fork("child");
        // draw differently from the parents afterwards
        p1.next_u64();
        for _ in 0..50 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn zero_seed_works() {
        let mut r = Rng::from_seed(0);
        // must not be a degenerate all-zero state
        let any_nonzero = (0..10).any(|_| r.next_u64() != 0);
        assert!(any_nonzero);
    }
}
