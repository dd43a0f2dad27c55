//! Probability distributions used by the simulation (§4.3: job runtimes are
//! normally distributed; availability periods are exponentially
//! distributed). Implemented from first principles so simulation output is
//! stable across dependency upgrades.

use crate::rng::Rng;

/// Something a value can be drawn from.
pub trait Distribution {
    fn sample(&self, rng: &mut Rng) -> f64;
    /// The distribution's mean, used by policies that reason about
    /// expectations (e.g. duty cycles).
    fn mean(&self) -> f64;
}

/// Normal(mean, sd) via the Marsaglia polar method. Not cached across calls
/// so sampling stays stateless and reproducible per call site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    pub(crate) mean: f64,
    pub(crate) sd: f64,
}

impl Normal {
    pub(crate) fn new(mean: f64, sd: f64) -> Self {
        debug_assert!(sd >= 0.0);
        Normal { mean, sd }
    }

    /// Standard normal draw.
    pub fn std_sample(rng: &mut Rng) -> f64 {
        loop {
            let u = 2.0 * rng.uniform() - 1.0;
            let v = 2.0 * rng.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.mean + self.sd * Normal::std_sample(rng)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// A normal truncated below at `floor` (resampled; falls back to the floor
/// after a bounded number of attempts so adversarial parameters cannot
/// hang the simulation). Job runtimes use this: "run times are normally
/// distributed" but must be positive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    pub(crate) normal: Normal,
    pub(crate) floor: f64,
}

impl TruncatedNormal {
    pub fn positive(mean: f64, sd: f64) -> Self {
        TruncatedNormal { normal: Normal::new(mean, sd), floor: mean * 1e-3 }
    }
}

impl Distribution for TruncatedNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        for _ in 0..64 {
            let x = self.normal.sample(rng);
            if x >= self.floor {
                return x;
            }
        }
        self.floor
    }
    fn mean(&self) -> f64 {
        // Truncation bias is negligible for the cv <= 0.3 regimes we use.
        self.normal.mean
    }
}

/// Exponential with the given mean (inverse-CDF method).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    pub(crate) mean: f64,
}

impl Exponential {
    pub fn new(mean: f64) -> Self {
        debug_assert!(mean > 0.0);
        Exponential { mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        // 1 - uniform() is in (0, 1], so ln() is finite.
        -self.mean * (1.0 - rng.uniform()).ln()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Log-normal parameterized by the underlying normal's `mu`/`sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    pub(crate) mu: f64,
    pub(crate) sigma: f64,
}

impl LogNormal {
    /// Construct from the distribution's own median and a multiplicative
    /// spread factor (sigma in log-space).
    pub fn from_median(median: f64, sigma: f64) -> Self {
        LogNormal { mu: median.ln(), sigma }
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * Normal::std_sample(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// Uniform over `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    pub lo: f64,
    pub hi: f64,
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.range(self.lo, self.hi)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(d: &impl Distribution, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Rng::from_seed(seed);
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let (m, v) = sample_stats(&d, 100_000, 1);
        assert!((m - 10.0).abs() < 0.05, "mean {m}");
        assert!((v - 4.0).abs() < 0.15, "var {v}");
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::new(5.0);
        let (m, v) = sample_stats(&d, 200_000, 2);
        assert!((m - 5.0).abs() < 0.1, "mean {m}");
        assert!((v - 25.0).abs() < 1.0, "var {v}");
    }

    #[test]
    fn exponential_positive() {
        let d = Exponential::new(1.0);
        let mut rng = Rng::from_seed(3);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn truncated_normal_respects_floor() {
        let d = TruncatedNormal { normal: Normal::new(1.0, 5.0), floor: 0.01 };
        let mut rng = Rng::from_seed(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.01);
        }
    }

    #[test]
    fn lognormal_median() {
        let d = LogNormal::from_median(100.0, 0.5);
        let mut rng = Rng::from_seed(5);
        let mut xs: Vec<f64> = (0..50_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[25_000];
        assert!((median / 100.0 - 1.0).abs() < 0.05, "median {median}");
        assert!(d.mean() > 100.0); // log-normal mean exceeds median
    }

    #[test]
    fn uniform_and_constant() {
        let u = Uniform { lo: 2.0, hi: 4.0 };
        let mut rng = Rng::from_seed(6);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((2.0..4.0).contains(&x));
        }
        assert_eq!(u.mean(), 3.0);
    }
}
