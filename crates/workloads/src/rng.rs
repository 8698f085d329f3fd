//! Deterministic data-generation helpers: Zipf sampling, string pools.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG for reproducible workload generation.
pub(crate) fn seeded(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Zipf-distributed sampler over `0..n` with exponent `z`.
///
/// `z = 0` is uniform; `z = 1` matches the skewed TPC-H generator the paper
/// uses ("data generated with a skew-parameter of Z = 1"). Sampling is by
/// binary search over the precomputed CDF.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `0..n` with exponent `z ≥ 0`.
    pub(crate) fn new(n: usize, z: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(z >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(z);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draw one value in `0..n`.
    pub(crate) fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A fixed pool of generated strings (for comment/name columns), so string
/// columns have realistic repeated values without unbounded memory.
pub(crate) fn string_pool(rng: &mut SmallRng, count: usize, len: usize) -> Vec<String> {
    const WORDS: &[&str] = &[
        "alpha", "bravo", "carbon", "delta", "ember", "fjord", "gamma", "harbor", "iris", "joule",
        "karma", "lumen", "meadow", "nickel", "onyx", "prism", "quartz", "raven", "sable",
        "tundra",
    ];
    (0..count)
        .map(|_| {
            let mut s = String::new();
            while s.len() < len {
                if !s.is_empty() {
                    s.push(' ');
                }
                s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
            }
            s.truncate(len);
            s
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_uniform_when_z_zero() {
        let z = Zipf::new(10, 0.0);
        let mut rng = seeded(1);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((1600..2400).contains(&c), "count {c} not near 2000");
        }
    }

    #[test]
    fn zipf_skewed_when_z_one() {
        let z = Zipf::new(100, 1.0);
        let mut rng = seeded(2);
        let mut counts = [0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Value 0 should be drawn roughly 1/H(100) ≈ 19% of the time; value
        // 99 about 0.19%.
        assert!(counts[0] > 8_000, "head count {}", counts[0]);
        assert!(counts[99] < 500, "tail count {}", counts[99]);
        // Monotone-ish decay head vs mid vs tail.
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn zipf_deterministic_for_seed() {
        let z = Zipf::new(50, 1.0);
        let a: Vec<usize> = {
            let mut rng = seeded(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = seeded(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn string_pool_shape() {
        let mut rng = seeded(3);
        let pool = string_pool(&mut rng, 20, 24);
        assert_eq!(pool.len(), 20);
        assert!(pool.iter().all(|s| s.len() <= 24));
    }
}
