//! Deterministic pseudo-random number generation and the distributions
//! used by the CloudFog evaluation.
//!
//! Everything in the workload is sampled from a seeded generator so that
//! an experiment is reproducible bit-for-bit from its `u64` seed. The
//! generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend; both are implemented here (they
//! are ~20 lines each) so the repository has no behavioural dependency
//! on an external RNG crate version.
//!
//! Distributions implemented (with the paper's parameters as defaults
//! elsewhere):
//! * uniform (`f64`, integer ranges),
//! * Bernoulli,
//! * exponential — Poisson-process inter-arrival times (§IV: joins at
//!   5 players/s),
//! * Poisson counts,
//! * Pareto — node capacities (mean 5, shape α = 1 in §IV),
//! * bounded Zipf / power-law — friend counts (skew 0.5 in §IV),
//! * normal and log-normal — latency jitter in `cloudfog-net`.

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** — a small, fast, high-quality non-cryptographic PRNG.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal variate from the last Box–Muller draw.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    ///
    /// The full 256-bit state is expanded from the seed with SplitMix64,
    /// which guarantees a non-zero state for every seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s, spare_normal: None }
    }

    /// Derive an independent child generator. Used to give each
    /// simulation component its own stream so that adding draws in one
    /// component does not perturb another.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `(0, 1]`; safe to feed into `ln()`.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift
    /// rejection method (unbiased). `n` must be non-zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0)");
        // Widening multiply; rejection keeps the result exactly uniform.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index into a slice of length `len`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponential variate with the given rate (events per unit time).
    /// This is the inter-arrival time of a Poisson process of that rate.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        -self.f64_open().ln() / rate
    }

    /// Poisson-distributed count with the given mean, via Knuth's
    /// product method for small means and a normal approximation with
    /// continuity correction for large means (mean > 64).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 0.0);
        if mean == 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let x = self.normal(mean, mean.sqrt());
            return x.max(0.0).round() as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64_open();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Pareto variate with scale `x_min > 0` and shape `alpha > 0`
    /// (classic Type-I Pareto: support `[x_min, ∞)`).
    #[inline]
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        x_min / self.f64_open().powf(1.0 / alpha)
    }

    /// Standard normal variate (Box–Muller, with caching of the second
    /// variate of each pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1 = self.f64_open();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal variate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        debug_assert!(std_dev >= 0.0);
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal variate: `exp(N(mu, sigma))` where `mu`/`sigma`
    /// parameterize the underlying normal.
    #[inline]
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `0..len` (reservoir when
    /// `k < len`, identity otherwise). Order of the result is not
    /// specified but is deterministic for a given state.
    pub fn sample_indices(&mut self, len: usize, k: usize) -> Vec<usize> {
        if k >= len {
            return (0..len).collect();
        }
        let mut reservoir: Vec<usize> = (0..k).collect();
        for i in k..len {
            let j = self.index(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

/// Precomputed cumulative weights for repeated bounded-Zipf sampling.
///
/// Sampling is O(log n) by binary search on the CDF; building is O(n).
#[derive(Clone, Debug)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Build the table for ranks `1..=n` with exponent `skew`.
    pub fn new(n: u64, skew: f64) -> Self {
        assert!(n > 0, "ZipfTable over empty support");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(skew);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfTable { cdf }
    }

    /// Number of ranks in the support.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True iff the support is empty (never: the constructor rejects it).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a rank in `1..=n`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        match self.cdf.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => (i.min(self.cdf.len() - 1) + 1) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn determinism_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn fork_streams_are_decoupled() {
        let mut parent1 = Rng::new(7);
        let child1: Vec<u64> = {
            let mut c = parent1.fork();
            (0..8).map(|_| c.next_u64()).collect()
        };
        // Re-derive: same parent state gives the same child stream.
        let mut parent2 = Rng::new(7);
        let child2: Vec<u64> = {
            let mut c = parent2.fork();
            (0..8).map(|_| c.next_u64()).collect()
        };
        assert_eq!(child1, child2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(1);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng::new(2);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bin expects 10 000; allow ±6 sigma.
            assert!((c as i64 - 10_000).abs() < 600, "bin count {c}");
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = Rng::new(3);
        let samples: Vec<f64> = (0..50_000).map(|_| rng.exponential(5.0)).collect();
        let m = mean_of(&samples);
        assert!((m - 0.2).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn poisson_mean_matches() {
        let mut rng = Rng::new(4);
        for &mean in &[0.5, 3.0, 20.0, 100.0] {
            let samples: Vec<f64> = (0..20_000).map(|_| rng.poisson(mean) as f64).collect();
            let m = mean_of(&samples);
            assert!((m - mean).abs() < mean.max(1.0) * 0.05, "mean {m} vs {mean}");
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn pareto_respects_scale_and_median() {
        let mut rng = Rng::new(5);
        // alpha=1 has infinite mean; check support and median = x_min * 2^(1/alpha).
        let samples: Vec<f64> = (0..50_001).map(|_| rng.pareto(2.5, 1.0)).collect();
        assert!(samples.iter().all(|&x| x >= 2.5));
        let mut s = samples;
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = s[s.len() / 2];
        assert!((median - 5.0).abs() < 0.25, "median {median}");
    }

    #[test]
    fn zipf_table_is_skewed_and_bounded() {
        let table = ZipfTable::new(50, 0.5);
        assert_eq!(table.len(), 50);
        let mut rng = Rng::new(7);
        let mut counts = [0u32; 50];
        for _ in 0..50_000 {
            let k = table.sample(&mut rng);
            assert!((1..=50).contains(&k));
            counts[(k - 1) as usize] += 1;
        }
        assert!(counts[0] > counts[24]);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(8);
        let samples: Vec<f64> = (0..100_000).map(|_| rng.normal(10.0, 2.0)).collect();
        let m = mean_of(&samples);
        let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / samples.len() as f64;
        assert!((m - 10.0).abs() < 0.05, "mean {m}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = Rng::new(9);
        for _ in 0..10_000 {
            assert!(rng.log_normal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(10);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = Rng::new(11);
        let picked = rng.sample_indices(1000, 50);
        assert_eq!(picked.len(), 50);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
        assert!(sorted.iter().all(|&i| i < 1000));
        // k >= len returns everything.
        assert_eq!(rng.sample_indices(5, 9), vec![0, 1, 2, 3, 4]);
    }
}
