//! Seeded inputs: a small deterministic RNG, a Zipf rank sampler and the
//! open-loop arrival schedule. The same seed gives the same inputs.

use std::time::Duration;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each input
    /// family (schedule, query mix, added documents) draws independently.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Zipf rank sampler over `0..n`: rank `r` with weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Arrival offsets of an open-loop phase: `count` arrivals spread over
/// `span` as a Poisson process conditioned on its count (sorted uniform
/// draws), so every seed offers exactly `count` requests in exactly the
/// phase's span and only their spacing varies.
pub fn arrivals(rng: &mut Rng, rate_rps: f64, span: Duration) -> Vec<Duration> {
    let count = (rate_rps * span.as_secs_f64()).round() as usize;
    let mut at: Vec<u64> = (0..count)
        .map(|_| (rng.next_f64() * span.as_nanos() as f64) as u64)
        .collect();
    at.sort_unstable();
    at.into_iter().map(Duration::from_nanos).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = arrivals(&mut Rng::new(7, "s"), 1000.0, Duration::from_secs(2));
        let b = arrivals(&mut Rng::new(7, "s"), 1000.0, Duration::from_secs(2));
        let c = arrivals(&mut Rng::new(8, "s"), 1000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 2000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < Duration::from_secs(2));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(48, 1.1);
        let mut rng = Rng::new(1, "z");
        let mut counts = [0usize; 48];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
