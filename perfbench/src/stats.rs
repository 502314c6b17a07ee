//! Exact sample statistics: every percentile is read off the sorted raw
//! samples (nearest rank), never off a bucketed histogram.

use serde::{Deserialize, Serialize};

/// A timing or count summary with its sample count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    pub samples: u64,
    pub p50: f64,
    pub p90: f64,
    pub mean: f64,
    pub max: f64,
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((n as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Summarises raw samples; an empty input gives an all-zero summary.
pub fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        return Summary::default();
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    Summary {
        samples: sorted.len() as u64,
        p50: percentile(&sorted, 0.5),
        p90: percentile(&sorted, 0.9),
        mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
        max: sorted[sorted.len() - 1],
    }
}

/// Median of a small sample (e.g. repeated set-up times).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Deterministic xorshift64* stream: every seeded choice the benchmark makes
/// (request order, users, feedback edges) comes from one of these.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        // SplitMix the pair so nearby seeds give unrelated streams; never 0.
        let mut z = seed ^ stream.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let sum = summarize(&s);
        assert_eq!(
            (sum.samples, sum.p50, sum.p90, sum.max),
            (10, 5.0, 9.0, 10.0)
        );
        assert_eq!(summarize(&[]).samples, 0);
    }

    #[test]
    fn rng_streams_are_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 0).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(2, 0).next_u64());
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
    }
}
