//! Sampling/training order-preserving transform à la Zerber+r (EDBT 2009) —
//! the paper's reference \[16\].
//!
//! A relevance-score sample is collected up front; mapping applies the
//! empirical CDF (with linear interpolation) scaled into the ciphertext
//! range, plus keyed jitter bounded below the inter-quantile resolution.
//! The trained transform flattens the mapped distribution *for the training
//! distribution* — but when scores following a different distribution need
//! to be inserted, the transform must be retrained (the §VII criticism).
//! [`CdfMapper::needs_retraining`] makes that operational via a KS test.

use rsse_analysis::ks_statistic;
use rsse_analysis::Histogram;
use rsse_crypto::tape::Transcript;
use rsse_crypto::{Hmac, SecretKey, Sha256, Tape};

/// Errors from the trained CDF mapper.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CdfError {
    /// Not enough finite training scores.
    InsufficientTraining,
    /// The score falls outside the trained support; retraining required.
    NeedsRetraining {
        /// The unmappable score.
        score: f64,
    },
}

impl core::fmt::Display for CdfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CdfError::InsufficientTraining => write!(f, "too few training scores"),
            CdfError::NeedsRetraining { score } => {
                write!(
                    f,
                    "score {score} outside trained support; transform must be retrained"
                )
            }
        }
    }
}

impl std::error::Error for CdfError {}

/// The trained empirical-CDF order-preserving transform.
///
/// # Example
///
/// ```
/// use rsse_baselines::cdf::CdfMapper;
/// use rsse_crypto::SecretKey;
///
/// let training: Vec<f64> = (1..=500).map(|i| (i as f64).sqrt()).collect();
/// let m = CdfMapper::train(&training, 1 << 40, SecretKey::derive(b"s", "c")).unwrap();
/// let lo = m.map(2.0, b"f1").unwrap();
/// let hi = m.map(20.0, b"f2").unwrap();
/// assert!(lo < hi);
/// ```
#[derive(Debug, Clone)]
pub struct CdfMapper {
    /// Sorted, deduplicated training scores.
    quantiles: Vec<f64>,
    range: u64,
    /// Jitter budget: strictly below the range resolution of one quantile
    /// step, so jitter can never reorder distinct quantiles.
    jitter: u64,
    /// The jitter key's HMAC state, keyed once for every per-file tape.
    key: Hmac<Sha256>,
}

impl CdfMapper {
    /// Trains the transform on a score sample with ciphertext range
    /// `range`.
    ///
    /// # Errors
    ///
    /// [`CdfError::InsufficientTraining`] with fewer than 2 distinct finite
    /// scores.
    pub fn train(training: &[f64], range: u64, key: SecretKey) -> Result<Self, CdfError> {
        let mut quantiles: Vec<f64> = training.iter().copied().filter(|s| s.is_finite()).collect();
        quantiles.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        quantiles.dedup();
        if quantiles.len() < 2 {
            return Err(CdfError::InsufficientTraining);
        }
        let step = range / (quantiles.len() as u64 * 2);
        Ok(CdfMapper {
            jitter: step.max(1),
            quantiles,
            range,
            key: Hmac::new(key.as_bytes()),
        })
    }

    /// Empirical CDF with linear interpolation between training quantiles.
    pub fn cdf(&self, score: f64) -> Option<f64> {
        let n = self.quantiles.len();
        let (lo, hi) = (self.quantiles[0], self.quantiles[n - 1]);
        if !score.is_finite() || score < lo || score > hi {
            return None;
        }
        let idx = self.quantiles.partition_point(|&q| q <= score);
        if idx == n {
            return Some(1.0);
        }
        let left = self.quantiles[idx - 1];
        let right = self.quantiles[idx];
        let frac = if right > left {
            (score - left) / (right - left)
        } else {
            0.0
        };
        Some((idx as f64 - 1.0 + frac) / (n as f64 - 1.0))
    }

    /// Maps a score into the ciphertext range with keyed per-file jitter.
    ///
    /// # Errors
    ///
    /// [`CdfError::NeedsRetraining`] for scores outside the trained support.
    pub fn map(&self, score: f64, file_id: &[u8]) -> Result<u64, CdfError> {
        let Some(u) = self.cdf(score) else {
            return Err(CdfError::NeedsRetraining { score });
        };
        let base = (u * (self.range - self.jitter) as f64) as u64;
        let transcript = Transcript::new("cdf/jitter")
            .u64(score.to_bits())
            .bytes(file_id)
            .finish();
        let mut tape = Tape::new_keyed(&self.key, &transcript);
        Ok(base + tape.uniform_below(self.jitter))
    }

    /// Distribution-shift detector: compares a new score batch against the
    /// training sample with a binned KS statistic. Above `threshold`
    /// (e.g. 0.2) the transform should be retrained — the operational cost
    /// the RSSE scheme avoids.
    pub fn needs_retraining(&self, new_scores: &[f64], threshold: f64) -> bool {
        if new_scores.is_empty() {
            return false;
        }
        // Out-of-support values always force retraining.
        let lo = self.quantiles[0];
        let hi = *self.quantiles.last().expect("non-empty");
        if new_scores
            .iter()
            .any(|s| !s.is_finite() || *s < lo || *s > hi)
        {
            return true;
        }
        let bins = 64;
        let train = Histogram::of_f64(&self.quantiles, bins, lo, hi);
        let fresh = Histogram::of_f64(new_scores, bins, lo, hi);
        match ks_statistic(train.counts(), fresh.counts()) {
            Some(d) => d > threshold,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> CdfMapper {
        let training: Vec<f64> = (1..=1000).map(|i| (i as f64 / 10.0).powf(1.3)).collect();
        CdfMapper::train(&training, 1 << 44, SecretKey::derive(b"s", "c")).unwrap()
    }

    #[test]
    fn order_preserved_on_training_support() {
        let m = mapper();
        let scores = [0.2f64, 1.0, 5.0, 20.0, 100.0, 300.0];
        let mapped: Vec<u64> = scores.iter().map(|&s| m.map(s, b"f").unwrap()).collect();
        for w in mapped.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn interpolated_scores_map_between_quantiles() {
        let m = CdfMapper::train(&[1.0, 2.0, 3.0], 1 << 30, SecretKey::derive(b"s", "c")).unwrap();
        let a = m.map(1.0, b"f").unwrap();
        let mid = m.map(1.5, b"f").unwrap();
        let b = m.map(2.0, b"f").unwrap();
        assert!(a < mid && mid < b);
    }

    #[test]
    fn flattens_trained_distribution() {
        // Mapping the training scores themselves must spread near-uniformly:
        // peak-to-uniform close to 1 over coarse bins.
        let m = mapper();
        let training: Vec<f64> = (1..=1000).map(|i| (i as f64 / 10.0).powf(1.3)).collect();
        let mapped: Vec<u64> = training
            .iter()
            .enumerate()
            .map(|(i, &s)| m.map(s, format!("f{i}").as_bytes()).unwrap())
            .collect();
        let hist = Histogram::of_u64(&mapped, 16, 0, 1 << 44);
        assert!(
            hist.peak_to_uniform() < 1.6,
            "mapped training not flat: {}",
            hist.peak_to_uniform()
        );
    }

    #[test]
    fn out_of_support_needs_retraining() {
        let m = mapper();
        assert!(matches!(
            m.map(1e9, b"f"),
            Err(CdfError::NeedsRetraining { .. })
        ));
        assert!(m.needs_retraining(&[1e9], 0.2));
    }

    #[test]
    fn shift_detector() {
        let m = mapper();
        // Same distribution: no retraining.
        let same: Vec<f64> = (1..=500).map(|i| (i as f64 / 5.0).powf(1.3)).collect();
        assert!(!m.needs_retraining(&same, 0.25));
        // Concentrated mass at one end: retraining flagged.
        let shifted: Vec<f64> = (0..500).map(|i| 0.3 + i as f64 * 1e-4).collect();
        assert!(m.needs_retraining(&shifted, 0.25));
        // Empty batch: nothing to do.
        assert!(!m.needs_retraining(&[], 0.25));
    }

    #[test]
    fn insufficient_training_rejected() {
        assert!(CdfMapper::train(&[1.0], 1 << 20, SecretKey::derive(b"s", "c")).is_err());
        assert!(CdfMapper::train(&[f64::NAN, 1.0], 1 << 20, SecretKey::derive(b"s", "c")).is_err());
    }

    #[test]
    fn jitter_differs_per_file_but_bounded() {
        let m = mapper();
        let a = m.map(50.0, b"f1").unwrap();
        let b = m.map(50.0, b"f2").unwrap();
        assert_ne!(a, b);
        assert!(a.abs_diff(b) < (1u64 << 44) / 1000);
    }
}
