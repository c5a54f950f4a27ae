//! Static bucketization à la Swaminathan et al. (StorageSS 2007) — the
//! paper's reference \[18\].
//!
//! Scores are partitioned into equi-depth buckets fitted to the *observed*
//! score multiset; a mapped value is the bucket's base offset plus keyed
//! jitter. Cross-bucket order is preserved, but the mapping is **static**:
//! the paper's §VII criticism is exactly that "any insertion and updates of
//! the scores in the index will result in the posting list completely
//! rebuilt". This module makes that limitation concrete: mapping a score
//! outside the fitted domain fails with [`BucketError::NeedsRebuild`],
//! whereas the OPM handles any in-domain score for free.

use rsse_crypto::tape::Transcript;
use rsse_crypto::{Hmac, SecretKey, Sha256, Tape};

/// Errors from the static bucket mapper.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BucketError {
    /// Not enough distinct training scores to fit the requested buckets.
    InsufficientTraining {
        /// Distinct scores available.
        distinct: usize,
        /// Buckets requested.
        buckets: usize,
    },
    /// The score falls outside the fitted domain: the whole mapping must be
    /// re-fitted and every posting re-encrypted (the §VII rebuild).
    NeedsRebuild {
        /// The unmappable score.
        score: f64,
    },
}

impl core::fmt::Display for BucketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BucketError::InsufficientTraining { distinct, buckets } => write!(
                f,
                "cannot fit {buckets} buckets from {distinct} distinct scores"
            ),
            BucketError::NeedsRebuild { score } => {
                write!(
                    f,
                    "score {score} outside fitted domain; mapping must be rebuilt"
                )
            }
        }
    }
}

impl std::error::Error for BucketError {}

/// The fitted equi-depth bucket mapping.
///
/// # Example
///
/// ```
/// use rsse_baselines::bucket::BucketMapper;
/// use rsse_crypto::SecretKey;
///
/// let training: Vec<f64> = (1..=100).map(|i| i as f64).collect();
/// let m = BucketMapper::fit(&training, 10, 1 << 30, SecretKey::derive(b"s", "b")).unwrap();
/// // Cross-bucket order is preserved...
/// assert!(m.map(5.0, b"f1").unwrap() < m.map(95.0, b"f2").unwrap());
/// // ...but out-of-domain scores require a full rebuild.
/// assert!(m.map(1000.0, b"f3").is_err());
/// ```
#[derive(Debug, Clone)]
pub struct BucketMapper {
    /// Ascending bucket boundaries; bucket `i` covers
    /// `[boundaries[i], boundaries[i+1])`, the last bucket is inclusive.
    boundaries: Vec<f64>,
    per_bucket: u64,
    /// The jitter key's HMAC state, keyed once for every per-file tape.
    key: Hmac<Sha256>,
}

impl BucketMapper {
    /// Fits `num_buckets` equi-depth buckets over `training` scores and a
    /// ciphertext range of `range` values.
    ///
    /// # Errors
    ///
    /// [`BucketError::InsufficientTraining`] when the training multiset has
    /// fewer distinct values than buckets.
    pub fn fit(
        training: &[f64],
        num_buckets: usize,
        range: u64,
        key: SecretKey,
    ) -> Result<Self, BucketError> {
        let mut sorted: Vec<f64> = training.iter().copied().filter(|s| s.is_finite()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        sorted.dedup();
        if num_buckets == 0 || sorted.len() < num_buckets {
            return Err(BucketError::InsufficientTraining {
                distinct: sorted.len(),
                buckets: num_buckets,
            });
        }
        // Equi-depth boundaries at distinct-value quantiles.
        let mut boundaries = Vec::with_capacity(num_buckets + 1);
        for i in 0..=num_buckets {
            let idx = (i * (sorted.len() - 1)) / num_buckets;
            boundaries.push(sorted[idx]);
        }
        boundaries.dedup();
        Ok(BucketMapper {
            per_bucket: range / boundaries.len().max(1) as u64,
            boundaries,
            key: Hmac::new(key.as_bytes()),
        })
    }

    /// Number of buckets actually fitted.
    pub fn num_buckets(&self) -> usize {
        self.boundaries.len().saturating_sub(1)
    }

    /// Whether `score` falls inside the fitted domain.
    pub fn supports(&self, score: f64) -> bool {
        score.is_finite()
            && score >= self.boundaries[0]
            && score <= *self.boundaries.last().expect("non-empty boundaries")
    }

    /// Maps a score to the ciphertext range with keyed per-file jitter.
    ///
    /// # Errors
    ///
    /// [`BucketError::NeedsRebuild`] for scores outside the fitted domain —
    /// the static-bucketization weakness the RSSE paper contrasts against.
    pub fn map(&self, score: f64, file_id: &[u8]) -> Result<u64, BucketError> {
        if !self.supports(score) {
            return Err(BucketError::NeedsRebuild { score });
        }
        let bucket = self
            .boundaries
            .windows(2)
            .position(|w| score >= w[0] && score < w[1])
            .unwrap_or(self.num_buckets() - 1);
        let transcript = Transcript::new("bucket/jitter")
            .u64(bucket as u64)
            .u64(score.to_bits())
            .bytes(file_id)
            .finish();
        let mut tape = Tape::new_keyed(&self.key, &transcript);
        Ok(bucket as u64 * self.per_bucket + tape.uniform_below(self.per_bucket.max(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> BucketMapper {
        let training: Vec<f64> = (1..=1000).map(|i| i as f64 / 10.0).collect();
        BucketMapper::fit(&training, 16, 1 << 40, SecretKey::derive(b"s", "b")).unwrap()
    }

    #[test]
    fn cross_bucket_order_preserved() {
        let m = mapper();
        // Scores at least one bucket apart must order correctly.
        let lo = m.map(5.0, b"a").unwrap();
        let hi = m.map(95.0, b"b").unwrap();
        assert!(lo < hi);
    }

    #[test]
    fn same_score_different_files_differ() {
        let m = mapper();
        assert_ne!(m.map(50.0, b"f1").unwrap(), m.map(50.0, b"f2").unwrap());
    }

    #[test]
    fn deterministic_per_file() {
        let m = mapper();
        assert_eq!(m.map(50.0, b"f1").unwrap(), m.map(50.0, b"f1").unwrap());
    }

    #[test]
    fn out_of_domain_needs_rebuild() {
        let m = mapper();
        assert!(matches!(
            m.map(0.01, b"f"),
            Err(BucketError::NeedsRebuild { .. })
        ));
        assert!(matches!(
            m.map(1e9, b"f"),
            Err(BucketError::NeedsRebuild { .. })
        ));
        assert!(m.map(f64::NAN, b"f").is_err());
    }

    #[test]
    fn insufficient_training_rejected() {
        let err =
            BucketMapper::fit(&[1.0, 2.0], 16, 1 << 20, SecretKey::derive(b"s", "b")).unwrap_err();
        assert!(matches!(err, BucketError::InsufficientTraining { .. }));
    }

    #[test]
    fn duplicate_heavy_training_still_fits() {
        let mut training = vec![1.0; 100];
        training.extend((2..=50).map(|i| i as f64));
        let m = BucketMapper::fit(&training, 8, 1 << 20, SecretKey::derive(b"s", "b")).unwrap();
        assert!(m.num_buckets() >= 4);
    }

    #[test]
    fn error_display() {
        let e = BucketError::NeedsRebuild { score: 3.5 };
        assert!(e.to_string().contains("rebuilt"));
    }
}
