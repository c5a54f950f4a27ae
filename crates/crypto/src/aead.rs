//! Authenticated encryption (encrypt-then-MAC: AES-128-CTR + HMAC-SHA-256).
//!
//! The paper's threat model is honest-but-curious, so confidentiality-only
//! `E` suffices there. A deployable release, however, must detect a server
//! that *does* tamper with stored files; this module supplies the standard
//! composition: encrypt with CTR under an encryption subkey, MAC the
//! `nonce ‖ ciphertext` (and optional associated data) under an
//! independent MAC subkey, verify in constant time before decrypting.

use crate::ct::ct_eq;
use crate::ctr::{SemanticCipher, NONCE_LEN};
use crate::error::CryptoError;
use crate::hmac::Hmac;
use crate::keys::SecretKey;
use crate::sha256::Sha256;

/// Length of the appended authentication tag.
pub const TAG_LEN: usize = 32;

/// AES-128-CTR + HMAC-SHA-256 in encrypt-then-MAC composition.
///
/// # Example
///
/// ```
/// use rsse_crypto::aead::AuthenticatedCipher;
/// use rsse_crypto::SecretKey;
///
/// let aead = AuthenticatedCipher::new(&SecretKey::derive(b"seed", "aead"));
/// let ct = aead.seal([1u8; 16], b"file body", b"file-id-7");
/// let pt = aead.open(&ct, b"file-id-7").unwrap();
/// assert_eq!(pt, b"file body");
/// // Tampering is detected.
/// let mut forged = ct.clone();
/// *forged.last_mut().unwrap() ^= 1;
/// assert!(aead.open(&forged, b"file-id-7").is_err());
/// ```
#[derive(Clone)]
pub struct AuthenticatedCipher {
    enc: SemanticCipher,
    /// HMAC keyed once with the MAC subkey.
    mac: Hmac<Sha256>,
}

impl core::fmt::Debug for AuthenticatedCipher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AuthenticatedCipher {{ keys: <redacted> }}")
    }
}

impl AuthenticatedCipher {
    /// Derives independent encryption and MAC subkeys from `key`.
    pub fn new(key: &SecretKey) -> Self {
        AuthenticatedCipher {
            enc: SemanticCipher::new(&key.subkey(b"aead/enc")),
            mac: Hmac::new(key.subkey(b"aead/mac").as_bytes()),
        }
    }

    fn tag(&self, frame: &[u8], associated_data: &[u8]) -> [u8; TAG_LEN] {
        // Length-prefix the AD so (ad, frame) splits cannot collide.
        let mut mac = self.mac.clone();
        mac.update(&(associated_data.len() as u64).to_be_bytes());
        mac.update(associated_data);
        mac.update(frame);
        mac.finalize()
    }

    /// Encrypts and authenticates `plaintext`, binding `associated_data`
    /// (e.g. the file ID) into the tag.
    ///
    /// Output layout: `nonce ‖ body ‖ tag`.
    pub fn seal(
        &self,
        nonce: [u8; NONCE_LEN],
        plaintext: &[u8],
        associated_data: &[u8],
    ) -> Vec<u8> {
        let mut out = self.enc.encrypt_with_nonce(nonce, plaintext);
        let tag = self.tag(&out, associated_data);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts a sealed message.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::CiphertextTooShort`] if the frame cannot hold
    ///   nonce + tag;
    /// * [`CryptoError::IntegrityCheckFailed`] on any tag mismatch
    ///   (tampered body, nonce, tag, or associated data).
    pub fn open(&self, sealed: &[u8], associated_data: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < NONCE_LEN + TAG_LEN {
            return Err(CryptoError::CiphertextTooShort {
                got: sealed.len(),
                need: NONCE_LEN + TAG_LEN,
            });
        }
        let (frame, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expected = self.tag(frame, associated_data);
        if !ct_eq(tag, &expected) {
            return Err(CryptoError::IntegrityCheckFailed);
        }
        self.enc.decrypt(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aead() -> AuthenticatedCipher {
        AuthenticatedCipher::new(&SecretKey::derive(b"aead tests", "k"))
    }

    #[test]
    fn roundtrip_various_lengths() {
        let a = aead();
        for len in [0usize, 1, 15, 16, 17, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = a.seal([len as u8; NONCE_LEN], &pt, b"ad");
            assert_eq!(a.open(&ct, b"ad").unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tag_is_the_hmac_of_the_length_prefixed_ad_and_frame() {
        let key = SecretKey::derive(b"aead tests", "k");
        let ct = aead().seal([5; NONCE_LEN], b"body", b"file-7");
        let (frame, tag) = ct.split_at(ct.len() - TAG_LEN);
        let mut input = 6u64.to_be_bytes().to_vec();
        input.extend_from_slice(b"file-7");
        input.extend_from_slice(frame);
        let want = crate::hmac_sha256(key.subkey(b"aead/mac").as_bytes(), &input);
        assert_eq!(tag, want);
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let a = aead();
        let ct = a.seal([9; NONCE_LEN], b"twenty byte message!", b"ad");
        for i in 0..ct.len() {
            let mut forged = ct.clone();
            forged[i] ^= 0x80;
            assert_eq!(
                a.open(&forged, b"ad").unwrap_err(),
                CryptoError::IntegrityCheckFailed,
                "flip at {i} undetected"
            );
        }
    }

    #[test]
    fn associated_data_is_bound() {
        let a = aead();
        let ct = a.seal([1; NONCE_LEN], b"body", b"file-1");
        assert!(a.open(&ct, b"file-2").is_err());
        assert!(a.open(&ct, b"").is_err());
        assert!(a.open(&ct, b"file-1").is_ok());
    }

    #[test]
    fn ad_length_prefix_prevents_splicing() {
        let a = aead();
        // seal with ad="ab" must not open with ad="a" even if an attacker
        // could shift bytes (the length prefix separates the domains).
        let ct = a.seal([2; NONCE_LEN], b"body", b"ab");
        assert!(a.open(&ct, b"a").is_err());
    }

    #[test]
    fn truncated_frames_rejected() {
        let a = aead();
        let ct = a.seal([3; NONCE_LEN], b"body", b"ad");
        for cut in 0..NONCE_LEN + TAG_LEN {
            assert!(matches!(
                a.open(&ct[..cut], b"ad"),
                Err(CryptoError::CiphertextTooShort { .. })
            ));
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let a = aead();
        let b = AuthenticatedCipher::new(&SecretKey::derive(b"other", "k"));
        let ct = a.seal([4; NONCE_LEN], b"body", b"ad");
        assert_eq!(
            b.open(&ct, b"ad").unwrap_err(),
            CryptoError::IntegrityCheckFailed
        );
    }
}
