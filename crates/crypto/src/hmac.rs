//! HMAC (RFC 2104 / FIPS 198-1), generic over any [`Digest`].
//!
//! HMAC is the workhorse of this crate: it instantiates the PRF `f`, the
//! keyed label function `pi`, and the deterministic coin tape `TapeGen`.

use crate::digest::Digest;

/// Largest digest block [`Hmac`] can key: the pad blocks live on the stack.
/// SHA-1 and SHA-256 both use 64-byte blocks.
const MAX_BLOCK_LEN: usize = 64;

/// Streaming HMAC over a generic digest `D`.
///
/// A keyed `Hmac` is the key schedule: [`Hmac::new`] absorbs the two pad
/// blocks `K ^ ipad` and `K ^ opad` once, and every clone of it starts
/// from those midstates. A caller that MACs many messages under one key
/// keeps one keyed instance and calls [`Hmac::tag`], which costs the
/// message's compressions plus one for the outer hash, instead of the
/// two extra pad-block compressions a fresh key setup would add.
///
/// # Example
///
/// ```
/// use rsse_crypto::{Hmac, Sha256};
///
/// let mut mac = Hmac::<Sha256>::new(b"key");
/// mac.update(b"The quick brown fox ");
/// mac.update(b"jumps over the lazy dog");
/// let tag = mac.finalize();
/// assert_eq!(tag.as_ref().len(), 32);
///
/// // The same key schedule, reused for another message.
/// let keyed = Hmac::<Sha256>::new(b"key");
/// assert_eq!(keyed.tag(b"msg"), Hmac::<Sha256>::mac(b"key", b"msg"));
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    /// Inner hasher: `key ^ ipad` absorbed, then the message.
    inner: D,
    /// Outer hasher pre-keyed with `key ^ opad`, cloned at finalization.
    outer: D,
}

impl<D: Digest> core::fmt::Debug for Hmac<D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Hmac<{}-byte digest>", D::OUTPUT_LEN)
    }
}

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC instance keyed with `key`.
    ///
    /// Keys longer than the digest block size are hashed first, per RFC 2104.
    ///
    /// # Panics
    ///
    /// Panics if `D::BLOCK_LEN` exceeds 64 bytes.
    pub fn new(key: &[u8]) -> Self {
        let mut buf = [0u8; MAX_BLOCK_LEN];
        let pad = &mut buf[..D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            pad[..D::OUTPUT_LEN].copy_from_slice(D::digest(key).as_ref());
        } else {
            pad[..key.len()].copy_from_slice(key);
        }
        pad.iter_mut().for_each(|b| *b ^= 0x36);
        let mut inner = D::new();
        inner.update(pad);
        // Turn `key ^ ipad` into `key ^ opad` in place.
        pad.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        let mut outer = D::new();
        outer.update(pad);
        Hmac { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the MAC state and returns the authentication tag.
    pub fn finalize(self) -> D::Output {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(inner_digest.as_ref());
        outer.finalize()
    }

    /// Absorbs `data` into a clone of this state and finalizes it: on a
    /// freshly keyed state, the HMAC of `data` under its key. The state
    /// itself is left as it was, ready for the next message.
    pub fn tag(&self, data: &[u8]) -> D::Output {
        let mut h = self.clone();
        h.update(data);
        h.finalize()
    }

    /// One-shot HMAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> D::Output {
        let mut h = Self::new(key);
        h.update(data);
        h.finalize()
    }
}

/// One-shot HMAC-SHA-256.
///
/// # Example
///
/// ```
/// use rsse_crypto::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"msg");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    Hmac::<crate::Sha256>::mac(key, data)
}

/// One-shot HMAC-SHA-1.
///
/// # Example
///
/// ```
/// use rsse_crypto::hmac_sha1;
/// let tag = hmac_sha1(b"key", b"msg");
/// assert_eq!(tag.len(), 20);
/// ```
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> [u8; 20] {
    Hmac::<crate::Sha1>::mac(key, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sha1, Sha256};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case1() {
        let tag = Hmac::<Sha256>::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let tag = Hmac::<Sha256>::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        // Key longer than the block size must be hashed first.
        let key = [0xaa; 131];
        let tag = Hmac::<Sha256>::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let tag = Hmac::<Sha256>::mac(&key, &[0xcd; 50]);
        assert_eq!(
            hex(&tag),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case5_truncated_tag() {
        // The RFC publishes only the leftmost 128 bits for this case.
        let tag = Hmac::<Sha256>::mac(&[0x0c; 20], b"Test With Truncation");
        assert_eq!(hex(&tag[..16]), "a3b6167473100ee06e0c796c2955552b");
    }

    #[test]
    fn rfc4231_case7_long_key_long_data() {
        let tag = Hmac::<Sha256>::mac(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
        );
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    // RFC 2202 test vectors for HMAC-SHA-1.
    #[test]
    fn rfc2202_case1() {
        let tag = Hmac::<Sha1>::mac(&[0x0b; 20], b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_case2() {
        let tag = Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc2202_case3() {
        let tag = Hmac::<Sha1>::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(hex(&tag), "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
    }

    #[test]
    fn rfc2202_case4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let tag = Hmac::<Sha1>::mac(&key, &[0xcd; 50]);
        assert_eq!(hex(&tag), "4c9007f4026250c6bc8414f9bf50c86c2d7235da");
    }

    #[test]
    fn rfc2202_case5() {
        let tag = Hmac::<Sha1>::mac(&[0x0c; 20], b"Test With Truncation");
        assert_eq!(hex(&tag), "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04");
    }

    #[test]
    fn rfc2202_case6_long_key() {
        let tag = Hmac::<Sha1>::mac(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&tag), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    #[test]
    fn rfc2202_case7_long_key_long_data() {
        let tag = Hmac::<Sha1>::mac(
            &[0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One \
              Block-Size Data",
        );
        assert_eq!(hex(&tag), "e8e99d0f45237d786d6bbaa7965c7808bbff1a91");
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"some key material";
        let data: Vec<u8> = (0u8..200).collect();
        let mut mac = Hmac::<Sha256>::new(key);
        for chunk in data.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), Hmac::<Sha256>::mac(key, &data));
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha1(b"k1", b"m"), hmac_sha1(b"k2", b"m"));
    }
}
