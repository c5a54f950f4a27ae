//! Property-based tests of the crypto primitives.

use proptest::collection::vec;
use proptest::prelude::*;
use rsse_crypto::ctr::NONCE_LEN;
use rsse_crypto::{
    ct_eq, AuthenticatedCipher, Digest, Hmac, SecretKey, SemanticCipher, Sha1, Sha256, Tape,
};

/// RFC 2104 in its specification form, `H((K ^ opad) || H((K ^ ipad) || m))`
/// with the key block built from scratch on every call: the reference the
/// keyed, cloned [`Hmac`] state is held equal to.
fn spec_hmac<D: Digest>(key: &[u8], msg: &[u8]) -> Vec<u8> {
    let mut block = if key.len() > D::BLOCK_LEN {
        D::digest(key).as_ref().to_vec()
    } else {
        key.to_vec()
    };
    block.resize(D::BLOCK_LEN, 0);
    let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(msg);
    let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(D::digest(&inner).as_ref());
    D::digest(&outer).as_ref().to_vec()
}

/// Feeds `msg` to a clone of `keyed` in pieces cut at `splits`.
fn tag_in_pieces<D: Digest>(keyed: &Hmac<D>, msg: &[u8], splits: &[u16]) -> Vec<u8> {
    let mut mac = keyed.clone();
    let mut offset = 0usize;
    for &s in splits {
        let cut = offset + (s as usize % (msg.len() - offset + 1));
        mac.update(&msg[offset..cut]);
        offset = cut;
    }
    mac.update(&msg[offset..]);
    mac.finalize().as_ref().to_vec()
}

/// Checks one keyed state against the spec form for two messages in a
/// row, so a clone that leaked state into the key schedule would show.
fn check_keyed_against_spec<D: Digest>(
    key: &[u8],
    msgs: [&[u8]; 2],
    splits: &[u16],
) -> Result<(), String> {
    let keyed = Hmac::<D>::new(key);
    for msg in msgs {
        let want = spec_hmac::<D>(key, msg);
        if tag_in_pieces(&keyed, msg, splits) != want || keyed.tag(msg).as_ref() != want {
            return Err(format!("key len {}, msg len {}", key.len(), msg.len()));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental hashing equals one-shot hashing for arbitrary splits.
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in vec(any::<u8>(), 0..2000),
        splits in vec(any::<u16>(), 0..8),
    ) {
        let mut h = Sha256::new();
        let mut offset = 0usize;
        for s in splits {
            let cut = offset + (s as usize % (data.len() - offset + 1));
            h.update(&data[offset..cut]);
            offset = cut;
        }
        h.update(&data[offset..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    /// Same for SHA-1.
    #[test]
    fn sha1_incremental_equals_oneshot(
        data in vec(any::<u8>(), 0..1000),
        cut_frac in 0.0f64..=1.0,
    ) {
        let cut = (data.len() as f64 * cut_frac) as usize;
        let mut h = Sha1::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    /// HMAC distinguishes any pair of distinct (key, message) inputs.
    #[test]
    fn hmac_collision_freedom_smoke(
        k1 in vec(any::<u8>(), 1..64),
        k2 in vec(any::<u8>(), 1..64),
        m in vec(any::<u8>(), 0..200),
    ) {
        let t1 = Hmac::<Sha256>::mac(&k1, &m);
        let t2 = Hmac::<Sha256>::mac(&k2, &m);
        if k1 != k2 {
            prop_assert_ne!(t1, t2);
        } else {
            prop_assert_eq!(t1, t2);
        }
    }

    /// A cloned keyed HMAC state equals the spec-form RFC 2104 HMAC, for
    /// SHA-1 and SHA-256, keys of 0-200 bytes (63, 64 and 65 forced: one
    /// short of, exactly and one past the block) and messages fed in
    /// pieces.
    #[test]
    fn keyed_hmac_equals_spec_form(
        key_len in prop_oneof![Just(63usize), Just(64), Just(65), 0usize..=200],
        key_bytes in vec(any::<u8>(), 200),
        m1 in vec(any::<u8>(), 0..300),
        m2 in vec(any::<u8>(), 0..130),
        splits in vec(any::<u16>(), 0..6),
    ) {
        let key = &key_bytes[..key_len];
        let sha1 = check_keyed_against_spec::<Sha1>(key, [&m1, &m2], &splits);
        prop_assert_eq!(sha1, Ok(()));
        let sha256 = check_keyed_against_spec::<Sha256>(key, [&m1, &m2], &splits);
        prop_assert_eq!(sha256, Ok(()));
    }

    /// `Tape::new_keyed` reads out the HMAC-DRBG stream
    /// `HMAC(HMAC(k, t), be64(0)) || HMAC(HMAC(k, t), be64(1)) || ..`,
    /// whatever the read lengths, and `Tape::new` under the same key
    /// reads out the same stream (checked for 32-byte keys, the only
    /// kind a `SecretKey` holds).
    #[test]
    fn keyed_tape_equals_hmac_blocks(
        key_len in prop_oneof![Just(32usize), 0usize..100],
        key_bytes in vec(any::<u8>(), 100),
        transcript in vec(any::<u8>(), 0..100),
        reads in vec(0usize..200, 0..24),
    ) {
        let key = &key_bytes[..key_len];
        let total: usize = reads.iter().sum();
        let seed = spec_hmac::<Sha256>(key, &transcript);
        let mut want = Vec::with_capacity(total + 32);
        for i in 0u64.. {
            if want.len() >= total {
                break;
            }
            want.extend_from_slice(&spec_hmac::<Sha256>(&seed, &i.to_be_bytes()));
        }
        want.truncate(total);

        let mut tape = Tape::new_keyed(&Hmac::new(key), &transcript);
        let mut got = Vec::with_capacity(total);
        for &len in &reads {
            let mut chunk = vec![0u8; len];
            tape.fill_bytes(&mut chunk);
            got.extend_from_slice(&chunk);
        }
        prop_assert_eq!(&got, &want);

        if let Ok(key) = <[u8; 32]>::try_from(key) {
            let mut plain = vec![0u8; total];
            Tape::new(&SecretKey::from_bytes(key), &transcript).fill_bytes(&mut plain);
            prop_assert_eq!(plain, want);
        }
    }

    /// CTR decryption inverts encryption for arbitrary data and nonce.
    #[test]
    fn ctr_roundtrip(
        seed in any::<u64>(),
        nonce in any::<[u8; NONCE_LEN]>(),
        data in vec(any::<u8>(), 0..500),
    ) {
        let cipher = SemanticCipher::new(&SecretKey::derive(&seed.to_be_bytes(), "p"));
        let ct = cipher.encrypt_with_nonce(nonce, &data);
        prop_assert_eq!(cipher.decrypt(&ct).unwrap(), data.clone());
        // Ciphertext differs from plaintext for non-trivial inputs.
        if data.len() >= 16 {
            prop_assert_ne!(&ct[NONCE_LEN..], &data[..]);
        }
    }

    /// AEAD rejects any single-bit corruption.
    #[test]
    fn aead_detects_corruption(
        seed in any::<u64>(),
        data in vec(any::<u8>(), 0..200),
        ad in vec(any::<u8>(), 0..32),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let aead = AuthenticatedCipher::new(&SecretKey::derive(&seed.to_be_bytes(), "a"));
        let ct = aead.seal([1; NONCE_LEN], &data, &ad);
        prop_assert_eq!(aead.open(&ct, &ad).unwrap(), data);
        let mut forged = ct.clone();
        let idx = flip_byte % forged.len();
        forged[idx] ^= 1 << flip_bit;
        prop_assert!(aead.open(&forged, &ad).is_err());
    }

    /// ct_eq agrees with == on arbitrary byte strings.
    #[test]
    fn ct_eq_matches_eq(a in vec(any::<u8>(), 0..64), b in vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }
}
