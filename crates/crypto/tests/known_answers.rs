//! Known-answer pins for [`SemanticCipher`] (AES-128-CTR).
//!
//! The ciphertexts below were produced by the byte-wise FIPS-197 cipher
//! and must never change: posting entries, encrypted files and persisted
//! indexes all carry them. Any faster AES or keystream path has to
//! reproduce every byte. The plaintext lengths cover an empty message,
//! partial and whole blocks, a 24-byte posting-entry body (exactly two
//! blocks), odd block counts, and a long message; the second nonce makes
//! the counter carry out of its low 64 bits after the first block.

use rsse_crypto::{Digest, SecretKey, SemanticCipher, Sha256};

/// A generic nonce.
const NONCE_A: [u8; 16] = [
    0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff,
];

/// A nonce whose low 64 bits are all ones: block 1 uses counter
/// `2^64`, so the CTR increment carries into the high half.
const NONCE_WRAP: [u8; 16] = [
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
];

/// `(plaintext length, ciphertext body hex)` under [`NONCE_A`]; the
/// 1000-byte body is pinned by its SHA-256.
const PINS_A: [(usize, &str); 11] = [
    (0, ""),
    (1, "6a"),
    (15, "6acef1c0755d2904e38ffed027eaa0"),
    (16, "6acef1c0755d2904e38ffed027eaa036"),
    (17, "6acef1c0755d2904e38ffed027eaa036ae"),
    (24, "6acef1c0755d2904e38ffed027eaa036ae0206b525cb1a5c"),
    (
        31,
        "6acef1c0755d2904e38ffed027eaa036ae0206b525cb1a5c4f25073586d01b",
    ),
    (
        32,
        "6acef1c0755d2904e38ffed027eaa036ae0206b525cb1a5c4f25073586d01bee",
    ),
    (
        33,
        "6acef1c0755d2904e38ffed027eaa036ae0206b525cb1a5c4f25073586d01bee\
         75",
    ),
    (
        100,
        "6acef1c0755d2904e38ffed027eaa036ae0206b525cb1a5c4f25073586d01bee\
         759ae247e4176159220a9d8d549b6bcc2af9f865c44b4195c53aec5e5fb45bcb\
         863b81c5e663b8a444b9cbc52395fe3344c96582b49445d0cc70912178e7face\
         c67b1657",
    ),
    (
        1000,
        "bdefebcec5ea91eb03df57f2d034a1cb7323efa937224942411ab039735b33f9",
    ),
];

/// As [`PINS_A`], under [`NONCE_WRAP`].
const PINS_WRAP: [(usize, &str); 11] = [
    (0, ""),
    (1, "3a"),
    (15, "3aadfe12157e7f9c84904a7313e1f1"),
    (16, "3aadfe12157e7f9c84904a7313e1f17e"),
    (17, "3aadfe12157e7f9c84904a7313e1f17e60"),
    (24, "3aadfe12157e7f9c84904a7313e1f17e60621be26b3d9a0a"),
    (
        31,
        "3aadfe12157e7f9c84904a7313e1f17e60621be26b3d9a0adb11137df7704c",
    ),
    (
        32,
        "3aadfe12157e7f9c84904a7313e1f17e60621be26b3d9a0adb11137df7704c02",
    ),
    (
        33,
        "3aadfe12157e7f9c84904a7313e1f17e60621be26b3d9a0adb11137df7704c02\
         6c",
    ),
    (
        100,
        "3aadfe12157e7f9c84904a7313e1f17e60621be26b3d9a0adb11137df7704c02\
         6c7ed8bcb389462182603b05822e9a71c70e275c731924f5759c2fc216552cec\
         1e6cbefdc31b542864ccfed924a4a7a68bb895f46700ab261af703ea3642353d\
         064c8756",
    ),
    (
        1000,
        "e8cc93a84c20f99dec0d84da4bc7506044ff193f4c9521dab854927f2daa49d6",
    ),
];

fn cipher() -> SemanticCipher {
    let mut key = [0u8; 32];
    for (i, k) in key.iter_mut().enumerate() {
        *k = i as u8;
    }
    SemanticCipher::new(&SecretKey::from_bytes(key))
}

fn plaintext(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(7).wrapping_add(3))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn check(nonce: [u8; 16], pins: &[(usize, &str)]) {
    let cipher = cipher();
    for &(len, want) in pins {
        let pt = plaintext(len);
        let ct = cipher.encrypt_with_nonce(nonce, &pt);
        assert_eq!(ct[..16], nonce, "nonce header, len {len}");
        let body = &ct[16..];
        let got = if len > 100 {
            hex(&Sha256::digest(body))
        } else {
            hex(body)
        };
        assert_eq!(got, want, "ciphertext body, len {len}");
        assert_eq!(cipher.decrypt(&ct).unwrap(), pt, "roundtrip, len {len}");
    }
}

#[test]
fn ctr_ciphertexts_match_pins() {
    check(NONCE_A, &PINS_A);
}

#[test]
fn ctr_ciphertexts_match_pins_across_a_low_64_bit_carry() {
    check(NONCE_WRAP, &PINS_WRAP);
}
